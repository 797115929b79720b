// Command chaos runs eventually-synchronous soak campaigns: fuzz-style
// scenario sampling composed with dense timing-fault schedules (link
// delays, reorders, round-clock stalls), retransmission under tight
// message budgets, paranoid engine invariants and panic isolation.
//
// A soak is a pure function of its seed — the report digest is
// byte-identical across runs and worker counts — so CI can compare two
// worker counts and flag any nondeterminism in the timing machinery. A
// real violation, a caught panic or a harness/invariant error fails the
// soak.
//
// Usage:
//
//	chaos -seed 1 -count 300                 # soak
//	chaos -seed 1 -count 300 -workers 4 -q   # digest line only
//
// Exit status: 0 clean, 1 violation/panic/harness error, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"homonyms/internal/chaos"
	"homonyms/internal/fuzz"
)

func main() {
	var (
		seed       = flag.Int64("seed", 1, "soak seed (composition i is a pure function of seed and i)")
		count      = flag.Int("count", 300, "number of chaos compositions to run")
		workers    = flag.Int("workers", 0, "worker pool size (0 = one per CPU)")
		maxN       = flag.Int("maxn", 10, "largest process count to sample")
		protocols  = flag.String("protocols", "", "comma-separated protocol subset (default: all registered)")
		invariants = flag.Bool("invariants", true, "run with the engine's per-round internal checks (the soak's point; on by default)")
		quiet      = flag.Bool("q", false, "print only the digest line and failures")
	)
	flag.Parse()

	cfg := chaos.Config{
		Seed:       *seed,
		Count:      *count,
		Workers:    *workers,
		Gen:        fuzz.GenOptions{MaxN: *maxN},
		Invariants: *invariants,
	}
	if *protocols != "" {
		cfg.Gen.Protocols = strings.Split(*protocols, ",")
	}
	rep, err := chaos.Soak(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(2)
	}
	if *quiet {
		fmt.Printf("chaos soak seed=%d count=%d timed=%d digest=%s real=%d panics=%d errors=%d\n",
			rep.Seed, rep.Count, rep.Timed, rep.Digest, len(rep.Real), len(rep.Panics), len(rep.Errors))
		for _, e := range rep.Errors {
			fmt.Fprintln(os.Stderr, "chaos:", e)
		}
	} else {
		fmt.Print(rep.Format())
	}
	if !rep.OK() {
		os.Exit(1)
	}
}
