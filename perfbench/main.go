// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time from a seed, checks every output, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced
// run, --trace 1) as one JSON object on the last line of standard
// output.
//
// Usage:
//
//	perfbench --workload agree-adversarial --seed 1 --seconds 20 --trace 0
//
// Workloads: agree-adversarial, campaign-chaos, counting-million and
// explore-frontier. See README.md in this directory for what each one
// measures and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	name    string
	seed    int64
	seconds float64
	workers int
	out     *strings.Builder // human-readable lines printed before the result
}

func (c *runConfig) logf(format string, args ...any) {
	fmt.Fprintf(c.out, format+"\n", args...)
}

// workload runs one load and returns its result. traced selects the
// per-layer run.
type workload func(cfg *runConfig, traced bool) (*result, error)

var workloads = map[string]workload{
	"agree-adversarial": runAgree,
	"campaign-chaos":    runCampaign,
	"counting-million":  runCounting,
	"explore-frontier":  runExplore,
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measurement time")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, not %d\n", *traced)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive, not %v\n", *seconds)
		os.Exit(2)
	}
	cfg := &runConfig{name: *name, seed: *seed, seconds: *seconds, workers: runtime.NumCPU(), out: &strings.Builder{}}
	cfg.logf("host: nproc=%d gomaxprocs=%d go=%s workers=%d", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.workers)
	res, err := wl(cfg, *traced == 1)
	cfg.logf("peak_rss_mb %.1f MB", peakRSSMB())
	fmt.Print(cfg.out.String())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func printResult(res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
		fmt.Printf("%-36s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	fmt.Printf("fail_ratio %d/%d\n", res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// spanDir is where traced runs write their spans: the build directory
// inside the checkout.
var spanDir = filepath.Join(".bench_build", "spans")

// timeUp reports whether a closed loop should stop starting items.
func timeUp(start time.Time, seconds float64) bool {
	return time.Since(start).Seconds() >= seconds
}
