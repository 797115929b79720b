// Command bench emits a machine-readable perf-provenance record
// (BENCH_PR<n>.json) so the repository carries its own performance
// trajectory: each optimisation PR appends a record comparing the current
// hot paths against a faithful reimplementation of the previous
// behaviour, plus the current multi-core grid throughput.
//
// The "baseline" inbox below is a line-for-line port of the pre-PR-1
// message layer (canonical keys rebuilt by string concatenation on every
// construction and Count, one sort.Slice per inbox), measured in the same
// process and on the same hardware as the optimised path, so the ratio is
// apples to apples regardless of the host.
//
// Usage:
//
//	bench -out BENCH_PR3.json
//	bench -compare BENCH_PR1.json -tolerance 0.25
//	bench -compare . -tolerance 0.25   # walk every BENCH_*.json, oldest first
//
// The -compare mode is the CI regression gate: it reruns the benchmarks
// and fails (exit 1) when the hot paths regress against a committed
// baseline by more than the tolerance. Given a directory (or a glob), it
// walks every BENCH_*.json in record order, oldest to newest, so the
// whole performance trajectory is enforced — not just the latest
// snapshot. Because CI hardware differs from the hardware that produced a
// baseline, the gate only compares hardware-independent quantities:
// allocations per op (deterministic), and the improvement *ratios*
// against the in-process baseline port — both sides of each ratio are
// measured on the same host in the same process, so the ratio transfers
// across machines while raw nanoseconds do not. Benchmarks a baseline
// predates are skipped for that baseline; benchmarks missing from the
// current run always fail.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"homonyms/internal/authbcast"
	"homonyms/internal/classical"
	"homonyms/internal/engine"
	"homonyms/internal/exec"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/numbcast"
	"homonyms/internal/solvability"
)

func main() {
	out := flag.String("out", "BENCH_PR10.json", "output file")
	compare := flag.String("compare", "", "baseline JSON file, directory or glob to gate against instead of writing a record")
	tolerance := flag.Float64("tolerance", 0.25, "allowed relative regression in -compare mode")
	flag.Parse()
	if *compare != "" {
		failures, err := compareBaselines(*compare, *tolerance)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "REGRESSION:", f)
			}
			os.Exit(1)
		}
		fmt.Println("bench gate passed")
		return
	}
	if err := run(*out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// gatedAllocBenches are the engine/inbox/protocol benchmarks whose
// allocation counts are deterministic and therefore directly comparable
// across hosts.
var gatedAllocBenches = []string{
	"engine_broadcast_50r_n16",
	"engine_batched_50r_n16",
	"engine_permessage_50r_n16",
	"engine_groupshared_fill_n64l4",
	"engine_counting_broadcast_50r_n16",
	"inbox_now_build",
	"inbox_now_build_pooled_keyed",
	"inbox_soa_build_pooled",
	"inbox_group_build_views_pooled",
	"inbox_now_count",
	"protocol_table_authbcast_ingest",
	"protocol_table_numbcast_ingest",
}

// gatedRatios are the derived host-normalised throughput ratios (bigger
// is better).
var gatedRatios = []string{
	"inbox_build_ns_improvement_x",
	"inbox_count_ns_improvement_x",
	"engine_counting_memory_reduction_x",
}

// ratioRebaselines marks gated ratios whose floor was legitimately reset
// by a later record. When an optimisation speeds up a ratio's
// denominator (the comparison path), the relative advantage shrinks even
// though both absolute costs improved, so floors recorded before the
// optimisation become unreachable by construction. The value is the
// record number from which floors apply; gates against older baselines
// skip the ratio. Absolute costs stay gated throughout via the engine
// norm and the alloc gates. No gated ratio is reset at present.
var ratioRebaselines = map[string]int{}

// recordRank extracts the record number from a record or file name
// ("BENCH_PR7" -> 7) for ordering gates oldest-first.
var recordNum = regexp.MustCompile(`(\d+)`)

func recordRank(name string) int {
	m := recordNum.FindString(name)
	if m == "" {
		return 0
	}
	n, _ := strconv.Atoi(m)
	return n
}

// baselineFiles resolves the -compare argument to the list of baseline
// records to gate against, oldest record first (BENCH_PR1, BENCH_PR3,
// ...), so the whole perf trajectory is enforced.
func baselineFiles(arg string) ([]string, error) {
	info, err := os.Stat(arg)
	if err == nil && !info.IsDir() {
		return []string{arg}, nil
	}
	pattern := arg
	if err == nil && info.IsDir() {
		pattern = filepath.Join(arg, "BENCH_*.json")
	}
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no baseline records match %q", pattern)
	}
	rank := func(path string) int { return recordRank(filepath.Base(path)) }
	sort.Slice(files, func(i, j int) bool { return rank(files[i]) < rank(files[j]) })
	return files, nil
}

// compareBaselines reruns the benchmark suite once and gates it against
// every resolved baseline, oldest to newest.
func compareBaselines(arg string, tolerance float64) ([]string, error) {
	files, err := baselineFiles(arg)
	if err != nil {
		return nil, err
	}
	cur, err := collect()
	if err != nil {
		return nil, err
	}
	var failures []string
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var base record
		if err := json.Unmarshal(raw, &base); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		failures = append(failures, gateAgainst(path, base, cur, tolerance)...)
	}
	return failures, nil
}

// gateAgainst checks the current run against one baseline record.
// Benchmarks the baseline predates are skipped (older records cannot know
// about newer hot paths); benchmarks missing from the current run fail.
func gateAgainst(path string, base record, cur *record, tolerance float64) []string {
	var failures []string
	skipped := 0
	for _, name := range gatedAllocBenches {
		c, okC := cur.Benchmarks[name]
		if !okC {
			failures = append(failures, fmt.Sprintf("%s: %s missing from current run", path, name))
			continue
		}
		b, okB := base.Benchmarks[name]
		if !okB {
			skipped++
			continue
		}
		// +1 absorbs rounding on near-zero alloc counts.
		limit := int64(float64(b.AllocsPerOp)*(1+tolerance)) + 1
		if c.AllocsPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: %s: %d allocs/op, baseline %d (limit %d)",
				path, name, c.AllocsPerOp, b.AllocsPerOp, limit))
		}
	}
	for _, name := range gatedRatios {
		c, okC := cur.Derived[name]
		if !okC {
			failures = append(failures, fmt.Sprintf("%s: ratio %s missing from current run", path, name))
			continue
		}
		if from, ok := ratioRebaselines[name]; ok && recordRank(base.Record) < from {
			skipped++
			continue
		}
		b, okB := base.Derived[name]
		if !okB || b <= 0 {
			skipped++
			continue
		}
		if c < b*(1-tolerance) {
			failures = append(failures, fmt.Sprintf("%s: %s: %.2fx, baseline %.2fx (floor %.2fx)",
				path, name, c, b, b*(1-tolerance)))
		}
	}
	// Engine throughput, normalised by the in-process baseline inbox
	// build (same host, same process on both sides; lower is better).
	baseNorm := norm(base, "engine_broadcast_50r_n16", "inbox_baseline_build")
	curNorm := norm(*cur, "engine_broadcast_50r_n16", "inbox_baseline_build")
	if baseNorm <= 0 || curNorm <= 0 {
		failures = append(failures, path+": engine_broadcast normalised ratio missing")
	} else if curNorm > baseNorm*(1+tolerance) {
		failures = append(failures, fmt.Sprintf("%s: engine_broadcast_50r_n16 normalised: %.2f, baseline %.2f (ceiling %.2f)",
			path, curNorm, baseNorm, baseNorm*(1+tolerance)))
	}
	// The matrix speedup is only meaningful on multi-core runs: a
	// GOMAXPROCS=1 host records scheduler overhead (~1.0x), not speedup,
	// so the assertion is skipped unless both sides actually ran the grid
	// on more than one worker.
	baseWorkers := base.Benchmarks["matrix_parallel"].Workers
	if baseWorkers == 0 {
		baseWorkers = base.GOMAXPROCS
	}
	curWorkers := cur.Benchmarks["matrix_parallel"].Workers
	matrixGate := "skipped (single-core on either side)"
	if baseWorkers > 1 && curWorkers > 1 {
		b := base.Derived["matrix_parallel_speedup_x"]
		c := cur.Derived["matrix_parallel_speedup_x"]
		matrixGate = fmt.Sprintf("%.2fx vs baseline %.2fx", c, b)
		if b > 0 && c < b*(1-tolerance) {
			failures = append(failures, fmt.Sprintf("%s: matrix_parallel_speedup_x: %.2fx, baseline %.2fx (floor %.2fx)",
				path, c, b, b*(1-tolerance)))
		}
	}
	fmt.Printf("bench gate vs %s: engine norm %.2f (baseline %.2f), matrix speedup %s, %d pre-record benches skipped, tolerance %.0f%%\n",
		path, curNorm, baseNorm, matrixGate, skipped, tolerance*100)
	return failures
}

// norm returns rec.Benchmarks[a].NsPerOp / rec.Benchmarks[b].NsPerOp.
func norm(rec record, a, b string) float64 {
	x, okA := rec.Benchmarks[a]
	y, okB := rec.Benchmarks[b]
	if !okA || !okB || y.NsPerOp == 0 {
		return 0
	}
	return float64(x.NsPerOp) / float64(y.NsPerOp)
}

// metric is one benchmark result in stable, diffable units. Workers and
// GOMAXPROCS are recorded for the benchmarks whose meaning depends on
// available parallelism (the matrix grid pair), so the gate can tell a
// single-core record from a regression.
type metric struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	Extra       float64 `json:"extra,omitempty"`
	Workers     int     `json:"workers,omitempty"`
	GOMAXPROCS  int     `json:"gomaxprocs,omitempty"`
}

func measure(f func(b *testing.B)) metric {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		f(b)
	})
	return metric{
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
}

type record struct {
	Record     string             `json:"record"`
	Go         string             `json:"go"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Notes      []string           `json:"notes"`
	Benchmarks map[string]metric  `json:"benchmarks"`
	Derived    map[string]float64 `json:"derived"`
}

func run(out string) error {
	rec, err := collect()
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		return err
	}
	fmt.Printf("wrote %s (engine norm %.1f, SoA inbox %d allocs/op, count %.1fx faster, matrix parallel %.2fx on %d workers)\n",
		out,
		norm(*rec, "engine_broadcast_50r_n16", "inbox_baseline_build"),
		rec.Benchmarks["inbox_soa_build_pooled"].AllocsPerOp,
		rec.Derived["inbox_count_ns_improvement_x"],
		rec.Derived["matrix_parallel_speedup_x"],
		int(rec.Derived["workers"]))
	return nil
}

// collect measures the full benchmark suite in-process.
func collect() (*record, error) {
	rec := record{
		Record:     "BENCH_PR10",
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: map[string]metric{},
		Derived:    map[string]float64{},
		Notes: []string{
			"inbox_baseline_* reimplements the pre-PR-1 msg layer (keys rebuilt per call, sort.Slice per inbox) and runs in-process for a like-for-like ratio",
			"inbox_soa_* is the PR-4 engine path: the send arena split into parallel (id, kid, body) columns; fill and the indexed receive scan touch only the integer columns",
			"engine_batched_* vs engine_permessage_* compare the PR-4 per-recipient batch routing (the default) against the per-message reference path on the same workload; engine_broadcast_50r_n16 keeps its name and measures the default configuration",
			"protocol_table_* measure the arena-backed broadcast tables (PR 3); the matrix pair records workers/gomaxprocs so single-core runs are not misread as scheduler regressions",
			"inbox_group_* and engine_groupshared_fill_n64l4 are the PR-5 group-shared reception paths: an identifier-symmetric post-GST all-to-all round at n=64, l=4 fills one shared msg.GroupInbox per identifier group (l fills) instead of one SoA inbox per process (n fills); inbox_group_vs_soa_fills_x is the msg-level ratio on that cell",
			"engine_* benchmarks drive the round-core in internal/engine through the options API",
			"engine_counting_* are the PR-10 counting representation: correct processes held as (identifier, state) equivalence classes with multiplicities, one protocol step and one stamp per class per round; engine_counting_broadcast_n1e6_l8 runs a million-process broadcast in the memory of its 8 classes plus the engine's O(n) slot bookkeeping",
			"engine_counting_memory_reduction_x extrapolates the concrete cost to n=1e6 linearly from the measured n=1e4 run (conservative: every concrete per-slot cost — process objects, stamped sends, per-slot payload strings — grows at least linearly in n) and divides by the measured counting bytes at n=1e6",
		},
	}

	raw := broadcastRound(64, 16)
	keyed := make([]msg.Message, len(raw))
	for i, m := range raw {
		keyed[i] = msg.NewMessage(m.ID, m.Body)
	}

	// Inbox construction: baseline vs current vs current-pooled.
	rec.Benchmarks["inbox_baseline_build"] = measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			newBaselineInbox(true, raw)
		}
	})
	rec.Benchmarks["inbox_now_build"] = measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			msg.NewInbox(true, raw)
		}
	})
	rec.Benchmarks["inbox_now_build_pooled_keyed"] = measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in := msg.NewPooledInbox(true, keyed)
			in.Recycle()
		}
	})

	// The SoA engine path (PR 4): the same deliveries as a
	// structure-of-arrays arena. The fill touches only the KeyID column;
	// the scan is a protocol-style receive loop over the indexed
	// accessors, never materialising a []Message view.
	soaIntern := msg.NewInterner()
	var soaArena msg.SendArena
	soaIdx := make([]int32, 0, len(raw))
	for _, m := range raw {
		soaIdx = append(soaIdx, soaArena.Append(soaIntern, m.ID, m.Body, m.Body.Key()))
	}
	rec.Benchmarks["inbox_soa_build_pooled"] = measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in := msg.NewPooledInboxSoA(true, &soaArena, soaIdx)
			if in.Len() == 0 {
				b.Fatal("empty inbox")
			}
			in.Recycle()
		}
	})
	rec.Benchmarks["inbox_soa_indexed_scan"] = func() metric {
		in := msg.NewPooledInboxSoA(true, &soaArena, soaIdx)
		defer in.Recycle()
		return measure(func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				for j, k := 0, in.Len(); j < k; j++ {
					if in.SenderAt(j) != 0 {
						total += in.CountAt(j)
					}
				}
			}
			_ = total
		})
	}()

	// The group-shared reception path (PR 5): one shared core filled per
	// equivalence class, read through pooled views. The msg-level pair
	// compares one shared fill plus 16 views against 16 independent SoA
	// fills of the same deliveries; the engine-level pair drives the real
	// Router over an identifier-symmetric n=64/l=4 all-to-all round.
	rec.Benchmarks["inbox_group_build_views_pooled"] = measure(func(b *testing.B) {
		const views = 16
		boxes := make([]*msg.Inbox, views)
		for i := 0; i < b.N; i++ {
			gi := msg.NewPooledGroupInbox(true, &soaArena, soaIdx, views)
			for v := 0; v < views; v++ {
				boxes[v] = msg.NewPooledInboxView(gi)
			}
			if boxes[0].Len() == 0 {
				b.Fatal("empty view")
			}
			for v := 0; v < views; v++ {
				boxes[v].Recycle()
			}
		}
	})
	rec.Benchmarks["inbox_group_equiv_soa_fills"] = measure(func(b *testing.B) {
		const views = 16
		boxes := make([]*msg.Inbox, views)
		for i := 0; i < b.N; i++ {
			for v := 0; v < views; v++ {
				boxes[v] = msg.NewPooledInboxSoA(true, &soaArena, soaIdx)
			}
			if boxes[0].Len() == 0 {
				b.Fatal("empty inbox")
			}
			for v := 0; v < views; v++ {
				boxes[v].Recycle()
			}
		}
	})
	rec.Benchmarks["engine_groupshared_fill_n64l4"] = measureRouterFill()

	// Count: baseline (key rebuilt per call) vs current (cached key).
	base := newBaselineInbox(true, raw)
	rec.Benchmarks["inbox_baseline_count"] = measure(func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			for _, m := range base.order {
				total += base.count(m)
			}
		}
		_ = total
	})
	now := msg.NewInbox(true, raw)
	ms := now.Messages()
	rec.Benchmarks["inbox_now_count"] = measure(func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			for _, m := range ms {
				total += now.Count(m)
			}
		}
		_ = total
	})

	// Engine throughput: 50 all-to-all broadcast rounds at n=16.
	// engine_broadcast_50r_n16 measures the default configuration (batched
	// since PR 4); the engine_batched_/engine_permessage_ pair pins the
	// two delivery modes explicitly on the identical workload.
	engineBench := func(mode engine.DeliveryMode) metric {
		return measure(func(b *testing.B) {
			p := hom.Params{N: 16, L: 16, T: 0, Synchrony: hom.Synchronous}
			inputs := make([]hom.Value, 16)
			for i := 0; i < b.N; i++ {
				_, err := engine.Run(
					engine.WithParams(p),
					engine.WithAssignment(hom.RoundRobinAssignment(16, 16)),
					engine.WithInputs(inputs...),
					engine.WithProcess(func(int) engine.Process { return &flooder{} }),
					engine.WithRounds(50),
					engine.WithDelivery(mode),
				)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	batched := engineBench(engine.DeliverBatched)
	rec.Benchmarks["engine_broadcast_50r_n16"] = batched
	rec.Benchmarks["engine_batched_50r_n16"] = batched
	rec.Benchmarks["engine_permessage_50r_n16"] = engineBench(engine.DeliverPerMessage)

	// The counting representation (PR 10): the same broadcast workloads
	// with processes held as (identifier, state) equivalence classes.
	// The n16 cell is the apples-to-apples pair for the concrete engine
	// benchmark above (same n, same rounds); the n1e4/n1e6 pair is the
	// scale story — the concrete n=1e4 run is the extrapolation basis,
	// the counting n=1e6 run is the headline (8 broadcast rounds of a
	// million processes under 8 identifiers in 8 classes).
	countingBench := func(n, l, rounds int, rep engine.StateRep) metric {
		p := hom.Params{N: n, L: l, T: 0, Synchrony: hom.Synchronous}
		inputs := make([]hom.Value, n)
		assignment := hom.RoundRobinAssignment(n, l)
		return measure(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := []engine.Option{
					engine.WithParams(p),
					engine.WithAssignment(assignment),
					engine.WithInputs(inputs...),
					engine.WithProcess(func(int) engine.Process { return &countFlooder{} }),
					engine.WithRounds(rounds),
				}
				if rep != nil {
					opts = append(opts, engine.WithStateRep(rep))
				}
				if _, err := engine.Run(opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	rec.Benchmarks["engine_counting_broadcast_50r_n16"] = countingBench(16, 16, 50, engine.Counting())
	rec.Benchmarks["engine_concrete_broadcast_n1e4_l8"] = countingBench(10_000, 8, 8, nil)
	rec.Benchmarks["engine_counting_broadcast_n1e4_l8"] = countingBench(10_000, 8, 8, engine.Counting())
	rec.Benchmarks["engine_counting_broadcast_n1e6_l8"] = countingBench(1_000_000, 8, 8, engine.Counting())

	// Protocol tables (PR 3): the arena-backed broadcast primitives
	// ingesting a steady stream of echoes — the per-delivery table path
	// of Theorems 3-5's constructions.
	rec.Benchmarks["protocol_table_authbcast_ingest"] = measureAuthbcastIngest()
	rec.Benchmarks["protocol_table_numbcast_ingest"] = measureNumbcastIngest()
	rec.Benchmarks["protocol_table_eig_transition"] = measureEIGTransition()

	// Solvability grid: sequential cell loop vs exec-scheduled Matrix.
	ns, ts := []int{4, 5, 6, 7}, []int{1}
	suite := solvability.DefaultSuite()
	v := solvability.Variants()[0]
	seq := measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range solvability.GridParams(ns, ts, v) {
				if _, err := solvability.EvaluateCell(p, suite, 1); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	par := measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solvability.Matrix(ns, ts, v, suite, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	seq.Workers, seq.GOMAXPROCS = 1, runtime.GOMAXPROCS(0)
	par.Workers, par.GOMAXPROCS = exec.Workers(), runtime.GOMAXPROCS(0)
	rec.Benchmarks["matrix_sequential"] = seq
	rec.Benchmarks["matrix_parallel"] = par

	div := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rec.Derived["inbox_build_allocs_improvement_x"] = div(
		rec.Benchmarks["inbox_baseline_build"].AllocsPerOp,
		rec.Benchmarks["inbox_now_build"].AllocsPerOp)
	rec.Derived["inbox_build_pooled_allocs_per_op"] = float64(rec.Benchmarks["inbox_now_build_pooled_keyed"].AllocsPerOp)
	rec.Derived["inbox_build_ns_improvement_x"] = div(
		rec.Benchmarks["inbox_baseline_build"].NsPerOp,
		rec.Benchmarks["inbox_now_build"].NsPerOp)
	rec.Derived["inbox_count_ns_improvement_x"] = div(
		rec.Benchmarks["inbox_baseline_count"].NsPerOp,
		rec.Benchmarks["inbox_now_count"].NsPerOp)
	rec.Derived["matrix_parallel_speedup_x"] = div(
		rec.Benchmarks["matrix_sequential"].NsPerOp,
		rec.Benchmarks["matrix_parallel"].NsPerOp)
	rec.Derived["inbox_soa_allocs_per_op"] = float64(rec.Benchmarks["inbox_soa_build_pooled"].AllocsPerOp)
	rec.Derived["engine_batched_vs_permessage_x"] = div(
		rec.Benchmarks["engine_permessage_50r_n16"].NsPerOp,
		rec.Benchmarks["engine_batched_50r_n16"].NsPerOp)
	rec.Derived["inbox_group_allocs_per_op"] = float64(rec.Benchmarks["inbox_group_build_views_pooled"].AllocsPerOp)
	rec.Derived["inbox_group_vs_soa_fills_x"] = div(
		rec.Benchmarks["inbox_group_equiv_soa_fills"].NsPerOp,
		rec.Benchmarks["inbox_group_build_views_pooled"].NsPerOp)
	// Counting-vs-concrete, same workload: memory at n=1e4 directly, and
	// the n=1e6 headline against the linear extrapolation of the n=1e4
	// concrete run (see the record notes for why linear is conservative).
	rec.Derived["engine_counting_n1e4_memory_x"] = div(
		rec.Benchmarks["engine_concrete_broadcast_n1e4_l8"].BytesPerOp,
		rec.Benchmarks["engine_counting_broadcast_n1e4_l8"].BytesPerOp)
	rec.Derived["engine_counting_memory_reduction_x"] = div(
		rec.Benchmarks["engine_concrete_broadcast_n1e4_l8"].BytesPerOp*100,
		rec.Benchmarks["engine_counting_broadcast_n1e6_l8"].BytesPerOp)
	rec.Derived["engine_counting_time_reduction_x"] = div(
		rec.Benchmarks["engine_concrete_broadcast_n1e4_l8"].NsPerOp*100,
		rec.Benchmarks["engine_counting_broadcast_n1e6_l8"].NsPerOp)
	rec.Derived["workers"] = float64(exec.Workers())
	return &rec, nil
}

// floodPayload is the fill benchmark's body: one distinct payload per
// sender slot, with a scratch-built key (msg.ScratchKeyer) so the stamp
// path allocates nothing.
type floodPayload struct{ slot int }

func (p floodPayload) BuildKey(kb *msg.KeyBuilder) { kb.Reset("flood").Int(p.slot) }
func (p floodPayload) Key() string                 { return msg.ScratchKey(p) }

// measureRouterFill drives the engine's shared Router over an
// identifier-symmetric post-GST all-to-all round at n=64, l=4 — the
// ROADMAP's "cut the n² fill to l fills" cell — measuring exactly the
// fill path: route, flush, classify, build every correct recipient's
// inbox (forcing the dedup fill and the sort index) and recycle. The
// round performs l=4 shared fills instead of n=64.
func measureRouterFill() metric {
	const n, l = 64, 4
	cfg := engine.Config{
		Params:     hom.Params{N: n, L: l, T: 0, Synchrony: hom.Synchronous},
		Assignment: hom.RoundRobinAssignment(n, l),
	}
	isBad := make([]bool, n)
	var stats engine.Stats
	intern := msg.NewInterner()
	router := engine.NewRouter(&cfg, isBad, &stats, intern, false, nil, false)
	sends := make([][]msg.Send, n)
	for s := range sends {
		sends[s] = []msg.Send{msg.Broadcast(floodPayload{slot: s})}
	}
	boxes := make([]*msg.Inbox, n)
	return measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			router.BeginRound(i + 1)
			for s := 0; s < n; s++ {
				router.RouteCorrect(s, sends[s])
			}
			router.Flush()
			for to := 0; to < n; to++ {
				in := router.Inbox(to)
				if in.Len() != n || in.SenderAt(0) == 0 {
					b.Fatal("bad fill")
				}
				boxes[to] = in
			}
			for to := 0; to < n; to++ {
				boxes[to].Recycle()
			}
		}
	})
}

// measureAuthbcastIngest drives one broadcaster through repeated echo
// rounds for a 16-identifier system: every Ingest walks the tuple arena
// and the distinct-identifier bitmaps — the authenticated-broadcast table
// path behind psynchom.
func measureAuthbcastIngest() metric {
	const l, t = 16, 5
	bodies := []msg.Payload{msg.Raw("a"), msg.Raw("b"), msg.Raw("c"), msg.Raw("d")}
	inbox := func() *msg.Inbox {
		var raws []msg.Message
		for bi, body := range bodies {
			origin := hom.Identifier(bi%3 + 1)
			for id := 1; id <= l; id++ {
				raws = append(raws, msg.NewMessage(hom.Identifier(id),
					authbcast.EchoPayload{Body: body, SR: 1, ID: origin}))
			}
		}
		return msg.NewInbox(false, raws)
	}
	in2, in3 := inbox(), inbox()
	return measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bc, err := authbcast.New(l, t)
			if err != nil {
				b.Fatal(err)
			}
			if acc := bc.Ingest(2, in2); len(acc) == 0 {
				b.Fatal("no accepts")
			}
			bc.Ingest(3, in3)
			if bc.TupleCount() == 0 {
				b.Fatal("no tuples")
			}
			bc.Release()
		}
	})
}

// measureNumbcastIngest drives the Figure-6 broadcaster through one full
// superround of bundles from a 7-process, 2-identifier system.
func measureNumbcastIngest() metric {
	body := msg.Raw("payload")
	initBundle := numbcast.NewBundle([]numbcast.InitTuple{{Body: body}}, nil)
	echoBundle := numbcast.NewBundle(nil, []numbcast.EchoTuple{{H: 1, A: 3, Body: body, K: 1}})
	var round1, round2 []msg.Message
	for i := 0; i < 3; i++ {
		round1 = append(round1, msg.Message{ID: 1, Body: initBundle})
	}
	for id := hom.Identifier(1); id <= 2; id++ {
		for i := 0; i < 3; i++ {
			round2 = append(round2, msg.Message{ID: id, Body: echoBundle})
		}
	}
	in1, in2 := msg.NewInbox(true, round1), msg.NewInbox(true, round2)
	return measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bc, err := numbcast.New(7, 2, 2)
			if err != nil {
				b.Fatal(err)
			}
			bc.Broadcast(body)
			if bc.Outgoing(1) == nil {
				b.Fatal("no outgoing bundle")
			}
			bc.Ingest(1, in1)
			if accepts := bc.Ingest(2, in2); len(accepts) == 0 {
				b.Fatal("no accepts")
			}
			bc.Release()
		}
	})
}

// measureEIGTransition runs one EIG round-1 transition at l=7, t=2 (the
// full frontier of root entries): the packed-label tree path of the
// classical substrate.
func measureEIGTransition() metric {
	alg, err := classical.NewEIG(7, 2, nil)
	if err != nil {
		panic(err)
	}
	states := make([]classical.State, 7)
	payloads := make([]msg.Message, 7)
	for j := 0; j < 7; j++ {
		states[j] = alg.Init(hom.Identifier(j+1), hom.Value(j%2))
		payloads[j] = msg.NewMessage(hom.Identifier(j+1), alg.Message(states[j], 1))
	}
	return measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if s := alg.Transition(states[0], 1, payloads); s == nil {
				b.Fatal("nil state")
			}
		}
	})
}

// flooder broadcasts a fresh payload every round and never decides.
type flooder struct{ id hom.Identifier }

func (f *flooder) Init(ctx engine.Context) { f.id = ctx.ID }
func (f *flooder) Prepare(round int) []msg.Send {
	return []msg.Send{msg.Broadcast(msg.Raw(fmt.Sprintf("flood|%d|%d", f.id, round)))}
}
func (f *flooder) Receive(int, *msg.Inbox)     {}
func (f *flooder) Decision() (hom.Value, bool) { return hom.NoValue, false }

// countFlooder is the counting-family workload: the same broadcast
// behaviour as flooder, plus the Cloner/StateHasher extensions that let
// engine.Counting collapse each identifier group into one class. Its
// observable state is exactly its identifier, so the fingerprint folds
// only that.
type countFlooder struct{ id hom.Identifier }

func (f *countFlooder) Init(ctx engine.Context) { f.id = ctx.ID }
func (f *countFlooder) Prepare(round int) []msg.Send {
	return []msg.Send{msg.Broadcast(msg.Raw(fmt.Sprintf("flood|%d|%d", f.id, round)))}
}
func (f *countFlooder) Receive(int, *msg.Inbox)     {}
func (f *countFlooder) Decision() (hom.Value, bool) { return hom.NoValue, false }
func (f *countFlooder) CloneProcess() engine.Process {
	cp := *f
	return &cp
}
func (f *countFlooder) StateFingerprint() msg.StateHash {
	return msg.NewStateHash().Int(int(f.id))
}

func broadcastRound(n, l int) []msg.Message {
	raw := make([]msg.Message, 0, n)
	for s := 0; s < n; s++ {
		id := hom.Identifier(s%l + 1)
		raw = append(raw, msg.Message{ID: id, Body: msg.Raw(fmt.Sprintf("propose|%d", id))})
	}
	return raw
}

// --- the pre-PR-1 message layer, preserved for provenance -----------------

// baselineInbox is the seed implementation: two maps plus a sort.Slice per
// construction, with canonical keys rebuilt by string concatenation on
// every use.
type baselineInbox struct {
	numerate bool
	order    []msg.Message
	counts   map[string]int
}

func baselineKey(m msg.Message) string {
	return "id=" + fmt.Sprint(int(m.ID)) + "|" + m.Body.Key()
}

func newBaselineInbox(numerate bool, raw []msg.Message) *baselineInbox {
	in := &baselineInbox{numerate: numerate, counts: make(map[string]int, len(raw))}
	index := make(map[string]int, len(raw))
	for _, m := range raw {
		k := baselineKey(m)
		if _, ok := index[k]; !ok {
			index[k] = len(in.order)
			in.order = append(in.order, m)
		}
		in.counts[k]++
	}
	if !numerate {
		for k := range in.counts {
			in.counts[k] = 1
		}
	}
	sort.Slice(in.order, func(i, j int) bool {
		if in.order[i].ID != in.order[j].ID {
			return in.order[i].ID < in.order[j].ID
		}
		return in.order[i].Body.Key() < in.order[j].Body.Key()
	})
	return in
}

func (in *baselineInbox) count(m msg.Message) int { return in.counts[baselineKey(m)] }
