package fuzz

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/engine"
	"homonyms/internal/exec"
	"homonyms/internal/hom"
	"homonyms/internal/inject"
	"homonyms/internal/msg"
)

// corpusScenarios loads every committed regression seed's scenario,
// keeping only the ones whose config assembles (the corpus contains no
// others, but the guard keeps the test honest if one is ever added).
func corpusScenarios(t *testing.T) []Scenario {
	t.Helper()
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatalf("read corpus: %v", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatal("no committed regression seeds found")
	}
	var out []Scenario
	for _, name := range names {
		sf, err := LoadSeed(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		if _, err := sf.Scenario.Config(); err != nil {
			t.Logf("skipping %s: %v", name, err)
			continue
		}
		out = append(out, sf.Scenario)
	}
	if len(out) == 0 {
		t.Fatal("no runnable scenarios in the corpus")
	}
	return out
}

// resultFingerprint renders everything observable about a Result into a
// stable string, so "byte-identical" is checked literally.
func resultFingerprint(r *engine.Result) string {
	return fmt.Sprintf("%+v|%+v|%v|%v|%v|%d|%d|%v|%+v|%d",
		r.Params, r.Assignment, r.Inputs, r.Corrupted, r.Decisions,
		r.Rounds, r.GST, r.DecidedAt, r.Stats, len(r.Traffic))
}

// faultFingerprint extends the parity fingerprint with the fault-visible
// Result fields: the culprit list and the structured stop reason.
// (Stats, already inside resultFingerprint, covers FaultOmissions.)
func faultFingerprint(r *engine.Result) string {
	return fmt.Sprintf("%s|%v|%s", resultFingerprint(r), r.Faulted, r.Stopped)
}

// faultSchedules derives deterministic fault schedules for an n-slot
// execution, one per fault family plus a combined one, so the parity
// matrix exercises every injector code path: crash-stop, crash-recovery,
// send/receive omission (deterministic and probabilistic), duplication
// and stale replay.
func faultSchedules(n int) []*inject.Schedule {
	mid := n / 2
	return []*inject.Schedule{
		{Crashes: []inject.Crash{
			{Slot: 0, Round: 2, Recover: 2},
			{Slot: n - 1, Round: 3},
		}},
		{Omissions: []inject.Omission{
			{Slot: 1 % n, Send: true, From: 2, Until: 6, Prob: 0.5, Seed: 42},
			{Slot: mid, Receive: true, From: 1, Until: 4},
		}},
		{
			Duplicates: []inject.Duplicate{{FromSlot: 0, ToSlot: n - 1, Round: 2}},
			Replays:    []inject.Replay{{FromSlot: n - 1, SourceRound: 2, Round: 4, ToSlot: 0}},
		},
		{
			Crashes:    []inject.Crash{{Slot: mid, Round: 4, Recover: 3}},
			Omissions:  []inject.Omission{{Slot: 0, Send: true, From: 3, Until: 5}},
			Duplicates: []inject.Duplicate{{FromSlot: 1 % n, ToSlot: 0, Round: 3}},
			Replays:    []inject.Replay{{FromSlot: 0, SourceRound: 1, Round: 3, ToSlot: mid}},
		},
	}
}

// parityFlooder broadcasts a fresh payload each round, occasionally
// targets its own identifier group, and decides after a fixed round, so
// feature-matrix runs exercise ToAll and ToIdentifier routing plus the
// decision bookkeeping.
type parityFlooder struct {
	id     hom.Identifier
	seen   int
	decide int
}

func (f *parityFlooder) Init(ctx engine.Context) { f.id = ctx.ID }
func (f *parityFlooder) Prepare(round int) []msg.Send {
	sends := []msg.Send{msg.Broadcast(msg.Raw(fmt.Sprintf("p|%d|%d", f.id, round)))}
	if round%3 == 0 {
		sends = append(sends, msg.SendTo(f.id, msg.Raw(fmt.Sprintf("g|%d", round))))
	}
	return sends
}
func (f *parityFlooder) Receive(round int, in *msg.Inbox) {
	f.seen += in.TotalCount()
	if f.decide == 0 && round >= 6 && f.seen > 0 {
		f.decide = f.seen
	}
}
func (f *parityFlooder) Decision() (hom.Value, bool) {
	if f.decide == 0 {
		return hom.NoValue, false
	}
	return hom.Value(f.decide % 2), true
}

// perMessageOnly wraps an adversary, hiding any BatchDropper
// implementation so the engine is forced through the per-message shim.
type perMessageOnly struct{ inner engine.Adversary }

func (p perMessageOnly) Corrupt(pa hom.Params, a hom.Assignment, in []hom.Value) []int {
	return p.inner.Corrupt(pa, a, in)
}
func (p perMessageOnly) Sends(round, slot int, view *engine.View) []msg.TargetedSend {
	return p.inner.Sends(round, slot, view)
}
func (p perMessageOnly) Drop(round, from, to int) bool { return p.inner.Drop(round, from, to) }

// featureConfigs covers the routing features the corpus does not carry:
// fault-free broadcast, pre-GST random drops, targeted partition drops,
// a visibility mask, numerate+restricted reception, and traffic
// recording. Every call returns fresh configs (fresh adversary state).
func featureConfigs() map[string]engine.Config {
	configs := map[string]engine.Config{}

	base := func(n, l int) engine.Config {
		inputs := make([]hom.Value, n)
		for i := range inputs {
			inputs[i] = hom.Value(i % 2)
		}
		return engine.Config{
			Params:     hom.Params{N: n, L: l, T: 0, Synchrony: hom.Synchronous},
			Assignment: hom.RoundRobinAssignment(n, l),
			Inputs:     inputs,
			NewProcess: func(int) engine.Process { return &parityFlooder{} },
			MaxRounds:  12,
		}
	}

	configs["faultfree_broadcast"] = base(9, 4)

	psync := base(8, 5)
	psync.Params.T = 2
	psync.Params.Synchrony = hom.PartiallySynchronous
	psync.GST = 7
	psync.Adversary = &adversary.Composite{
		Selector: adversary.FirstT{},
		Behavior: adversary.Noise{Seed: 11},
		Drops:    adversary.RandomDrops{Seed: 42, Prob: 0.35},
	}
	configs["psync_random_drops"] = psync

	targeted := base(7, 3)
	targeted.Params.T = 1
	targeted.Params.Synchrony = hom.PartiallySynchronous
	targeted.GST = 6
	targeted.Adversary = &adversary.Composite{
		Selector: adversary.Slots{2},
		Behavior: adversary.MimicFlood{},
		Drops:    adversary.TargetedDrops{Targets: []int{0, 4}, Inbound: true, Outbound: true},
	}
	configs["psync_targeted_drops"] = targeted

	partition := base(6, 6)
	partition.Params.T = 1
	partition.Params.Synchrony = hom.PartiallySynchronous
	partition.GST = 9
	partition.Adversary = &adversary.Composite{
		Selector: adversary.Slots{5},
		Behavior: adversary.Silent{},
		Drops:    adversary.PartitionDrops{GroupOf: func(slot int) int { return slot % 2 }},
	}
	configs["psync_partition_drops"] = partition

	vis := base(8, 4)
	vis.Visibility = func(from, to int) bool { return (from+to)%5 != 0 || from == to }
	configs["visibility_mask"] = vis

	restricted := base(7, 2)
	restricted.Params.T = 1
	restricted.Params.Numerate = true
	restricted.Params.RestrictedByzantine = true
	restricted.Params.Synchrony = hom.PartiallySynchronous
	restricted.GST = 5
	restricted.Adversary = &adversary.Composite{
		Selector: adversary.FirstT{},
		Behavior: adversary.Noise{Seed: 3},
		Drops:    adversary.RandomDrops{Seed: 9, Prob: 0.25},
	}
	configs["numerate_restricted"] = restricted

	traffic := base(5, 3)
	traffic.RecordTraffic = true
	configs["record_traffic"] = traffic

	// Recording plus pre-GST drops plus Byzantine multi-sends: the
	// batched path must reconstruct the reference path's send-major
	// Delivered order from its delivery bitmap under every mask.
	trafficDrops := base(8, 3)
	trafficDrops.RecordTraffic = true
	trafficDrops.Params.T = 2
	trafficDrops.Params.Synchrony = hom.PartiallySynchronous
	trafficDrops.GST = 8
	trafficDrops.Adversary = &adversary.Composite{
		Selector: adversary.FirstT{},
		Behavior: adversary.MimicFlood{},
		Drops:    adversary.RandomDrops{Seed: 77, Prob: 0.4},
	}
	configs["record_traffic_drops"] = trafficDrops

	return configs
}

// The parity matrix is the execution surface's one parity check. Each
// row is a base execution (a committed regression seed, its
// timing-stripped variant where it has one, or a routing-feature
// config) under either its own fault schedule or one derived by
// faultSchedules. Each leg is one combination of
//
//   - state representation: Concrete, Counting;
//   - time model: the row's own, and the zero-knob eventually-
//     synchronous model that is defined to be byte-identical to
//     lockstep;
//   - delivery: batched (with group-shared inbox fills), per-message
//     (per-recipient fills);
//   - exec workers: 1 and 4, so pooled interners, arenas, inbox shells,
//     shared cores and counting fill caches recycled across concurrent
//     executions can never leak into a Result.
//
// Every cell must replay to the fault fingerprint (decisions, decision
// rounds, effective GST, full statistics, culprits, stop reason) of the
// reference leg: Concrete, per-message, own time model, 1 worker. The
// tests below partition the matrix, so every cell runs exactly once and
// a failure names the axis that broke:
//
//	rows                        legs                          test
//	seeds, own faults           concrete/own/batched/w1       TestSeedCorpusDeliveryParity/<seed>
//	seeds, own faults           concrete/esync/*/w1           TestSeedCorpusTimeModelParity/<seed>
//	seeds, own faults           counting/*/*/w1               TestSeedCorpusCountingParity/<seed>
//	seeds, own faults           concrete/*/batched/w4         TestSeedCorpusGroupReceptionParity
//	seeds, own faults           concrete/*/per-message/w4     TestSeedCorpusParityAcrossWorkers
//	seeds, own faults           counting/*/*/w4               TestSeedCorpusCountingParityAcrossWorkers
//	seeds, faultSchedules       all                           TestSeedCorpusFaultParity
//	feature configs, all faults all                           TestFeatureParityMatrix/<feature>

// matrixJob is one row of the parity matrix.
type matrixJob struct {
	name   string
	base   func() (engine.Config, error) // fresh config per call
	faults *inject.Schedule
}

// matrixLeg is one column of the parity matrix.
type matrixLeg struct {
	counting bool
	esync    bool // lockstep rows run under the zero-knob esync model
	delivery engine.DeliveryMode
	workers  int
}

// refLeg is the column every other leg is checked against.
var refLeg = matrixLeg{delivery: engine.DeliverPerMessage, workers: 1}

func (l matrixLeg) String() string {
	rep, tm := "concrete", "own"
	if l.counting {
		rep = "counting"
	}
	if l.esync {
		tm = "esync"
	}
	d := "batched"
	if l.delivery == engine.DeliverPerMessage {
		d = "per-message"
	}
	return fmt.Sprintf("%s/%s/%s/workers=%d", rep, tm, d, l.workers)
}

// matrixLegs returns every non-reference leg that keep accepts.
func matrixLegs(keep func(matrixLeg) bool) []matrixLeg {
	var legs []matrixLeg
	for _, counting := range []bool{false, true} {
		for _, esync := range []bool{false, true} {
			for _, delivery := range []engine.DeliveryMode{engine.DeliverBatched, engine.DeliverPerMessage} {
				for _, workers := range []int{1, 4} {
					leg := matrixLeg{counting: counting, esync: esync, delivery: delivery, workers: workers}
					if leg != refLeg && keep(leg) {
						legs = append(legs, leg)
					}
				}
			}
		}
	}
	return legs
}

// rowsOf expands one base execution into its matrix rows: its own fault
// schedule (derived false) or every faultSchedules(n) schedule.
func rowsOf(name string, n int, base func() (engine.Config, error), derived bool) []matrixJob {
	if !derived {
		return []matrixJob{{name: name + "/own", base: base}}
	}
	var jobs []matrixJob
	for i, f := range faultSchedules(n) {
		jobs = append(jobs, matrixJob{name: fmt.Sprintf("%s/faults%d", name, i), base: base, faults: f})
	}
	return jobs
}

// seedRows returns the rows of the i-th committed seed. A seed with a
// timing dimension also runs stripped of it, so the lockstep ≡ zero-knob
// esync anchor covers it too.
func seedRows(i int, sc Scenario, derived bool) []matrixJob {
	name := fmt.Sprintf("seed%02d_%s_%s", i, sc.Protocol, sc.Behavior.Kind)
	jobs := rowsOf(name, sc.N, sc.Config, derived)
	if st := stripTiming(sc); !reflect.DeepEqual(st, sc) {
		jobs = append(jobs, rowsOf(name+"_stripped", st.N, st.Config, derived)...)
	}
	return jobs
}

// corpusRows returns the rows of every committed seed.
func corpusRows(t *testing.T, derived bool) []matrixJob {
	var jobs []matrixJob
	for i, sc := range corpusScenarios(t) {
		jobs = append(jobs, seedRows(i, sc, derived)...)
	}
	return jobs
}

// runLeg replays every job under one leg through the exec worker pool
// and returns the per-job fault fingerprints in job order.
func runLeg(jobs []matrixJob, leg matrixLeg) ([]string, error) {
	return exec.MapN(len(jobs), leg.workers, func(i int) (string, error) {
		cfg, err := jobs[i].base()
		if err != nil {
			return "", err
		}
		if jobs[i].faults != nil {
			cfg.Faults = jobs[i].faults
		}
		if leg.esync {
			if _, timed := cfg.TimeModel.(engine.EventuallySynchronous); !timed {
				cfg.TimeModel = engine.EventuallySynchronous{}
			}
		}
		cfg.Delivery = leg.delivery
		opts := []engine.Option{engine.FromConfig(cfg)}
		if leg.counting {
			opts = append(opts, engine.WithStateRep(engine.Counting()))
		}
		res, err := engine.Run(opts...)
		if err != nil {
			return "", fmt.Errorf("%s: %w", jobs[i].name, err)
		}
		return faultFingerprint(res), nil
	})
}

// checkMatrix replays jobs under the reference leg and under every leg
// of legs, and reports each cell whose fingerprint diverges.
func checkMatrix(t *testing.T, jobs []matrixJob, legs []matrixLeg) {
	t.Helper()
	want, err := runLeg(jobs, refLeg)
	if err != nil {
		t.Fatalf("reference leg %v: %v", refLeg, err)
	}
	for _, leg := range legs {
		got, err := runLeg(jobs, leg)
		if err != nil {
			t.Errorf("leg %v: %v", leg, err)
			continue
		}
		for i := range jobs {
			if got[i] != want[i] {
				t.Errorf("leg %v diverges on %s:\ngot:  %s\nwant: %s", leg, jobs[i].name, got[i], want[i])
			}
		}
	}
}

// checkPerSeed runs one single-worker slice of the matrix per committed
// seed, as a subtest named after the seed's protocol and behaviour.
func checkPerSeed(t *testing.T, keep func(matrixLeg) bool) {
	legs := matrixLegs(keep)
	for i, sc := range corpusScenarios(t) {
		t.Run(sc.Protocol+"_"+sc.Behavior.Kind, func(t *testing.T) {
			checkMatrix(t, seedRows(i, sc, false), legs)
		})
	}
}

// TestSeedCorpusDeliveryParity: batched delivery, with its group-shared
// inbox fills and vectorised drop masks, replays every seed exactly as
// the per-message reference does.
func TestSeedCorpusDeliveryParity(t *testing.T) {
	checkPerSeed(t, func(l matrixLeg) bool {
		return !l.counting && !l.esync && l.workers == 1
	})
}

// TestSeedCorpusTimeModelParity: with zero delay, zero skew and timeouts
// disabled, the eventually-synchronous model replays every seed (and its
// timing-stripped variant) exactly as lockstep, in both delivery modes.
// Any drift means a hold/retransmit code path leaked into the
// synchronous schedule.
func TestSeedCorpusTimeModelParity(t *testing.T) {
	checkPerSeed(t, func(l matrixLeg) bool {
		return !l.counting && l.esync && l.workers == 1
	})
}

// TestSeedCorpusCountingParity pins the counting state representation
// against the concrete reference: corpus scenarios carry adversaries,
// drop masks and fault schedules, so this drives the representation's
// slow path (per-member routing, reception partitioning, split/merge
// lifecycle) end to end, under both time models and delivery modes. The
// clean fast path is pinned by the engine's white-box counting suite.
func TestSeedCorpusCountingParity(t *testing.T) {
	checkPerSeed(t, func(l matrixLeg) bool {
		return l.counting && l.workers == 1
	})
}

// TestSeedCorpusGroupReceptionParity replays the corpus through the exec
// worker pool at 4 workers under batched delivery, so the pooled shared
// cores and views behind group-shared inbox fills are recycled across
// concurrent executions; no Result may notice.
func TestSeedCorpusGroupReceptionParity(t *testing.T) {
	checkMatrix(t, corpusRows(t, false), matrixLegs(func(l matrixLeg) bool {
		return !l.counting && l.delivery == engine.DeliverBatched && l.workers == 4
	}))
}

// TestSeedCorpusParityAcrossWorkers replays the corpus through the exec
// worker pool at 4 workers under per-message delivery: pooled interners,
// arenas and inbox shells may not leak between concurrent executions.
func TestSeedCorpusParityAcrossWorkers(t *testing.T) {
	checkMatrix(t, corpusRows(t, false), matrixLegs(func(l matrixLeg) bool {
		return !l.counting && l.delivery == engine.DeliverPerMessage && l.workers == 4
	}))
}

// TestSeedCorpusCountingParityAcrossWorkers replays the corpus through
// the exec worker pool at 4 workers under counting, so its cross-round
// fill caches are recycled across concurrent executions too.
func TestSeedCorpusCountingParityAcrossWorkers(t *testing.T) {
	checkMatrix(t, corpusRows(t, false), matrixLegs(func(l matrixLeg) bool {
		return l.counting && l.workers == 4
	}))
}

// TestSeedCorpusFaultParity is the injector's determinism criterion:
// every committed seed, under every derived fault schedule, replays
// identically on every leg. The injector must be a pure function of
// (round, from, to) on every code path.
func TestSeedCorpusFaultParity(t *testing.T) {
	checkMatrix(t, corpusRows(t, true), matrixLegs(func(matrixLeg) bool { return true }))
}

// TestFeatureParityMatrix covers the routing features the corpus does
// not carry (see featureConfigs), one subtest per feature config, each
// under its own faults and every derived schedule, on every leg.
func TestFeatureParityMatrix(t *testing.T) {
	features := featureConfigs()
	legs := matrixLegs(func(matrixLeg) bool { return true })
	for _, name := range slices.Sorted(maps.Keys(features)) {
		t.Run(name, func(t *testing.T) {
			base := func() (engine.Config, error) { return featureConfigs()[name], nil }
			n := features[name].Params.N
			checkMatrix(t, append(rowsOf(name, n, base, false), rowsOf(name, n, base, true)...), legs)
		})
	}
}

// TestSeedCorpusEngineAdapterParity pins the scenario-to-engine
// adapter: Scenario.Options, with the state_rep knob unset or naming
// either representation (resolved through engine.StateRepByName),
// replays every seed exactly as the matrix's reference leg, which
// assembles the run from Scenario.Config and engine.FromConfig.
func TestSeedCorpusEngineAdapterParity(t *testing.T) {
	for i, sc := range corpusScenarios(t) {
		t.Run(sc.Protocol+"_"+sc.Behavior.Kind, func(t *testing.T) {
			want, err := runLeg(rowsOf(fmt.Sprintf("seed%02d", i), sc.N, sc.Config, false), refLeg)
			if err != nil {
				t.Fatalf("reference leg: %v", err)
			}
			for _, rep := range []string{"", "concrete", "counting"} {
				sc := sc
				sc.StateRep = rep
				opts, err := sc.Options()
				if err != nil {
					t.Fatalf("options (state_rep %q): %v", rep, err)
				}
				res, err := engine.Run(append(opts, engine.WithDelivery(engine.DeliverPerMessage))...)
				if err != nil {
					t.Fatalf("run (state_rep %q): %v", rep, err)
				}
				if got := faultFingerprint(res); got != want[0] {
					t.Errorf("Options (state_rep %q) diverges from Config+FromConfig:\ngot:  %s\nwant: %s", rep, got, want[0])
				}
			}
		})
	}
}

// TestFaultSchedulesChangeOutcomes guards against the injector silently
// becoming a no-op: at least one derived schedule must change some
// seed's fingerprint relative to its fault-free replay.
func TestFaultSchedulesChangeOutcomes(t *testing.T) {
	changed, faulted := false, false
	for _, sc := range corpusScenarios(t) {
		cfg, err := sc.Config()
		if err != nil {
			t.Fatal(err)
		}
		base, err := engine.Run(engine.FromConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range faultSchedules(sc.N) {
			cfg, err := sc.Config()
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = f
			res, err := engine.Run(engine.FromConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			// A schedule whose slots are all Byzantine leaves Faulted
			// empty (culprits exclude corrupted slots), so the
			// non-emptiness check is aggregate, not per schedule.
			if len(res.Faulted) > 0 {
				faulted = true
			}
			if faultFingerprint(res) != faultFingerprint(base) {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("no fault schedule changed any corpus execution — injector inert?")
	}
	if !faulted {
		t.Fatal("no fault schedule yielded Faulted culprits on any corpus seed")
	}
}

// TestBatchDropperMatchesShim pins the adversary-side half of the parity
// contract: the vectorised DropBatch implementations on the concrete
// drop policies produce exactly the verdicts of their per-message Drop.
// The same configuration runs once with the Composite (which implements
// engine.BatchDropper) and once wrapped so only per-message Drop is
// visible, forcing the engine's fallback shim; the Results must match.
func TestBatchDropperMatchesShim(t *testing.T) {
	for name, cfg := range featureConfigs() {
		if cfg.Adversary == nil {
			continue
		}
		t.Run(name, func(t *testing.T) {
			shimmed := cfg
			shimmed.Adversary = perMessageOnly{inner: featureConfigs()[name].Adversary}

			got, err := engine.Run(engine.FromConfig(cfg))
			if err != nil {
				t.Fatalf("vectorised: %v", err)
			}
			want, err := engine.Run(engine.FromConfig(shimmed))
			if err != nil {
				t.Fatalf("shimmed: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("vectorised drop mask diverges from per-message shim:\nvectorised: %+v\nshimmed:    %+v", got, want)
			}
		})
	}
}

// TestBatchedRecordMatchesPerMessage pins traffic recording on the
// batched path: the bitmap-reconstructed Delivered stream must equal the
// per-message reference's send-major order entry for entry (the matrix
// fingerprint only compares the stream's length).
func TestBatchedRecordMatchesPerMessage(t *testing.T) {
	for name, cfg := range featureConfigs() {
		if !cfg.RecordTraffic {
			continue
		}
		t.Run(name, func(t *testing.T) {
			batched := cfg
			batched.Delivery = engine.DeliverBatched
			perMsg := featureConfigs()[name]
			perMsg.Delivery = engine.DeliverPerMessage

			got, err := engine.Run(engine.FromConfig(batched))
			if err != nil {
				t.Fatalf("batched: %v", err)
			}
			want, err := engine.Run(engine.FromConfig(perMsg))
			if err != nil {
				t.Fatalf("per-message: %v", err)
			}
			if len(got.Traffic) != len(want.Traffic) {
				t.Fatalf("traffic length %d, want %d", len(got.Traffic), len(want.Traffic))
			}
			for i := range want.Traffic {
				if got.Traffic[i].Round != want.Traffic[i].Round ||
					got.Traffic[i].FromSlot != want.Traffic[i].FromSlot ||
					got.Traffic[i].ToSlot != want.Traffic[i].ToSlot ||
					got.Traffic[i].Msg.Key() != want.Traffic[i].Msg.Key() {
					t.Fatalf("traffic entry %d diverges:\nbatched:     %+v\nper-message: %+v",
						i, got.Traffic[i], want.Traffic[i])
				}
			}
		})
	}
}
