package engine_test

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// scaleFlooder is the scale-smoke workload: an identifier-keyed
// broadcaster with the Cloner/StateHasher extensions, so each of the l
// identifier groups collapses into a single class. It decides after
// round 3, exercising decision recording across a million slots;
// WithExtraRounds keeps the engine broadcasting through the full round
// budget afterwards (a run otherwise stops once all correct slots
// decided).
type scaleFlooder struct {
	id    hom.Identifier
	ready bool
}

func (f *scaleFlooder) Init(ctx engine.Context) { f.id = ctx.ID }
func (f *scaleFlooder) Prepare(round int) []msg.Send {
	return []msg.Send{msg.Broadcast(msg.Raw(fmt.Sprintf("flood|%d|%d", f.id, round)))}
}
func (f *scaleFlooder) Receive(round int, _ *msg.Inbox) {
	if round >= 3 {
		f.ready = true
	}
}
func (f *scaleFlooder) Decision() (hom.Value, bool) { return hom.Value(f.id), f.ready }
func (f *scaleFlooder) CloneProcess() engine.Process {
	cp := *f
	return &cp
}
func (f *scaleFlooder) StateFingerprint() msg.StateHash {
	return msg.NewStateHash().Int(int(f.id)).Bool(f.ready)
}

// TestCountingMillionScaleSmoke is the headline smoke: one million
// homonymous processes under eight identifiers run eight broadcast
// rounds through engine.Counting in the time of eight equivalence
// classes. Each round costs O(classes); what stays O(n) is set-up and
// the per-slot Result and process table (tens of MB at this size).
// Gated behind HOMONYMS_SCALE because the concrete-cost engines could
// never run this cell and under -race even the O(n) set-up becomes
// too expensive for the ordinary test tier; the CI scale job sets the
// variable explicitly. TestCountingFastPathAllocsIndependentOfN pins
// the same property ungated at smaller n.
func TestCountingMillionScaleSmoke(t *testing.T) {
	if os.Getenv("HOMONYMS_SCALE") == "" {
		t.Skip("set HOMONYMS_SCALE=1 to run the n=1e6 counting smoke")
	}
	const n, l, rounds = 1_000_000, 8, 8
	inputs := make([]hom.Value, n)
	rep := engine.Counting()
	res, err := engine.Run(
		engine.WithParams(hom.Params{N: n, L: l, T: 0, Synchrony: hom.Synchronous}),
		engine.WithAssignment(hom.RoundRobinAssignment(n, l)),
		engine.WithInputs(inputs...),
		engine.WithProcess(func(int) engine.Process { return &scaleFlooder{} }),
		engine.WithRounds(rounds),
		engine.WithExtraRounds(rounds-3),
		engine.WithStateRep(rep),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != rounds {
		t.Fatalf("ran %d rounds, want the full budget of %d", res.Rounds, rounds)
	}
	if got := rep.(interface{ ClassCount() int }).ClassCount(); got != l {
		t.Fatalf("million-slot run ended with %d classes, want %d", got, l)
	}
	if !res.AllDecided {
		t.Fatal("million-slot run did not decide everywhere")
	}
	for s := 0; s < n; s += n / 16 {
		want := hom.Value(s%l + 1)
		if res.Decisions[s] != want {
			t.Fatalf("slot %d decided %d, want its identifier %d", s, res.Decisions[s], want)
		}
	}
	wantSent := n * n * rounds
	if res.Stats.MessagesSent != wantSent {
		t.Fatalf("MessagesSent = %d, want the analytic n*n*rounds = %d", res.Stats.MessagesSent, wantSent)
	}
}

// TestCountingFastPathAllocsIndependentOfN pins "no per-slot work" on
// the counting fast path: the allocation count of a whole engine.Run —
// assembly, set-up, every round and the Result — is the same at n=10^4
// and n=10^5 for the same l and round count. Per-slot arrays are each
// one allocation whatever their length; anything allocated per slot or
// per slot and round would make the larger run count more. The
// collector is paused while measuring so pooled scratch (interner,
// inbox cores) is not dropped by a GC cycle mid-measurement, which
// would add refills to one side only.
func TestCountingFastPathAllocsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; allocation counts are not comparable")
	}
	const l, rounds = 8, 6
	allocs := func(n int) float64 {
		a := hom.RoundRobinAssignment(n, l)
		inputs := make([]hom.Value, n)
		for s := range inputs {
			inputs[s] = hom.Value(int(a[s]) % 2)
		}
		return testing.AllocsPerRun(3, func() {
			res, err := engine.Run(
				engine.WithParams(hom.Params{N: n, L: l, T: 0, Synchrony: hom.Synchronous}),
				engine.WithAssignment(a),
				engine.WithInputs(inputs...),
				engine.WithProcess(func(int) engine.Process { return &scaleFlooder{} }),
				engine.WithRounds(rounds),
				engine.WithExtraRounds(rounds-3),
				engine.WithStateRep(engine.Counting()),
			)
			if err != nil || res.Rounds != rounds || !res.AllDecided {
				t.Fatalf("n=%d: err=%v rounds=%d allDecided=%v", n, err, res.Rounds, res.AllDecided)
			}
		})
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GC()
	small, large := allocs(10_000), allocs(100_000)
	if small != large {
		t.Fatalf("allocs per Run: %.0f at n=10^4 but %.0f at n=10^5; the fast path does per-slot work", small, large)
	}
}
