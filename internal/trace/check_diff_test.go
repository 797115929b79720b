package trace_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/trace"
)

// checkFourLoops is the reference Check: one walk over the correct slots
// per property (termination, agreement, unanimity, validity), exactly as
// Check was written before its walks were fused.
func checkFourLoops(res *engine.Result) trace.Verdict {
	var verdict trace.Verdict
	for s := range res.CorrectSlotsSeq {
		if res.DecidedAt[s] == 0 {
			verdict.Violations = append(verdict.Violations, trace.Violation{
				Property: trace.Termination,
				Detail: fmt.Sprintf("slot %d (identifier %d) undecided after %d rounds",
					s, res.Assignment[s], res.Rounds),
			})
		}
	}
	firstVal, firstSlot := hom.NoValue, -1
	for s := range res.CorrectSlotsSeq {
		if res.DecidedAt[s] == 0 {
			continue
		}
		if firstSlot < 0 {
			firstVal, firstSlot = res.Decisions[s], s
			continue
		}
		if res.Decisions[s] != firstVal {
			verdict.Violations = append(verdict.Violations, trace.Violation{
				Property: trace.Agreement,
				Detail: fmt.Sprintf("slot %d decided %d but slot %d decided %d",
					firstSlot, firstVal, s, res.Decisions[s]),
			})
			break
		}
	}
	unanimous, seen := true, false
	var proposed hom.Value = hom.NoValue
	for s := range res.CorrectSlotsSeq {
		if !seen {
			proposed, seen = res.Inputs[s], true
		} else if res.Inputs[s] != proposed {
			unanimous = false
			break
		}
	}
	if unanimous && seen {
		for s := range res.CorrectSlotsSeq {
			if res.DecidedAt[s] != 0 && res.Decisions[s] != proposed {
				verdict.Violations = append(verdict.Violations, trace.Violation{
					Property: trace.Validity,
					Detail: fmt.Sprintf("all correct processes proposed %d but slot %d decided %d",
						proposed, s, res.Decisions[s]),
				})
				break
			}
		}
	}
	return verdict
}

// randomResult draws a finished execution over n slots: a random subset
// corrupted, a random subset of the rest faulted, some correct slots
// undecided, inputs unanimous or split, decisions unanimous, split or
// drawn independently of the inputs. Values include hom.NoValue so the
// fused pass cannot lean on it as an "unset" sentinel.
func randomResult(rng *rand.Rand) *engine.Result {
	n := 1 + rng.Intn(9)
	values := []hom.Value{0, 1, 2, hom.NoValue}
	pick := func() hom.Value { return values[rng.Intn(len(values))] }
	res := &engine.Result{
		Params:     hom.Params{N: n, L: n, Synchrony: hom.Synchronous},
		Assignment: hom.RoundRobinAssignment(n, n),
		Inputs:     make([]hom.Value, n),
		Decisions:  make([]hom.Value, n),
		DecidedAt:  make([]int, n),
		Rounds:     1 + rng.Intn(20),
	}
	input, decision := pick(), pick()
	unanimousIn, unanimousOut := rng.Intn(2) == 0, rng.Intn(3) == 0
	for s := 0; s < n; s++ {
		switch r := rng.Intn(10); {
		case r == 0:
			res.Corrupted = append(res.Corrupted, s)
		case r == 1:
			res.Faulted = append(res.Faulted, s)
		}
		res.Inputs[s] = input
		if !unanimousIn {
			res.Inputs[s] = pick()
		}
		if rng.Intn(4) == 0 {
			continue // undecided
		}
		res.DecidedAt[s] = 1 + rng.Intn(res.Rounds)
		switch {
		case unanimousOut:
			res.Decisions[s] = decision
		case rng.Intn(2) == 0:
			res.Decisions[s] = res.Inputs[s]
		default:
			res.Decisions[s] = pick()
		}
	}
	return res
}

// TestCheckMatchesFourLoopReference pins the fused single-pass Check
// against the four-walk reference: identical violations, in identical
// order, with byte-identical detail text, over randomized results.
func TestCheckMatchesFourLoopReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	seen := map[trace.Property]int{}
	for i := 0; i < 20000; i++ {
		res := randomResult(rng)
		got, want := trace.Check(res), checkFourLoops(res)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: inputs %v decisions %v decidedAt %v corrupted %v faulted %v:\ngot:  %v\nwant: %v",
				i, res.Inputs, res.Decisions, res.DecidedAt, res.Corrupted, res.Faulted, got, want)
		}
		for _, p := range want.Properties() {
			seen[p]++
		}
	}
	for _, p := range []trace.Property{trace.Termination, trace.Agreement, trace.Validity} {
		if seen[p] == 0 {
			t.Errorf("generator never produced a %v violation", p)
		}
	}
}
