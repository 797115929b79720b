package core_test

import (
	"errors"
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/core"
	"homonyms/internal/hom"
)

func TestSelectRejectsInvalidParams(t *testing.T) {
	if _, err := core.Select(hom.Params{N: 1, L: 1, T: 0, Synchrony: hom.Synchronous}); err == nil {
		t.Fatal("Select accepted invalid params")
	}
}

func TestSelectUnsolvableWrapsReason(t *testing.T) {
	p := hom.Params{N: 5, L: 4, T: 1, Synchrony: hom.PartiallySynchronous}
	_, err := core.Select(p)
	if err == nil {
		t.Fatal("Select accepted unsolvable params")
	}
	if !errors.Is(err, core.ErrUnsolvable) || !errors.Is(err, hom.ErrUnsolvable) {
		t.Fatalf("error %v does not match ErrUnsolvable", err)
	}
}

func TestSelectPrefersNumerateAlgorithm(t *testing.T) {
	// In the restricted+numerate model the Figure-7 algorithm must be
	// selected even when the Figure-5 condition would also hold.
	p := hom.Params{N: 4, L: 4, T: 1, Synchrony: hom.PartiallySynchronous,
		Numerate: true, RestrictedByzantine: true}
	sel, err := core.Select(p)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if sel.Algorithm != core.AlgNumerate {
		t.Fatalf("Algorithm = %s, want %s", sel.Algorithm, core.AlgNumerate)
	}
}

func TestRunDefaultsAssignmentAndBudget(t *testing.T) {
	p := hom.Params{N: 7, L: 4, T: 1, Synchrony: hom.Synchronous}
	inputs := make([]hom.Value, 7)
	res, err := core.Run(core.Config{Params: p, Inputs: inputs})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Verdict.OK() || !res.Decided || res.Decision != 0 {
		t.Fatalf("defaults run failed: %s decided=%v %d", res.Verdict, res.Decided, res.Decision)
	}
	// Round-robin default assignment must have been applied.
	if res.Sim.Assignment[0] != 1 || res.Sim.Assignment[4] != 1 {
		t.Fatalf("unexpected default assignment %v", res.Sim.Assignment)
	}
}

func TestRunCustomDomain(t *testing.T) {
	p := hom.Params{N: 7, L: 4, T: 1, Synchrony: hom.Synchronous, Domain: []hom.Value{3, 8}}
	inputs := []hom.Value{8, 3, 8, 3, 8, 3, 8}
	res, err := core.Run(core.Config{
		Params: p,
		Inputs: inputs,
		Adversary: &adversary.Composite{
			Selector: adversary.Slots{2},
			Behavior: adversary.Equivocate{Seed: 9},
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Verdict.OK() {
		t.Fatalf("%s", res.Verdict)
	}
	if res.Decision != 3 && res.Decision != 8 {
		t.Fatalf("decision %d outside the domain", res.Decision)
	}
}

func TestRunRejectsBadInputCount(t *testing.T) {
	p := hom.Params{N: 7, L: 4, T: 1, Synchrony: hom.Synchronous}
	if _, err := core.Run(core.Config{Params: p, Inputs: []hom.Value{0, 1}}); err == nil {
		t.Fatal("Run accepted wrong input count")
	}
}

func TestRunUnanimousBothValues(t *testing.T) {
	p := hom.Params{N: 7, L: 2, T: 1, Synchrony: hom.PartiallySynchronous,
		Numerate: true, RestrictedByzantine: true}
	for _, v := range []hom.Value{0, 1} {
		res, err := core.RunUnanimous(p, v, nil, 1)
		if err != nil {
			t.Fatalf("RunUnanimous(%d): %v", v, err)
		}
		if res.Decision != v {
			t.Fatalf("RunUnanimous(%d) decided %d", v, res.Decision)
		}
	}
}

func TestSolvableReExports(t *testing.T) {
	p := hom.Params{N: 4, L: 4, T: 1, Synchrony: hom.PartiallySynchronous}
	if !core.Solvable(p) {
		t.Fatal("Solvable re-export disagrees")
	}
	if core.SolvabilityReason(p) == "" {
		t.Fatal("empty solvability reason")
	}
}

func TestCoreSelectMatchesTable1(t *testing.T) {
	tests := []struct {
		p    hom.Params
		want core.AlgorithmID
		ok   bool
	}{
		{hom.Params{N: 7, L: 4, T: 1, Synchrony: hom.Synchronous}, core.AlgSyncTransformEIG, true},
		{hom.Params{N: 6, L: 5, T: 1, Synchrony: hom.PartiallySynchronous}, core.AlgPsyncHomonym, true},
		{hom.Params{N: 7, L: 2, T: 1, Synchrony: hom.PartiallySynchronous, Numerate: true, RestrictedByzantine: true}, core.AlgNumerate, true},
		{hom.Params{N: 7, L: 2, T: 1, Synchrony: hom.Synchronous, Numerate: true, RestrictedByzantine: true}, core.AlgNumerate, true},
		{hom.Params{N: 5, L: 4, T: 1, Synchrony: hom.PartiallySynchronous}, "", false},
		{hom.Params{N: 7, L: 3, T: 1, Synchrony: hom.Synchronous}, "", false},
	}
	for _, tc := range tests {
		sel, err := core.Select(tc.p)
		if tc.ok {
			if err != nil {
				t.Fatalf("Select(%v): %v", tc.p, err)
			}
			if sel.Algorithm != tc.want {
				t.Fatalf("Select(%v) = %s, want %s", tc.p, sel.Algorithm, tc.want)
			}
			if sel.SuggestedRounds(1) <= 0 {
				t.Fatalf("Select(%v): non-positive round budget", tc.p)
			}
			continue
		}
		if err == nil {
			t.Fatalf("Select(%v) succeeded, want unsolvable error", tc.p)
		}
	}
}

func TestCoreRunEndToEnd(t *testing.T) {
	for _, p := range []hom.Params{
		{N: 7, L: 4, T: 1, Synchrony: hom.Synchronous},
		{N: 6, L: 5, T: 1, Synchrony: hom.PartiallySynchronous},
		{N: 7, L: 2, T: 1, Synchrony: hom.PartiallySynchronous, Numerate: true, RestrictedByzantine: true},
	} {
		inputs := make([]hom.Value, p.N)
		for i := range inputs {
			inputs[i] = hom.Value(i % 2)
		}
		res, err := core.Run(core.Config{
			Params: p,
			Inputs: inputs,
			Adversary: &adversary.Composite{
				Selector: adversary.Slots{1},
				Behavior: adversary.Equivocate{Seed: 2},
			},
		})
		if err != nil {
			t.Fatalf("core.Run(%v): %v", p, err)
		}
		if !res.Verdict.OK() || !res.Decided {
			t.Fatalf("core.Run(%v): %s (decided=%v)", p, res.Verdict, res.Decided)
		}
	}
}

func TestCoreRunUnanimous(t *testing.T) {
	p := hom.Params{N: 6, L: 5, T: 1, Synchrony: hom.PartiallySynchronous}
	res, err := core.RunUnanimous(p, 1, nil, 1)
	if err != nil {
		t.Fatalf("RunUnanimous: %v", err)
	}
	if !res.Decided || res.Decision != 1 {
		t.Fatalf("unanimous run decided %v (%v)", res.Decision, res.Decided)
	}
}
