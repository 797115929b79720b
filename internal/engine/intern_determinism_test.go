package engine_test

import (
	"reflect"
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/classical"
	"homonyms/internal/engine"
	"homonyms/internal/exec"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/psynchom"
	"homonyms/internal/synchom"
)

// protocolConfigs builds representative protocol executions (Figure 3
// via T(EIG) under equivocation, Figure 5 under pre-GST drops), both
// recording traffic.
func protocolConfigs(t *testing.T) map[string]engine.Config {
	t.Helper()
	cfgs := make(map[string]engine.Config)

	// Synchronous homonym agreement via T(EIG).
	alg, err := classical.NewEIG(4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pSync := hom.Params{N: 7, L: 4, T: 1, Synchrony: hom.Synchronous}
	syncFactory, err := synchom.New(alg, pSync)
	if err != nil {
		t.Fatal(err)
	}
	cfgs["sync-transform"] = engine.Config{
		Params:     pSync,
		Assignment: hom.StackedAssignment(7, 4),
		Inputs:     []hom.Value{0, 1, 0, 1, 0, 1, 0},
		NewProcess: syncFactory,
		Adversary: &adversary.Composite{
			Selector: adversary.Slots{2},
			Behavior: adversary.Equivocate{Seed: 3},
		},
		MaxRounds:     synchom.Rounds(alg) + 3,
		RecordTraffic: true,
	}

	// Partially synchronous homonym agreement with drops.
	pPsync := hom.Params{N: 6, L: 5, T: 1, Synchrony: hom.PartiallySynchronous}
	psyncFactory, err := psynchom.New(pPsync, psynchom.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfgs["psync-drops"] = engine.Config{
		Params:     pPsync,
		Assignment: hom.RandomAssignment(6, 5, 9),
		Inputs:     []hom.Value{1, 0, 1, 0, 1, 0},
		NewProcess: psyncFactory,
		Adversary: &adversary.Composite{
			Selector: adversary.Slots{4},
			Behavior: adversary.MimicFlood{},
			Drops:    adversary.RandomDrops{Seed: 5, Prob: 0.5},
		},
		GST:           17,
		MaxRounds:     psynchom.SuggestedMaxRounds(pPsync, 17),
		RecordTraffic: true,
	}
	return cfgs
}

// TestInternTableWorkerCountDeterminism runs the same batch of executions
// through exec.MapN at several worker counts and checks every execution's
// intern table is byte-identical: KeyID assignment is a pure function of
// the execution, untouched by pool recycling or scheduling.
func TestInternTableWorkerCountDeterminism(t *testing.T) {
	cfgs := protocolConfigs(t)
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	const repeat = 4 // run each config several times to force pool reuse
	runAll := func(workers int) [][]string {
		snaps, err := exec.MapN(len(names)*repeat, workers, func(i int) ([]string, error) {
			cfg := cfgs[names[i%len(names)]]
			it := msg.NewInterner()
			cfg.Interner = it
			if _, err := engine.Run(engine.FromConfig(cfg)); err != nil {
				return nil, err
			}
			return it.Snapshot(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return snaps
	}
	base := runAll(1)
	for _, workers := range []int{2, 5} {
		got := runAll(workers)
		for i := range base {
			if !reflect.DeepEqual(base[i], got[i]) {
				t.Fatalf("execution %d: intern table differs between workers=1 and workers=%d", i, workers)
			}
		}
	}
}

// TestPooledInternerRecyclingInvisible runs the same config twice with
// engine-pooled interners (Config.Interner nil) sandwiched around an
// unrelated execution, and checks results are identical: a recycled,
// reset interner must leave no trace of its previous life.
func TestPooledInternerRecyclingInvisible(t *testing.T) {
	cfgs := protocolConfigs(t)
	for name, cfg := range cfgs {
		first, err := engine.Run(engine.FromConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		// Pollute the pools with a different execution.
		for other, ocfg := range cfgs {
			if other != name {
				if _, err := engine.Run(engine.FromConfig(ocfg)); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		second, err := engine.Run(engine.FromConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Decisions, second.Decisions) ||
			first.Rounds != second.Rounds || first.Stats != second.Stats {
			t.Fatalf("%s: recycled interner changed the execution", name)
		}
	}
}
