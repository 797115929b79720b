package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"homonyms/internal/fuzz"
)

func TestMain(m *testing.M) {
	// Tests run from this directory, one level below the checkout root.
	corpusDir = filepath.Join("..", corpusDir)
	dir, err := os.MkdirTemp("", "perfbench-spans")
	if err != nil {
		panic(err)
	}
	spanDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestWrapperParityOverCorpus replays every committed fuzz seed traced
// and untraced: the traced engine execution must reproduce the untraced
// one and the seed's recorded outcome exactly.
func TestWrapperParityOverCorpus(t *testing.T) {
	names, err := filepath.Glob(filepath.Join(corpusDir, "*.json"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no corpus seeds under %s: %v", corpusDir, err)
	}
	tr := newTracer()
	nm := newSpanNames(tr)
	counts := &layerCounts{}
	for _, name := range names {
		sf, err := fuzz.LoadSeed(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, invariants := range []bool{false, true} {
			o := fuzz.RunOpts(sf.Scenario, fuzz.Options{Invariants: invariants})
			if o.Class != sf.Expect.Class {
				t.Errorf("%s: class %s, want %s", sf.Name, o.Class, sf.Expect.Class)
			}
			if err := checkScenario(tr, nm, counts, sf.Scenario, invariants, o); err != nil {
				t.Errorf("%s (invariants %v): %v", sf.Name, invariants, err)
			}
		}
	}
	if counts.execs != 2*len(names) {
		t.Errorf("traced %d executions, want %d", counts.execs, 2*len(names))
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestWorkloadSmoke runs every workload briefly, untraced and traced,
// and checks that it passes its output checks and prints exactly the
// declared metrics with their units.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, perLayer := declared(t)
	for name, wl := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			cfg := &runConfig{name: name, seed: 7, seconds: 0.2, workers: 2, out: &strings.Builder{}}
			res, err := wl(cfg, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d/%d\n%s", name, traced, res.Correct, res.Failed, res.Attempted, cfg.out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m, got, unit)
				}
			}
		}
	}
}
