package fuzz

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"homonyms/internal/engine"
)

// TestScenarioStateRepKnob pins the scenario-level state_rep knob: a
// seed that names "counting" replays through Run with the digest it
// would have produced under the default representation (the knob is
// part of the scenario JSON, so the digest's scenario half shifts, but
// class/properties/rounds must not), and an unknown name degrades to a
// typed error outcome instead of a panic.
func TestScenarioStateRepKnob(t *testing.T) {
	for _, sc := range corpusScenarios(t) {
		base := Run(sc)
		counted := sc
		counted.StateRep = "counting"
		got := Run(counted)
		if got.Class != base.Class || got.Rounds != base.Rounds || got.Detail != base.Detail {
			t.Errorf("%s: counting outcome diverges: class %s/%s rounds %d/%d detail %q/%q",
				sc.Protocol, got.Class, base.Class, got.Rounds, base.Rounds, got.Detail, base.Detail)
		}
	}
	for _, name := range []string{"holographic", "concurrent"} {
		bogus := corpusScenarios(t)[0]
		bogus.StateRep = name
		out := Run(bogus)
		if out.Class != ClassError || !strings.Contains(out.Detail, "unknown state representation") {
			t.Fatalf("state rep %q: class %s, detail %q", name, out.Class, out.Detail)
		}
	}
}

// TestRetiredConcurrentStateRep pins the retired "concurrent" name: a
// seed file carrying "state_rep":"concurrent" still loads, but
// Options-based assembly fails with the typed engine.ErrUnknownStateRep
// and replay degrades to an error outcome — never a panic, never a
// silent run under another representation.
func TestRetiredConcurrentStateRep(t *testing.T) {
	sf, err := LoadSeed(filepath.Join("testdata", "synchom-termination-l2-t1.json"))
	if err != nil {
		t.Fatal(err)
	}
	sf.Scenario.StateRep = "concurrent"
	path := filepath.Join(t.TempDir(), "concurrent.json")
	if err := WriteSeed(path, sf); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"state_rep": "concurrent"`) {
		t.Fatalf("written seed lacks the state_rep field:\n%s", raw)
	}
	loaded, err := LoadSeed(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := loaded.Scenario.Config(); err != nil {
		t.Fatalf("Config must not depend on the state representation: %v", err)
	}
	if _, err := loaded.Scenario.Options(); !errors.Is(err, engine.ErrUnknownStateRep) {
		t.Fatalf("Options: want ErrUnknownStateRep, got %v", err)
	}
	out, err := Replay(loaded)
	if err == nil || out.Class != ClassError || !strings.Contains(out.Detail, "unknown state representation") {
		t.Fatalf("Replay: err %v, class %s, detail %q", err, out.Class, out.Detail)
	}
}
