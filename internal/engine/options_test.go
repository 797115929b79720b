package engine_test

import (
	"errors"
	"testing"
	"time"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// echoProc is the minimal correct process: broadcast the input once,
// decide it immediately.
type echoProc struct {
	input   hom.Value
	decided bool
}

func (p *echoProc) Init(ctx engine.Context) { p.input = ctx.Input }

func (p *echoProc) Prepare(round int) []msg.Send {
	if round != 1 {
		return nil
	}
	return []msg.Send{msg.Broadcast(valuePayload{p.input})}
}

func (p *echoProc) Receive(round int, in *msg.Inbox) { p.decided = true }

func (p *echoProc) Decision() (hom.Value, bool) { return p.input, p.decided }

type valuePayload struct{ v hom.Value }

func (p valuePayload) BuildKey(kb *msg.KeyBuilder) { kb.Reset("echo").Value(p.v) }
func (p valuePayload) Key() string                 { return msg.ScratchKey(p) }

// baseOptions is a valid minimal execution; the validation tests perturb
// it one knob at a time.
func baseOptions() []engine.Option {
	return []engine.Option{
		engine.WithParams(hom.Params{N: 4, L: 4, T: 0, Synchrony: hom.Synchronous}),
		engine.WithAssignment(hom.RoundRobinAssignment(4, 4)),
		engine.WithInputs(0, 1, 0, 1),
		engine.WithProcess(func(int) engine.Process { return &echoProc{} }),
		engine.WithRounds(3),
	}
}

func TestNewValidExecution(t *testing.T) {
	res, err := engine.Run(baseOptions()...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.AllDecided {
		t.Fatalf("expected all processes decided, got %+v", res.Decisions)
	}
}

func TestNewConflictingOptions(t *testing.T) {
	cases := []struct {
		name  string
		extra []engine.Option
	}{
		{"delivery", []engine.Option{
			engine.WithDelivery(engine.DeliverBatched),
			engine.WithDelivery(engine.DeliverPerMessage),
		}},
		{"rounds", []engine.Option{engine.WithRounds(7)}}, // base already sets 3
		{"gst", []engine.Option{engine.WithGST(1), engine.WithGST(5)}},
		{"budget", []engine.Option{
			engine.WithBudget(10, 0),
			engine.WithBudget(20, 0),
		}},
		{"staterep", []engine.Option{
			engine.WithStateRep(engine.Concrete()),
			engine.WithStateRep(engine.Counting()),
		}},
		// base sets N=4, L=4, synchronous, the default domain.
		{"params", []engine.Option{
			engine.WithParams(hom.Params{N: 4, L: 2, T: 0, Synchrony: hom.Synchronous}),
		}},
		{"params-domain", []engine.Option{
			engine.WithParams(hom.Params{N: 4, L: 4, T: 0, Synchrony: hom.Synchronous, Domain: []hom.Value{0, 1, 2}}),
		}},
		// base assigns round-robin over 4 identifiers and inputs 0,1,0,1.
		{"assignment", []engine.Option{
			engine.WithAssignment(hom.Assignment{2, 3, 4, 1}),
		}},
		{"assignment-length", []engine.Option{
			engine.WithAssignment(hom.RoundRobinAssignment(5, 4)),
		}},
		{"inputs", []engine.Option{engine.WithInputs(0, 1, 1, 1)}},
		{"inputs-length", []engine.Option{engine.WithInputs(0, 1, 0)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := engine.New(append(baseOptions(), tc.extra...)...)
			if !errors.Is(err, engine.ErrConflictingOptions) {
				t.Fatalf("want ErrConflictingOptions, got %v", err)
			}
		})
	}
}

func TestNewRepeatedOptionSameValueIsIdempotent(t *testing.T) {
	opts := append(baseOptions(),
		engine.WithDelivery(engine.DeliverBatched),
		engine.WithDelivery(engine.DeliverBatched),
		engine.WithGST(1),
		engine.WithGST(1),
		// Equal contents behind distinct backing arrays are the same
		// value: slice knobs compare by content, not identity.
		engine.WithParams(hom.Params{N: 4, L: 4, T: 0, Synchrony: hom.Synchronous}),
		engine.WithAssignment(append(hom.Assignment(nil), hom.RoundRobinAssignment(4, 4)...)),
		engine.WithInputs(append([]hom.Value(nil), 0, 1, 0, 1)...),
		engine.WithInputs(0, 1, 0, 1),
	)
	if _, err := engine.New(opts...); err != nil {
		t.Fatalf("repeating an option with the same value must not conflict: %v", err)
	}
}

// TestNewAdversaryRepeat pins the adversary knob's equality: a pointer
// repeats idempotently only as the same pointer, and a value adversary
// (here non-comparable: it holds maps) when deeply equal.
func TestNewAdversaryRepeat(t *testing.T) {
	ptr := &targetRounds{bad: 1}
	cases := []struct {
		name     string
		a, b     engine.Adversary
		conflict bool
	}{
		{"same-pointer", ptr, ptr, false},
		{"distinct-pointers", ptr, &targetRounds{bad: 1}, true},
		{"equal-values", targetRounds{bad: 1}, targetRounds{bad: 1}, false},
		{"different-values", targetRounds{bad: 1}, targetRounds{bad: 2}, true},
		{"different-types", ptr, targetRounds{bad: 1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := engine.New(append(baseOptions(), engine.WithAdversary(tc.a), engine.WithAdversary(tc.b))...)
			if got := errors.Is(err, engine.ErrConflictingOptions); got != tc.conflict {
				t.Fatalf("conflict = %v, want %v (err %v)", got, tc.conflict, err)
			}
		})
	}
}

func TestNewNilOptionValues(t *testing.T) {
	cases := []struct {
		name string
		opt  engine.Option
	}{
		{"nil-option", nil},
		{"faults", engine.WithFaults(nil)},
		{"interner", engine.WithInterner(nil)},
		{"adversary", engine.WithAdversary(nil)},
		{"visibility", engine.WithVisibility(nil)},
		{"timemodel", engine.WithTimeModel(nil)},
		{"staterep", engine.WithStateRep(nil)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := engine.New(append(baseOptions(), tc.opt)...)
			if !errors.Is(err, engine.ErrNilOption) {
				t.Fatalf("want ErrNilOption, got %v", err)
			}
		})
	}
}

func TestNewBadOptionValues(t *testing.T) {
	cases := []struct {
		name string
		opt  engine.Option
	}{
		{"delivery", engine.WithDelivery(engine.DeliveryMode(99))},
		{"negative-sends", engine.WithBudget(-1, 0)},
		{"negative-deadline", engine.WithBudget(0, -time.Second)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := engine.New(append(baseOptions(), tc.opt)...)
			if !errors.Is(err, engine.ErrBadOption) {
				t.Fatalf("want ErrBadOption, got %v", err)
			}
		})
	}
}

// TestNewReportsAllOptionErrors pins the errors.Join behaviour: every
// option-level problem surfaces in one error instead of first-wins.
func TestNewReportsAllOptionErrors(t *testing.T) {
	_, err := engine.New(append(baseOptions(),
		engine.WithDelivery(engine.DeliveryMode(99)),
		engine.WithFaults(nil),
		engine.WithGST(1),
		engine.WithGST(9),
	)...)
	for _, want := range []error{engine.ErrBadOption, engine.ErrNilOption, engine.ErrConflictingOptions} {
		if !errors.Is(err, want) {
			t.Errorf("joined error missing %v (got %v)", want, err)
		}
	}
}

// TestNewConfigValidationOrder pins that configuration-level validation
// runs after option-level checks, in the legacy order, with the legacy
// sentinels — the deprecated adapters depend on this.
func TestNewConfigValidationOrder(t *testing.T) {
	t.Run("params-first", func(t *testing.T) {
		_, err := engine.New(engine.WithParams(hom.Params{N: 0, L: 0, T: 0}))
		if err == nil || errors.Is(err, engine.ErrNilProcessFactory) {
			t.Fatalf("invalid params must be reported before the missing factory, got %v", err)
		}
	})
	t.Run("inputs", func(t *testing.T) {
		opts := baseOptions()
		opts[2] = engine.WithInputs(0, 1) // wrong arity for N=4
		_, err := engine.New(opts...)
		if !errors.Is(err, hom.ErrInputLength) {
			t.Fatalf("want hom.ErrInputLength, got %v", err)
		}
	})
	t.Run("factory", func(t *testing.T) {
		opts := baseOptions()
		opts[3] = engine.WithProcess(nil)
		_, err := engine.New(opts...)
		if !errors.Is(err, engine.ErrNilProcessFactory) {
			t.Fatalf("want ErrNilProcessFactory, got %v", err)
		}
	})
	t.Run("rounds", func(t *testing.T) {
		_, err := engine.New(baseOptions()[:4]...) // drop WithRounds
		if !errors.Is(err, engine.ErrNoRoundCap) {
			t.Fatalf("want ErrNoRoundCap, got %v", err)
		}
	})
}

// TestBudgetInvariantInterplay pins the budget/invariant check order: a
// send-budget exhaustion stops the execution cleanly (StopMessageBudget)
// with invariants enabled, rather than tripping an invariant failure or
// an error.
func TestBudgetInvariantInterplay(t *testing.T) {
	res, err := engine.Run(append(baseOptions(),
		engine.WithBudget(1, 0),
		engine.WithInvariants(),
	)...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stopped != engine.StopMessageBudget {
		t.Fatalf("want StopMessageBudget, got %q (rounds=%d)", res.Stopped, res.Rounds)
	}
	if res.Rounds != 1 {
		t.Fatalf("budget of 1 send must stop after round 1, ran %d", res.Rounds)
	}
}

// TestFromConfigComposes pins the adapter bridge: FromConfig is a base
// layer, so a later option overrides its fields without conflicting.
func TestFromConfigComposes(t *testing.T) {
	cfg := engine.Config{
		Params:     hom.Params{N: 4, L: 4, T: 0, Synchrony: hom.Synchronous},
		Assignment: hom.RoundRobinAssignment(4, 4),
		Inputs:     []hom.Value{0, 1, 0, 1},
		NewProcess: func(int) engine.Process { return &echoProc{} },
		MaxRounds:  3,
		Delivery:   engine.DeliverBatched,
	}
	res, err := engine.Run(engine.FromConfig(cfg), engine.WithDelivery(engine.DeliverPerMessage))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.AllDecided {
		t.Fatalf("expected decisions, got %+v", res.Decisions)
	}
}

// TestStateRepByName pins the CLI/scenario vocabulary: "", "concrete"
// and "counting" resolve; the retired "concurrent" and unknown names,
// and a class budget on the concrete representation, are typed
// ErrUnknownStateRep errors.
func TestStateRepByName(t *testing.T) {
	for _, tc := range []struct {
		name       string
		maxClasses int
		want       string // Describe() of the resolved representation; "" = error
	}{
		{"", 0, "concrete"},
		{"concrete", 0, "concrete"},
		{"counting", 0, engine.Counting().Describe()},
		{"counting", 3, engine.CountingLimited(3).Describe()},
		{"concrete", 3, ""},
		{"concurrent", 0, ""},
		{"holographic", 0, ""},
	} {
		rep, err := engine.StateRepByName(tc.name, tc.maxClasses)
		if tc.want == "" {
			if !errors.Is(err, engine.ErrUnknownStateRep) {
				t.Errorf("StateRepByName(%q, %d): want ErrUnknownStateRep, got %v", tc.name, tc.maxClasses, err)
			}
			continue
		}
		if err != nil || rep.Describe() != tc.want {
			t.Errorf("StateRepByName(%q, %d) = %v, %v; want %s", tc.name, tc.maxClasses, rep, err, tc.want)
		}
	}
}
