package engine

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"time"

	"homonyms/internal/hom"
	"homonyms/internal/inject"
	"homonyms/internal/msg"
)

// Option errors. New reports every option-level problem at once (the
// returned error joins them); errors.Is matches the sentinels.
var (
	// ErrConflictingOptions: the same knob was set twice with different
	// values. Repeating an option with the same value is idempotent.
	ErrConflictingOptions = errors.New("engine: conflicting options")
	// ErrNilOption: a nil value was passed where a non-nil one is
	// required (WithFaults, WithInterner, WithAdversary, WithTimeModel,
	// WithStateRep, or a nil Option itself). Absence is expressed by not
	// passing the option, never by passing nil through it.
	ErrNilOption = errors.New("engine: nil value passed to option")
	// ErrBadOption: an option value is outside its domain (unknown
	// delivery mode, negative budget).
	ErrBadOption = errors.New("engine: invalid option value")
)

// knob names one single-valued option; settings.seen holds one bit per
// knob registered so far.
type knob uint16

const (
	knobParams knob = 1 << iota
	knobAssignment
	knobInputs
	knobAdversary
	knobGST
	knobRounds
	knobExtraRounds
	knobDelivery
	knobFaults
	knobBudget
	knobInterner
	knobTimeModel
	knobStateRep
)

// settings accumulates the options before validation. Each knob that
// must be single-valued registers its bit in seen; a second
// registration is compared with the value the knob holds and conflicts
// when they differ. Nothing is rendered unless a conflict is reported,
// so assembling an execution costs O(1) in n.
type settings struct {
	cfg  Config
	tm   TimeModel
	rep  StateRep
	seen knob
	errs []error
}

// Option configures one knob of an execution under assembly by New.
type Option func(*settings)

func (s *settings) fail(err error) { s.errs = append(s.errs, err) }

// setOnce stores v into the single-valued knob dst on its first
// registration. A repeat is idempotent when equal reports v equal to the
// knob's current value, and otherwise records an ErrConflictingOptions
// naming both values, keeping the first. equal runs on repeats only, so
// a slice knob pays its O(n) comparison only when it is set twice.
func setOnce[T any](s *settings, k knob, name string, dst *T, v T, equal func(a, b T) bool) {
	if s.seen&k == 0 {
		s.seen |= k
		*dst = v
		return
	}
	if !equal(*dst, v) {
		s.fail(fmt.Errorf("%w: %s set to both %v and %v", ErrConflictingOptions, name, *dst, v))
	}
}

// same is equality for comparable knobs.
func same[T comparable](a, b T) bool { return a == b }

// sameParams compares model instances field by field and the value
// domain by content.
func sameParams(a, b hom.Params) bool {
	return a.N == b.N && a.L == b.L && a.T == b.T && a.Synchrony == b.Synchrony &&
		a.Numerate == b.Numerate && a.RestrictedByzantine == b.RestrictedByzantine &&
		slices.Equal(a.Domain, b.Domain)
}

// sameDescribed compares time models and state representations by
// their Describe rendering, which names every knob that shapes them.
func sameDescribed[T interface{ Describe() string }](a, b T) bool {
	return a.Describe() == b.Describe()
}

// sameAdversary compares adversaries by identity: pointers must be the
// same pointer, and comparable values equal. A non-comparable value
// (say, a struct holding a slice, passed by value) falls back to deep
// equality, which is what equal renderings meant before.
func sameAdversary(a, b Adversary) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Type() != vb.Type() {
		return false
	}
	if va.Comparable() && vb.Comparable() {
		return va.Equal(vb)
	}
	return reflect.DeepEqual(a, b)
}

// New assembles and validates one execution. Defaults: batched
// delivery, the Lockstep time model and the sequential Concrete state
// representation; no adversary, no faults, no budgets. Option-level
// errors (conflicts, nil values, out-of-domain modes) are joined and
// reported together; configuration-level validation then runs in a
// fixed order: parameters, assignment, inputs, process factory, round
// cap.
func New(opts ...Option) (*Engine, error) {
	s := &settings{}
	for _, opt := range opts {
		if opt == nil {
			s.fail(fmt.Errorf("%w: nil Option", ErrNilOption))
			continue
		}
		opt(s)
	}
	if len(s.errs) > 0 {
		return nil, errors.Join(s.errs...)
	}
	if s.tm == nil {
		// The Config carrier may name a time model (FromConfig's path
		// to eventually-synchronous executions); WithTimeModel wins.
		if s.cfg.TimeModel != nil {
			s.tm = s.cfg.TimeModel
		} else {
			s.tm = Lockstep{}
		}
	}
	if s.rep == nil {
		s.rep = Concrete()
	}
	cfg := s.cfg
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Assignment.Validate(cfg.Params); err != nil {
		return nil, err
	}
	if len(cfg.Inputs) != cfg.Params.N {
		return nil, fmt.Errorf("%w (got %d, want %d)", hom.ErrInputLength, len(cfg.Inputs), cfg.Params.N)
	}
	if cfg.NewProcess == nil {
		return nil, ErrNilProcessFactory
	}
	if cfg.MaxRounds <= 0 {
		return nil, ErrNoRoundCap
	}
	return newEngine(cfg, s.tm, s.rep)
}

// Run assembles an execution from opts and runs it once.
func Run(opts ...Option) (*Result, error) {
	e, err := New(opts...)
	if err != nil {
		return nil, err
	}
	return e.Run()
}

// FromConfig seeds every configuration knob from a hand-built Config.
// It is a base layer, not a single-valued knob: options after it
// override its fields without conflicting, so callers can compose it
// (e.g. with WithStateRep).
func FromConfig(cfg Config) Option {
	return func(s *settings) { s.cfg = cfg }
}

// WithParams fixes the model instance (n, l, t, synchrony, switches).
func WithParams(p hom.Params) Option {
	return func(s *settings) {
		setOnce(s, knobParams, "Params", &s.cfg.Params, p, sameParams)
	}
}

// WithAssignment maps slots to identifiers.
func WithAssignment(a hom.Assignment) Option {
	return func(s *settings) {
		setOnce(s, knobAssignment, "Assignment", &s.cfg.Assignment, a, slices.Equal)
	}
}

// WithInputs supplies one proposal per slot.
func WithInputs(inputs ...hom.Value) Option {
	return func(s *settings) {
		setOnce(s, knobInputs, "Inputs", &s.cfg.Inputs, inputs, slices.Equal)
	}
}

// WithProcess supplies the correct-process factory.
func WithProcess(factory func(slot int) Process) Option {
	return func(s *settings) {
		// Nil is caught by New's configuration validation
		// (ErrNilProcessFactory), matching the legacy Config path.
		s.cfg.NewProcess = factory
	}
}

// WithAdversary installs the Byzantine adversary.
func WithAdversary(adv Adversary) Option {
	return func(s *settings) {
		if adv == nil {
			s.fail(fmt.Errorf("%w: WithAdversary(nil)", ErrNilOption))
			return
		}
		setOnce(s, knobAdversary, "Adversary", &s.cfg.Adversary, adv, sameAdversary)
	}
}

// WithGST sets the first round with guaranteed delivery (partially
// synchronous model); values below 1 are clamped to 1.
func WithGST(round int) Option {
	return func(s *settings) {
		setOnce(s, knobGST, "GST", &s.cfg.GST, round, same)
	}
}

// WithRounds caps the execution. Required (> 0).
func WithRounds(maxRounds int) Option {
	return func(s *settings) {
		setOnce(s, knobRounds, "Rounds", &s.cfg.MaxRounds, maxRounds, same)
	}
}

// WithExtraRounds keeps the engine running after every correct process
// decided (see Config.ExtraRounds).
func WithExtraRounds(extra int) Option {
	return func(s *settings) {
		setOnce(s, knobExtraRounds, "ExtraRounds", &s.cfg.ExtraRounds, extra, same)
	}
}

// WithVisibility restricts which slot pairs can communicate.
func WithVisibility(visible func(fromSlot, toSlot int) bool) Option {
	return func(s *settings) {
		if visible == nil {
			s.fail(fmt.Errorf("%w: WithVisibility(nil)", ErrNilOption))
			return
		}
		s.cfg.Visibility = visible
	}
}

// WithTrafficRecording stores every delivery in the Result.
func WithTrafficRecording() Option {
	return func(s *settings) { s.cfg.RecordTraffic = true }
}

// WithFrontierHash maintains per-slot observable-history hashes (see
// Config.FrontierHash); they surface in Result.SlotHashes.
func WithFrontierHash() Option {
	return func(s *settings) { s.cfg.FrontierHash = true }
}

// WithDelivery selects the round routing strategy.
func WithDelivery(m DeliveryMode) Option {
	return func(s *settings) {
		if m != DeliverBatched && m != DeliverPerMessage {
			s.fail(fmt.Errorf("%w: unknown DeliveryMode %d", ErrBadOption, m))
			return
		}
		setOnce(s, knobDelivery, "Delivery", &s.cfg.Delivery, m, same)
	}
}

// WithFaults injects the benign-fault schedule (package inject); the
// schedule is compiled, and validated, by New.
func WithFaults(schedule *inject.Schedule) Option {
	return func(s *settings) {
		if schedule == nil {
			s.fail(fmt.Errorf("%w: WithFaults(nil)", ErrNilOption))
			return
		}
		setOnce(s, knobFaults, "Faults", &s.cfg.Faults, schedule, same)
	}
}

// WithInvariants enables the paranoid per-round router self-checks.
func WithInvariants() Option {
	return func(s *settings) { s.cfg.Invariants = true }
}

// WithBudget bounds the execution: maxSends caps cumulative stamped
// sends (0 = unlimited), deadline bounds wall-clock time (0 =
// unlimited; inherently non-deterministic — see Config.Deadline).
func WithBudget(maxSends int, deadline time.Duration) Option {
	return func(s *settings) {
		if maxSends < 0 || deadline < 0 {
			s.fail(fmt.Errorf("%w: WithBudget(%d, %s)", ErrBadOption, maxSends, deadline))
			return
		}
		// The two halves are one knob: a repeat must match both.
		if s.seen&knobBudget != 0 && (s.cfg.MaxSends != maxSends || s.cfg.Deadline != deadline) {
			s.fail(fmt.Errorf("%w: Budget set to both %d/%s and %d/%s", ErrConflictingOptions,
				s.cfg.MaxSends, s.cfg.Deadline, maxSends, deadline))
			return
		}
		s.seen |= knobBudget
		s.cfg.MaxSends = maxSends
		s.cfg.Deadline = deadline
	}
}

// WithInterner supplies the execution's key intern table (see
// Config.Interner; the engine resets it before round 1).
func WithInterner(table *msg.Interner) Option {
	return func(s *settings) {
		if table == nil {
			s.fail(fmt.Errorf("%w: WithInterner(nil)", ErrNilOption))
			return
		}
		setOnce(s, knobInterner, "Interner", &s.cfg.Interner, table, same)
	}
}

// WithTimeModel selects the execution's time model (default Lockstep).
func WithTimeModel(tm TimeModel) Option {
	return func(s *settings) {
		if tm == nil {
			s.fail(fmt.Errorf("%w: WithTimeModel(nil)", ErrNilOption))
			return
		}
		setOnce(s, knobTimeModel, "TimeModel", &s.tm, tm, sameDescribed)
	}
}

// WithStateRep selects the state representation (default Concrete).
func WithStateRep(rep StateRep) Option {
	return func(s *settings) {
		if rep == nil {
			s.fail(fmt.Errorf("%w: WithStateRep(nil)", ErrNilOption))
			return
		}
		setOnce(s, knobStateRep, "StateRep", &s.rep, rep, sameDescribed)
	}
}
