package engine

// StateRep owns how correct-process state is held and stepped — the
// engine's second seam. The kernel keeps the round lifecycle (adversary,
// routing, budgets, invariants); the representation supplies the two
// process-facing phases: collecting a round's sends (PrepareRound) and
// delivering its inboxes (DeliverRound). Concrete holds one Process
// state machine per slot; Counting folds many indistinguishable
// homonyms into one counted state without touching the kernel.
//
// Contract: PrepareRound must call e.SetSends for every slot (nil for
// corrupted, crashed or silent slots); DeliverRound must draw every
// correct slot's inbox from e.Router() in ascending slot order — the
// shared-reception classes drain their reference counts in that order —
// and recycle each inbox once its Receive returned. Stop tears the
// representation down (releasing processes); it is called exactly once, on every Run exit path, and
// must tolerate Start never having been called.
type StateRep interface {
	// Describe names the representation for diagnostics.
	Describe() string
	// Start binds the representation to its engine before round 1.
	Start(e *Engine) error
	// PrepareRound collects each live correct slot's sends (phase 1).
	PrepareRound(round int)
	// DeliverRound hands each live correct slot its inbox and records
	// decisions via e.RecordDecision (phase 4).
	DeliverRound(round int)
	// Stop tears the representation down after the execution.
	Stop()
}

// concreteRep is the concrete representation: one Process per slot,
// stepped in place on the engine's goroutine.
type concreteRep struct {
	e *Engine
}

// Concrete returns the default state representation: one process state
// machine per slot, stepped sequentially in slot order.
func Concrete() StateRep { return &concreteRep{} }

func (r *concreteRep) Describe() string { return "concrete" }

func (r *concreteRep) Start(e *Engine) error {
	r.e = e
	return nil
}

func (r *concreteRep) PrepareRound(round int) {
	e := r.e
	for s := 0; s < e.N(); s++ {
		e.SetSends(s, nil)
		if e.IsBad(s) || e.Halted(s, round) {
			continue
		}
		e.SetSends(s, e.Process(s).Prepare(round))
	}
}

func (r *concreteRep) DeliverRound(round int) {
	e := r.e
	for to := 0; to < e.N(); to++ {
		if e.IsBad(to) {
			continue
		}
		in := e.Router().Inbox(to)
		if e.Halted(to, round) {
			// A crashed or stalled process takes no step, but its inbox
			// is still drawn (and discarded — the router suppressed or
			// held everything sent to it anyway) so shared-class
			// reference counts drain exactly as in a fault-free round.
			in.Recycle()
			continue
		}
		p := e.Process(to)
		p.Receive(round, in)
		in.Recycle()
		if !e.Decided(to) {
			v, ok := p.Decision()
			e.RecordDecision(to, v, ok, round)
		}
	}
}

func (r *concreteRep) Stop() {
	if r.e == nil {
		return
	}
	for s := 0; s < r.e.N(); s++ {
		if p := r.e.Process(s); p != nil {
			if rel, ok := p.(Releaser); ok {
				rel.Release()
			}
		}
	}
}
