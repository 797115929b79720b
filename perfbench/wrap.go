package main

import (
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// The wrappers below record spans around the engine's seams without
// changing what the engine does: each forwards every optional extension
// the wrapped value carries, and claims none it lacks, because the
// engine changes behaviour on type assertions (an Observer turns on
// delivery recording, a BatchDropper skips the per-message shim, a
// Cloner and a StateHasher enable class collapse). A traced execution
// must therefore reproduce its untraced twin exactly; the benchmark
// checks that on every traced execution.

// procNames holds the span names of one algorithm's process phases.
type procNames struct {
	prepare, receive uint16
}

type tracedProc struct {
	inner engine.Process
	tr    *tracer
	names procNames
}

func (p *tracedProc) Init(ctx engine.Context) { p.inner.Init(ctx) }

func (p *tracedProc) Prepare(round int) []msg.Send {
	s := p.tr.begin(p.names.prepare)
	out := p.inner.Prepare(round)
	p.tr.end(s)
	return out
}

func (p *tracedProc) Receive(round int, in *msg.Inbox) {
	s := p.tr.begin(p.names.receive)
	p.inner.Receive(round, in)
	p.tr.end(s)
}

func (p *tracedProc) Decision() (hom.Value, bool) { return p.inner.Decision() }

// unwrap returns the wrapped process; every variant below inherits it.
func (p *tracedProc) unwrap() engine.Process { return p.inner }

// tracedProcR adds Releaser.
type tracedProcR struct{ *tracedProc }

func (p tracedProcR) Release() { p.inner.(engine.Releaser).Release() }

// tracedProcCH adds Cloner and StateHasher; a clone is wrapped too.
type tracedProcCH struct{ *tracedProc }

func (p tracedProcCH) CloneProcess() engine.Process {
	return wrapProcess(p.inner.(engine.Cloner).CloneProcess(), p.tr, p.names)
}

func (p tracedProcCH) StateFingerprint() msg.StateHash {
	return p.inner.(engine.StateHasher).StateFingerprint()
}

// tracedProcRCH adds all three.
type tracedProcRCH struct{ tracedProcCH }

func (p tracedProcRCH) Release() { p.inner.(engine.Releaser).Release() }

// wrapProcess wraps p with the variant that matches its extensions. A
// process with only one of Cloner and StateHasher has no matching
// variant and is returned unwrapped; no protocol in the repository has
// that shape.
func wrapProcess(p engine.Process, tr *tracer, names procNames) engine.Process {
	_, r := p.(engine.Releaser)
	_, c := p.(engine.Cloner)
	_, h := p.(engine.StateHasher)
	base := &tracedProc{inner: p, tr: tr, names: names}
	switch {
	case c != h:
		return p
	case c && r:
		return tracedProcRCH{tracedProcCH{base}}
	case c:
		return tracedProcCH{base}
	case r:
		return tracedProcR{base}
	default:
		return base
	}
}

// wrapFactory wraps every process a factory builds.
func wrapFactory(f func(slot int) engine.Process, tr *tracer, names procNames) func(slot int) engine.Process {
	return func(slot int) engine.Process {
		p := f(slot)
		if p == nil {
			return nil
		}
		return wrapProcess(p, tr, names)
	}
}

// advNames holds the adversary span names and the drop call counter.
type advNames struct {
	sends, drop uint16
}

type tracedAdv struct {
	inner     engine.Adversary
	tr        *tracer
	names     advNames
	dropCalls *int
}

func (a *tracedAdv) Corrupt(p hom.Params, asg hom.Assignment, inputs []hom.Value) []int {
	return a.inner.Corrupt(p, asg, inputs)
}

func (a *tracedAdv) Sends(round, slot int, view *engine.View) []msg.TargetedSend {
	s := a.tr.begin(a.names.sends)
	out := a.inner.Sends(round, slot, view)
	a.tr.end(s)
	return out
}

func (a *tracedAdv) Drop(round, from, to int) bool {
	*a.dropCalls++
	s := a.tr.begin(a.names.drop)
	out := a.inner.Drop(round, from, to)
	a.tr.end(s)
	return out
}

// tracedAdvB adds BatchDropper.
type tracedAdvB struct{ *tracedAdv }

func (a tracedAdvB) DropBatch(round, toSlot int, fromSlots []int32, drop []bool) {
	*a.dropCalls++
	s := a.tr.begin(a.names.drop)
	a.inner.(engine.BatchDropper).DropBatch(round, toSlot, fromSlots, drop)
	a.tr.end(s)
}

// wrapAdversary wraps adv with the variant that matches its extensions.
// No adversary in the repository is an Observer; one that is would be
// returned unwrapped, as its observation turns on delivery recording.
func wrapAdversary(adv engine.Adversary, tr *tracer, names advNames, dropCalls *int) engine.Adversary {
	if _, ok := adv.(engine.Observer); ok {
		return adv
	}
	base := &tracedAdv{inner: adv, tr: tr, names: names, dropCalls: dropCalls}
	if _, ok := adv.(engine.BatchDropper); ok {
		return tracedAdvB{base}
	}
	return base
}

// tracedTM drives the engine with Lockstep's loop and records a span
// per round. It wraps only Lockstep and EventuallySynchronous, whose
// Drive is exactly that loop.
type tracedTM struct {
	inner engine.TimeModel
	tr    *tracer
	round uint16
}

func (m tracedTM) Describe() string { return m.inner.Describe() }

func (m tracedTM) Drive(e *engine.Engine) error {
	decidedRemaining := -1
	for round := 1; round <= e.MaxRounds(); round++ {
		s := m.tr.begin(m.round)
		err := e.Step(round)
		m.tr.end(s)
		if err != nil {
			return err
		}
		if e.Exhausted() {
			break
		}
		if e.AllCorrectDecided() {
			if decidedRemaining < 0 {
				decidedRemaining = e.ExtraRounds()
			}
			if decidedRemaining == 0 {
				break
			}
			decidedRemaining--
		}
	}
	return nil
}

// tracedTimingTM adds TimingModel.
type tracedTimingTM struct{ tracedTM }

func (m tracedTimingTM) Timing() engine.TimingPolicy {
	return m.inner.(engine.TimingModel).Timing()
}

// wrapTimeModel reports false for a model whose loop it cannot repeat.
func wrapTimeModel(tm engine.TimeModel, tr *tracer, round uint16) (engine.TimeModel, bool) {
	base := tracedTM{inner: tm, tr: tr, round: round}
	switch tm.(type) {
	case engine.Lockstep:
		return base, true
	case engine.EventuallySynchronous:
		return tracedTimingTM{base}, true
	}
	return nil, false
}

// tracedRep wraps the sequential Concrete representation, which carries
// no extension interfaces. Counting is never wrapped: its extensions are
// unexported, and hiding them would switch it to the per-slot path.
type tracedRep struct {
	inner            engine.StateRep
	tr               *tracer
	prepare, deliver uint16
}

func (r tracedRep) Describe() string             { return r.inner.Describe() }
func (r tracedRep) Start(e *engine.Engine) error { return r.inner.Start(e) }
func (r tracedRep) Stop()                        { r.inner.Stop() }

func (r tracedRep) PrepareRound(round int) {
	s := r.tr.begin(r.prepare)
	r.inner.PrepareRound(round)
	r.tr.end(s)
}

func (r tracedRep) DeliverRound(round int) {
	s := r.tr.begin(r.deliver)
	r.inner.DeliverRound(round)
	r.tr.end(s)
}
