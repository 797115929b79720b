package engine

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// ErrUnknownStateRep is returned by StateRepByName for a name outside
// the CLI/scenario vocabulary.
var ErrUnknownStateRep = errors.New("engine: unknown state representation")

// StateRepByName resolves a state representation from its CLI/scenario
// name: "" and "concrete" select Concrete, and "counting" selects
// Counting — with a class budget when maxClasses > 0 (runs that split
// past the budget fail with a *DegeneracyError). maxClasses is rejected
// for the concrete representation, which has no class notion.
func StateRepByName(name string, maxClasses int) (StateRep, error) {
	switch name {
	case "", "concrete":
		if maxClasses > 0 {
			return nil, fmt.Errorf("%w: %q takes no class budget", ErrUnknownStateRep, name)
		}
		return Concrete(), nil
	case "counting":
		if maxClasses > 0 {
			return CountingLimited(maxClasses), nil
		}
		return Counting(), nil
	}
	return nil, fmt.Errorf("%w: %q (want concrete or counting)", ErrUnknownStateRep, name)
}

// Cloner is the optional Process extension that makes a protocol
// eligible for class collapse under the counting state representation:
// CloneProcess must return an independent deep copy of the process —
// same observable behaviour from the current state, no shared mutable
// storage — so a split equivalence class can fork its state machine at
// the divergence point. Protocols without it still run under Counting,
// one class per slot (no collapse, no splits).
type Cloner interface {
	CloneProcess() Process
}

// StateHasher is the optional Process extension that enables class
// re-unification under the counting state representation: the
// fingerprint must fold the process's entire observable state —
// everything its future Prepare/Receive/Decision behaviour depends on,
// including the decision itself — using canonical keys, never
// process-local intern IDs (see msg.StateHash). Two processes of one
// identifier group with equal fingerprints are folded back into one
// class.
type StateHasher interface {
	StateFingerprint() msg.StateHash
}

// processOwner marks a StateRep that builds and initialises its own
// processes in Start; newEngine skips the per-slot factory loop for it.
type processOwner interface {
	ownsProcesses()
}

// roundRouter marks a StateRep that can route a round itself (phase 3).
// RouteRound runs between BeginRound and Flush; returning true tells the
// engine to skip the per-slot RouteCorrect/RouteByzantine loops.
type roundRouter interface {
	RouteRound(round int) bool
}

// repFailer lets a StateRep abort the execution: the engine checks Err
// after every DeliverRound and surfaces the error from Run.
type repFailer interface {
	Err() error
}

// DegeneracyError reports that the counting representation split into
// more equivalence classes than its configured limit — the adversary or
// fault schedule forced a (near-)concrete execution, defeating the
// point of counting. Callers that opted into a class budget
// (CountingLimited) receive it from Run and should fall back to a
// concrete representation.
type DegeneracyError struct {
	// Round is the round the limit was exceeded in (0: at Start).
	Round int
	// Classes is the class count that exceeded the limit.
	Classes int
	// Limit is the configured class budget.
	Limit int
}

// Error implements error.
func (e *DegeneracyError) Error() string {
	return fmt.Sprintf("engine: counting representation degenerated to %d classes (limit %d) at round %d",
		e.Classes, e.Limit, e.Round)
}

// countClass is one (identifier, protocol-state) equivalence class: a
// single protocol instance standing for every member slot. Members are
// kept ascending; the first member is the class leader, whose slot
// stamps the class's sends on the fast path.
type countClass struct {
	id      hom.Identifier
	proc    Process
	members []int32
	sends   []msg.Send // fast path: the current round's sends
	halted  bool       // slow path: the class takes no step this round
	// decided: every member's decision is recorded, so the class is
	// polled no more (decisions are irrevocable). Splits inherit it;
	// a merge keeps it only when both sides had it.
	decided bool
}

// fillCache is the cross-round fill cache of one identifier group on
// the counting fast path: when a round's weighted delivery sequence —
// (KeyID, multiplicity) pairs in stamp order — matches the cached
// round's exactly, the filled inbox (dedup, dense counts, sort index)
// is reused instead of rebuilt. Steady-state phases where every class
// repeats its sends hit every round.
type fillCache struct {
	kids []msg.KeyID
	w    []int32
	fp   msg.StateHash
	in   *msg.Inbox
}

// countingRep is the counting state representation: correct processes
// are held as (identifier-group, protocol-state) equivalence classes
// with multiplicities, so memory and stepping cost scale with the
// number of classes (at least l, one per inhabited identifier group)
// instead of n. One protocol instance per class is stepped once and
// counted; classes split lazily on any divergence-inducing event
// (targeted sends, per-link drops or faults, crash and stall windows)
// and re-unify when their states re-converge (msg.StateHash over the
// protocol state).
//
// Two execution paths are selected statically, by countingFastPath when
// the engine is built:
//
//   - Fast path (no adversary, no faults, no visibility restriction, no
//     recording, no invariants, no timing): classes can never diverge,
//     so the representation routes the round itself — one stamp per
//     class per send, multiplied through the class multiplicity into
//     the statistics — and delivers one weighted inbox per identifier
//     group (msg.NewPooledInboxWeighted), cached across rounds. A round
//     costs O(classes): the engine allocates no per-slot send scratch,
//     the Router no per-slot routing scratch, and each class records
//     its members' decisions once.
//   - Slow path (anything that can diverge class members): sends are
//     registered per member slot and routed by the engine's normal
//     Router path, so every mask, fault and timing rule applies
//     unchanged; reception partitions each class by the members' actual
//     delivered batches and splits where they differ. This is the path
//     the byte-parity suites pin against Concrete.
//
// Requirements: the process factory must be a pure function of the
// slot's identifier and input (it is invoked once per class, for the
// leader slot). Protocols implementing Cloner collapse into one class
// per (identifier, input); others fall back to one class per slot.
type countingRep struct {
	e          *Engine
	maxClasses int
	collapse   bool // processes implement Cloner: classes can span slots
	fast       bool // static fast path for the whole execution (Engine.classRouted)
	err        error
	classes    []*countClass // ascending by leader slot

	// Slow-path scratch: the round's inboxes, drawn for every correct
	// slot in ascending order (pass A) and consumed per class (pass B).
	inboxes []*msg.Inbox

	// Fast-path scratch, indexed by identifier-1.
	groupCount []int        // per identifier (1-based): total slots holding it
	groupIdx   [][]int32    // per group: the round's delivered arena indices
	groupW     [][]int32    // per group: multiplicities, parallel to groupIdx
	roundIn    []*msg.Inbox // per group: the round's inbox (cache-owned)
	caches     []*fillCache // per group: cross-round fill cache
}

// Counting returns the counting state representation with no class
// budget: executions that force many classes degrade toward concrete
// cost but never fail. See countingRep for the representation contract.
func Counting() StateRep { return &countingRep{} }

// CountingLimited is Counting with a class budget: when an execution
// splits into more than maxClasses equivalence classes, the run aborts
// with a *DegeneracyError instead of silently degrading to concrete
// cost. maxClasses <= 0 means unlimited.
func CountingLimited(maxClasses int) StateRep { return &countingRep{maxClasses: maxClasses} }

func (r *countingRep) Describe() string {
	if r.maxClasses > 0 {
		return fmt.Sprintf("counting(max=%d)", r.maxClasses)
	}
	return "counting"
}

func (r *countingRep) ownsProcesses() {}

// countingFastPath reports whether an execution takes the counting
// representation's class-routed fast path. It is sound exactly when no
// event in the execution can diverge two members of a class or observe
// per-slot routing: no adversary, faults or visibility restriction;
// no traffic records, frontier hashes (both are per (send, recipient)
// pair) or invariant checks (they audit per-slot routing); and no
// timing machinery, which holds deliveries per link, so an
// eventually-synchronous execution is never fast. newEngine decides it
// once, before the Router is built, and countingRep.Start reads it.
func countingFastPath(rep StateRep, cfg *Config, policy TimingPolicy) bool {
	if _, ok := rep.(roundRouter); !ok {
		return false
	}
	return cfg.Adversary == nil && cfg.Visibility == nil && cfg.Faults == nil &&
		!cfg.RecordTraffic && !cfg.FrontierHash && !cfg.Invariants && !policy.Enabled
}

// Err implements repFailer.
func (r *countingRep) Err() error { return r.err }

func (r *countingRep) Start(e *Engine) error {
	r.e = e
	cfg := &e.cfg
	n := e.n

	first := -1
	for s := 0; s < n; s++ {
		if !e.isBad[s] {
			first = s
			break
		}
	}
	if first < 0 {
		return nil // nothing correct to represent
	}

	// Probe the factory for the collapse capability before Init (the
	// probe instance is reused as its class's process).
	p0 := cfg.NewProcess(first)
	if p0 == nil {
		return ErrNilProcessFactory
	}
	_, r.collapse = p0.(Cloner)

	r.fast = e.classRouted

	if r.collapse {
		r.classes = groupClasses(cfg, e.isBad, first)
		for _, c := range r.classes {
			leader := int(c.members[0])
			p := p0
			if leader != first {
				if p = cfg.NewProcess(leader); p == nil {
					return ErrNilProcessFactory
				}
			}
			p.Init(Context{ID: cfg.Assignment[leader], Input: cfg.Inputs[leader], Params: cfg.Params})
			c.proc = p
			for _, m := range c.members {
				e.procs[m] = p
			}
		}
		// A mixed factory (some slots' processes cannot clone) breaks
		// the collapse assumption: degrade the affected classes to
		// per-slot singletons so splitting never needs a missing clone.
		if err := r.splitUncloneable(); err != nil {
			return err
		}
	} else {
		for s := 0; s < n; s++ {
			if e.isBad[s] {
				continue
			}
			p := p0
			if s != first {
				if p = cfg.NewProcess(s); p == nil {
					return ErrNilProcessFactory
				}
			}
			p.Init(Context{ID: cfg.Assignment[s], Input: cfg.Inputs[s], Params: cfg.Params})
			r.classes = append(r.classes, &countClass{
				id: cfg.Assignment[s], proc: p, members: []int32{int32(s)},
			})
			e.procs[s] = p
		}
	}
	if r.maxClasses > 0 && len(r.classes) > r.maxClasses {
		return &DegeneracyError{Round: 0, Classes: len(r.classes), Limit: r.maxClasses}
	}
	if r.fast {
		L := cfg.Params.L
		r.groupCount = make([]int, L+1)
		for _, id := range cfg.Assignment {
			if id.IsValid(L) {
				r.groupCount[id]++
			}
		}
		r.groupIdx = make([][]int32, L)
		r.groupW = make([][]int32, L)
		r.roundIn = make([]*msg.Inbox, L)
		r.caches = make([]*fillCache, L)
	} else {
		r.inboxes = make([]*msg.Inbox, n)
	}
	return nil
}

// groupClasses partitions the correct slots into (identifier, input)
// classes, ascending by leader slot, each member list ascending and
// allocated once at its final size. A slot's class is found in a dense
// table over (identifier, input offset) when the correct inputs span a
// small range — the paper's binary or small finite domains — and in a
// map only for wide spans. A first pass creates the classes and counts
// their members; the second fills the member lists.
func groupClasses(cfg *Config, isBad []bool, first int) []*countClass {
	type classKey struct {
		id hom.Identifier
		in hom.Value
	}
	n := len(cfg.Inputs)
	lo, hi := cfg.Inputs[first], cfg.Inputs[first]
	for s := first; s < n; s++ {
		if !isBad[s] {
			lo, hi = min(lo, cfg.Inputs[s]), max(hi, cfg.Inputs[s])
		}
	}
	var dense []int32 // (identifier-1)*(span+1) + input-lo -> class index + 1; 0 = none yet
	var sparse map[classKey]int32
	span := uint64(hi - lo) // exact even where hi-lo overflows int
	if span < uint64(2*n+256) && (span+1)*uint64(cfg.Params.L) <= uint64(2*n+256) {
		dense = make([]int32, int(span+1)*cfg.Params.L)
	} else {
		sparse = make(map[classKey]int32)
	}
	cell := func(s int) int {
		return int(cfg.Assignment[s]-1)*int(span+1) + int(cfg.Inputs[s]-lo)
	}
	find := func(s int) int32 {
		if dense != nil {
			return dense[cell(s)]
		}
		return sparse[classKey{cfg.Assignment[s], cfg.Inputs[s]}]
	}

	var classes []*countClass
	var sizes []int
	for s := first; s < n; s++ {
		if isBad[s] {
			continue
		}
		ci := find(s)
		if ci == 0 {
			classes = append(classes, &countClass{id: cfg.Assignment[s]})
			sizes = append(sizes, 0)
			ci = int32(len(classes))
			if dense != nil {
				dense[cell(s)] = ci
			} else {
				sparse[classKey{cfg.Assignment[s], cfg.Inputs[s]}] = ci
			}
		}
		sizes[ci-1]++
	}
	for i, c := range classes {
		c.members = make([]int32, 0, sizes[i])
	}
	for s := first; s < n; s++ {
		if !isBad[s] {
			c := classes[find(s)-1]
			c.members = append(c.members, int32(s))
		}
	}
	return classes
}

// splitUncloneable degrades every class whose process lacks Cloner into
// per-slot singleton classes (only reachable with a factory that mixes
// cloneable and uncloneable implementations across slots).
func (r *countingRep) splitUncloneable() error {
	e := r.e
	cfg := &e.cfg
	orig := r.classes
	var rebuilt []*countClass
	changed := false
	for _, c := range orig {
		if _, ok := c.proc.(Cloner); ok || len(c.members) == 1 {
			rebuilt = append(rebuilt, c)
			continue
		}
		changed = true
		for i, m := range c.members {
			p := c.proc
			if i > 0 {
				if p = cfg.NewProcess(int(m)); p == nil {
					return ErrNilProcessFactory
				}
				p.Init(Context{ID: cfg.Assignment[m], Input: cfg.Inputs[m], Params: cfg.Params})
			}
			rebuilt = append(rebuilt, &countClass{id: c.id, proc: p, members: []int32{m}})
			e.procs[m] = p
		}
	}
	if changed {
		r.classes = rebuilt
		r.sortClasses()
	}
	return nil
}

func (r *countingRep) PrepareRound(round int) {
	if r.fast {
		for _, c := range r.classes {
			c.sends = c.proc.Prepare(round)
		}
		return
	}
	e := r.e
	for s := 0; s < e.n; s++ {
		e.SetSends(s, nil)
	}
	if r.err != nil {
		return
	}
	// Split classes whose members diverge on halting before any Prepare:
	// the halted part freezes at the pre-Prepare state, exactly as a
	// concrete halted slot keeps its state while classmates advance.
	r.splitHalted(round)
	if r.err != nil {
		return
	}
	for _, c := range r.classes {
		if c.halted {
			continue
		}
		sends := c.proc.Prepare(round)
		if len(sends) == 0 {
			continue
		}
		// Every member registers the same send slice; the Router stamps
		// each member's copy separately, so stamp order, intern order
		// and the send budget match the concrete representation's.
		for _, m := range c.members {
			e.SetSends(int(m), sends)
		}
	}
}

// splitHalted partitions every class by this round's Halted verdict
// (pure per slot and round) and splits the mixed ones.
func (r *countingRep) splitHalted(round int) {
	e := r.e
	split := false
	orig := len(r.classes)
	for ci := 0; ci < orig; ci++ {
		c := r.classes[ci]
		nHalted := 0
		for _, m := range c.members {
			if e.Halted(int(m), round) {
				nHalted++
			}
		}
		switch nHalted {
		case 0:
			c.halted = false
			continue
		case len(c.members):
			c.halted = true
			continue
		}
		live := make([]int32, 0, len(c.members)-nHalted)
		halted := make([]int32, 0, nHalted)
		for _, m := range c.members {
			if e.Halted(int(m), round) {
				halted = append(halted, m)
			} else {
				live = append(live, m)
			}
		}
		nc := &countClass{id: c.id, proc: r.cloneProc(c.proc), members: halted, halted: true, decided: c.decided}
		for _, m := range nc.members {
			e.procs[m] = nc.proc
		}
		c.members = live
		c.halted = false
		r.classes = append(r.classes, nc)
		split = true
	}
	if split {
		r.sortClasses()
	}
	r.noteClassCount(round)
}

// cloneProc forks one class process. Classes with more than one member
// only exist in collapse mode, where every process passed the Cloner
// probe (splitUncloneable degraded the rest), so the assertion holds.
func (r *countingRep) cloneProc(p Process) Process {
	return p.(Cloner).CloneProcess()
}

func (r *countingRep) sortClasses() {
	sort.Slice(r.classes, func(i, j int) bool {
		return r.classes[i].members[0] < r.classes[j].members[0]
	})
}

func (r *countingRep) noteClassCount(round int) {
	if r.err == nil && r.maxClasses > 0 && len(r.classes) > r.maxClasses {
		r.err = &DegeneracyError{Round: round, Classes: len(r.classes), Limit: r.maxClasses}
	}
}

// RouteRound implements roundRouter: on the fast path the round's sends
// are stamped once per class and multiplied through the class
// multiplicities into the statistics and the send budget, and the
// per-group delivery sequences are collected for weighted reception.
// On the slow path it returns false and the engine routes normally.
func (r *countingRep) RouteRound(round int) bool {
	if !r.fast {
		return false
	}
	rt := r.e.router
	n := r.e.n
	L := r.e.cfg.Params.L
	for gi := range r.groupIdx {
		r.groupIdx[gi] = r.groupIdx[gi][:0]
		r.groupW[gi] = r.groupW[gi][:0]
	}
	for _, c := range r.classes {
		if len(c.sends) == 0 {
			continue
		}
		leader := int(c.members[0])
		mult := len(c.members)
		for _, s := range c.sends {
			si := rt.stamp(leader, s.Body)
			rt.totalStamped += mult - 1 // each member's copy counts against MaxSends
			keyLen := int(rt.sendKeyLen[si])
			switch s.Kind {
			case msg.ToAll:
				rt.stats.MessagesSent += mult * n
				rt.stats.MessagesDelivered += mult * n
				rt.stats.PayloadBytes += keyLen * mult * n
				for gi := range r.groupIdx {
					r.groupIdx[gi] = append(r.groupIdx[gi], si)
					r.groupW[gi] = append(r.groupW[gi], int32(mult))
				}
			case msg.ToIdentifier:
				if !s.To.IsValid(L) {
					continue // matches no slot, exactly like concrete routing
				}
				cnt := r.groupCount[s.To]
				rt.stats.MessagesSent += mult * cnt
				rt.stats.MessagesDelivered += mult * cnt
				rt.stats.PayloadBytes += keyLen * mult * cnt
				gi := int(s.To) - 1
				r.groupIdx[gi] = append(r.groupIdx[gi], si)
				r.groupW[gi] = append(r.groupW[gi], int32(mult))
			}
		}
	}
	return true
}

func (r *countingRep) DeliverRound(round int) {
	if r.fast {
		r.deliverFast(round)
		return
	}
	r.deliverSlow(round)
}

func (r *countingRep) deliverFast(round int) {
	for _, c := range r.classes {
		gi := int(c.id) - 1
		in := r.roundIn[gi]
		if in == nil {
			in = r.fillGroup(gi)
			r.roundIn[gi] = in
		}
		c.proc.Receive(round, in)
		r.pollDecision(c, round)
	}
	for gi := range r.roundIn {
		r.roundIn[gi] = nil // inboxes stay owned by the fill caches
	}
	r.mergeClasses(round)
}

// fillGroup returns the identifier group's weighted inbox for the
// current round, reusing the cached fill when the round's (KeyID,
// multiplicity) sequence matches the cached one exactly.
func (r *countingRep) fillGroup(gi int) *msg.Inbox {
	rt := r.e.router
	idx, w := r.groupIdx[gi], r.groupW[gi]
	fp := msg.NewStateHash().Bool(r.e.cfg.Params.Numerate)
	for i, si := range idx {
		fp = fp.Uint64(uint64(rt.arena.KID(si))).Uint64(uint64(w[i]))
	}
	c := r.caches[gi]
	if c == nil {
		c = &fillCache{}
		r.caches[gi] = c
	}
	if c.in != nil && c.fp == fp && c.matches(rt, idx, w) {
		return c.in
	}
	if c.in != nil {
		c.in.Recycle()
	}
	c.fp = fp
	c.kids = c.kids[:0]
	for _, si := range idx {
		c.kids = append(c.kids, rt.arena.KID(si))
	}
	c.w = append(c.w[:0], w...)
	c.in = msg.NewPooledInboxWeighted(r.e.cfg.Params.Numerate, rt.Arena(), idx, w)
	return c.in
}

// matches confirms a fingerprint hit exactly: same KeyID sequence, same
// multiplicities. KeyIDs are stable for the whole execution (the intern
// table persists across rounds), so equal sequences mean equal inbox
// contents.
func (c *fillCache) matches(rt *Router, idx, w []int32) bool {
	if len(idx) != len(c.kids) || !slices.Equal(w, c.w) {
		return false
	}
	for i, si := range idx {
		if rt.arena.KID(si) != c.kids[i] {
			return false
		}
	}
	return true
}

func (r *countingRep) deliverSlow(round int) {
	e := r.e
	rt := e.router
	// Pass A: draw every correct slot's inbox in ascending slot order
	// (the StateRep contract — shared-reception classes drain their
	// reference counts through these draws).
	for to := 0; to < e.n; to++ {
		if !e.isBad[to] {
			r.inboxes[to] = rt.Inbox(to)
		}
	}
	if r.err != nil {
		r.recycleAll()
		return
	}
	// Pass B: per class, partition the members by their actual reception
	// this round and split where they diverge. Forks are cloned from the
	// pre-Receive state, before any part steps.
	split := false
	orig := len(r.classes)
	for ci := 0; ci < orig; ci++ {
		c := r.classes[ci]
		if c.halted {
			// No step this round: the inboxes are drawn and discarded
			// (crashed recipients lost the round's messages at the
			// router; stalled ones have them held until they wake).
			for _, m := range c.members {
				r.recycleSlot(int(m))
			}
			continue
		}
		if len(c.members) == 1 || r.uniformInbox(c) {
			r.receivePart(c, round)
			continue
		}
		// Fork every part from the pre-Receive state before any
		// part steps.
		parts := r.partition(c)
		forks := len(r.classes)
		for _, part := range parts[1:] {
			nc := &countClass{id: c.id, proc: r.cloneProc(c.proc), members: part, decided: c.decided}
			for _, m := range nc.members {
				e.procs[m] = nc.proc
			}
			r.classes = append(r.classes, nc)
		}
		c.members = parts[0]
		r.receivePart(c, round)
		for _, nc := range r.classes[forks:] {
			r.receivePart(nc, round)
		}
		split = true
	}
	if split {
		r.sortClasses()
	}
	r.noteClassCount(round)
	r.mergeClasses(round)
}

// receivePart steps one class part: one Receive against the part
// leader's inbox (every member's inbox is identical by construction),
// every member's inbox recycled, one decision poll.
func (r *countingRep) receivePart(c *countClass, round int) {
	c.proc.Receive(round, r.inboxes[c.members[0]])
	for _, m := range c.members {
		r.recycleSlot(int(m))
	}
	r.pollDecision(c, round)
}

// pollDecision records the class's decision for every member on its
// first decided poll, and marks the class so it is polled no more.
func (r *countingRep) pollDecision(c *countClass, round int) {
	if c.decided {
		return
	}
	if v, ok := c.proc.Decision(); ok {
		for _, m := range c.members {
			r.e.RecordDecision(int(m), v, true, round)
		}
		c.decided = true
	}
}

// uniformInbox reports whether every member of the class received the
// same inbox this round.
func (r *countingRep) uniformInbox(c *countClass) bool {
	lead := int(c.members[0])
	for _, m := range c.members[1:] {
		if !r.sameInbox(lead, int(m)) {
			return false
		}
	}
	return true
}

// sameInbox reports whether two correct slots' inboxes are identical
// this round: members of one shared-reception class trivially are;
// otherwise the delivered index batches are compared directly. The
// comparison may over-split (two own-fill batches with different arena
// indices but equal messages), which re-unification repairs.
func (r *countingRep) sameInbox(a, b int) bool {
	rt := r.e.router
	sa, sb := rt.SharedWith(a), rt.SharedWith(b)
	if sa >= 0 || sb >= 0 {
		return sa == sb
	}
	return slices.Equal(rt.rawIdx[a], rt.rawIdx[b])
}

// partition groups a class's members by this round's reception, leaders
// first-seen order (ascending, since members are ascending).
func (r *countingRep) partition(c *countClass) [][]int32 {
	parts := [][]int32{{c.members[0]}}
	leaders := []int{int(c.members[0])}
	for _, m := range c.members[1:] {
		placed := false
		for i, ld := range leaders {
			if r.sameInbox(ld, int(m)) {
				parts[i] = append(parts[i], m)
				placed = true
				break
			}
		}
		if !placed {
			parts = append(parts, []int32{m})
			leaders = append(leaders, int(m))
		}
	}
	return parts
}

// mergeClasses re-unifies classes of one identifier group whose states
// re-converged, detected by the protocol's StateFingerprint (classes of
// protocols without StateHasher never merge). The surviving class is
// the one with the smallest leader; the merged-in process is released.
func (r *countingRep) mergeClasses(round int) {
	if !r.collapse || len(r.classes) < 2 {
		return
	}
	type mergeKey struct {
		id hom.Identifier
		fp msg.StateHash
	}
	var seen map[mergeKey]*countClass
	var extended []*countClass
	out := r.classes[:0]
	for _, c := range r.classes {
		h, ok := c.proc.(StateHasher)
		if !ok {
			out = append(out, c)
			continue
		}
		if seen == nil {
			seen = make(map[mergeKey]*countClass)
		}
		k := mergeKey{c.id, h.StateFingerprint()}
		if prev, dup := seen[k]; dup {
			prev.members = append(prev.members, c.members...)
			prev.decided = prev.decided && c.decided
			for _, m := range c.members {
				r.e.procs[m] = prev.proc
			}
			if rel, relOK := c.proc.(Releaser); relOK {
				rel.Release()
			}
			extended = append(extended, prev)
			continue
		}
		seen[k] = c
		out = append(out, c)
	}
	r.classes = out
	for _, c := range extended {
		slices.Sort(c.members)
	}
	_ = round
}

func (r *countingRep) recycleSlot(s int) {
	if in := r.inboxes[s]; in != nil {
		in.Recycle()
		r.inboxes[s] = nil
	}
}

func (r *countingRep) recycleAll() {
	for s := range r.inboxes {
		r.recycleSlot(s)
	}
}

func (r *countingRep) Stop() {
	if r.e == nil {
		return
	}
	for _, c := range r.classes {
		if rel, ok := c.proc.(Releaser); ok {
			rel.Release()
		}
	}
	for _, fc := range r.caches {
		if fc != nil && fc.in != nil {
			fc.in.Recycle()
			fc.in = nil
		}
	}
	r.recycleAll()
}

// ClassCount reports the live equivalence-class count (tests and
// diagnostics; concrete representations would report n).
func (r *countingRep) ClassCount() int { return len(r.classes) }
