package main

import (
	"fmt"
	"reflect"
	"time"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// algorithms whose processes get their own prepare/receive spans; any
// other protocol's spans go under "other".
var algorithms = []string{"synchom", "psynchom", "psyncnum"}

// spanNames interns every span name of a traced run once.
type spanNames struct {
	exec, sel, newE, run, check  uint16
	round, prepare, deliver      uint16
	adv                          advNames
	alg                          map[string]procNames
	generate, scenario, chaosify uint16
	cell                         map[string]uint16
}

func newSpanNames(tr *tracer) *spanNames {
	n := &spanNames{
		exec: tr.id("exec"), sel: tr.id("core.select"), newE: tr.id("engine.new"),
		run: tr.id("engine.run"), check: tr.id("trace.check"),
		round: tr.id("engine.round"), prepare: tr.id("engine.prepare"), deliver: tr.id("engine.deliver"),
		adv:      advNames{sends: tr.id("adversary.sends"), drop: tr.id("adversary.drop")},
		alg:      map[string]procNames{},
		generate: tr.id("fuzz.generate"), scenario: tr.id("fuzz.scenario"), chaosify: tr.id("chaos.chaosify"),
		cell: map[string]uint16{},
	}
	for _, a := range append(append([]string(nil), algorithms...), "other") {
		n.alg[a] = procNames{prepare: tr.id(a + ".prepare"), receive: tr.id(a + ".receive")}
	}
	for _, c := range exploreCells() {
		n.cell[c.name] = tr.id("explore.cell_" + c.name)
	}
	return n
}

func (n *spanNames) procNames(protocol string) procNames {
	if p, ok := n.alg[protocol]; ok {
		return p
	}
	return n.alg["other"]
}

// layerCounts accumulates the counts the traced executions report.
type layerCounts struct {
	execs      int
	rounds     int
	stats      engine.Stats
	decisions  int // deciding correct slots
	dropCalls  int
	interned   int
	classes    []float64
	twinNs     int64 // untraced twin time
	tracedNs   int64 // traced execution time
	busyNs     int64 // summed item time of a parallel phase
	capacityNs int64 // workers x wall of that phase
	cells      map[string][]float64
	explore    struct{ executions, states, merged int }
	sweeps     int
}

// addResult folds one traced execution's result into the counts.
func (c *layerCounts) addResult(res *engine.Result) {
	c.execs++
	c.rounds += res.Rounds
	s := res.Stats
	c.stats.MessagesSent += s.MessagesSent
	c.stats.MessagesDelivered += s.MessagesDelivered
	c.stats.MessagesDropped += s.MessagesDropped
	c.stats.PayloadBytes += s.PayloadBytes
	c.stats.FaultOmissions += s.FaultOmissions
	c.stats.TimingHolds += s.TimingHolds
	c.stats.Retransmits += s.Retransmits
	c.decisions += decidingCorrect(res)
}

// decidingCorrect counts the correct slots that decided.
func decidingCorrect(res *engine.Result) int {
	n := 0
	for s, at := range res.DecidedAt {
		if at > 0 && !res.IsCorrupted(s) {
			n++
		}
	}
	return n
}

// engineSeams is one execution's seams before tracing: what gets
// wrapped. The remaining options go in base.
type engineSeams struct {
	base     []engine.Option
	factory  func(slot int) engine.Process
	protocol string
	adv      engine.Adversary // nil for none
	tm       engine.TimeModel // nil for Lockstep
	rep      engine.StateRep  // nil for Concrete
}

// tracedEngine assembles the execution with every seam wrapped, times
// engine.New and Run as spans, and records the layer counts. Processes
// are wrapped only under the sequential Concrete representation: the
// tracer is single-goroutine, and Counting must stay unwrapped.
func tracedEngine(tr *tracer, nm *spanNames, c *layerCounts, s engineSeams) (*engine.Engine, *engine.Result, error) {
	opts := append([]engine.Option(nil), s.base...)
	factory := s.factory
	if s.rep == nil {
		opts = append(opts, engine.WithStateRep(tracedRep{inner: engine.Concrete(), tr: tr, prepare: nm.prepare, deliver: nm.deliver}))
		factory = wrapFactory(factory, tr, nm.procNames(s.protocol))
	} else {
		opts = append(opts, engine.WithStateRep(s.rep))
	}
	opts = append(opts, engine.WithProcess(factory))
	if s.adv != nil {
		opts = append(opts, engine.WithAdversary(wrapAdversary(s.adv, tr, nm.adv, &c.dropCalls)))
	}
	tm := s.tm
	if tm == nil {
		tm = engine.Lockstep{}
	}
	if wtm, ok := wrapTimeModel(tm, tr, nm.round); ok {
		opts = append(opts, engine.WithTimeModel(wtm))
	} else {
		opts = append(opts, engine.WithTimeModel(tm))
	}
	it := msg.NewInterner()
	opts = append(opts, engine.WithInterner(it))

	sp := tr.begin(nm.newE)
	e, err := engine.New(opts...)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin(nm.run)
	res, err := e.Run()
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	c.addResult(res)
	c.interned += it.Len()
	return e, res, nil
}

// execSummary is what a traced execution must reproduce exactly.
type execSummary struct {
	Rounds    int
	Decisions []hom.Value
	DecidedAt []int
	Stats     engine.Stats
	Stopped   engine.StopReason
	Corrupted []int
}

func summarize(res *engine.Result) execSummary {
	return execSummary{res.Rounds, res.Decisions, res.DecidedAt, res.Stats, res.Stopped, res.Corrupted}
}

// sameExecution reports how a traced result differs from its twin.
func sameExecution(traced, twin *engine.Result) error {
	a, b := summarize(traced), summarize(twin)
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("traced execution differs from its untraced twin: rounds %d/%d stats %+v / %+v",
			a.Rounds, b.Rounds, a.Stats, b.Stats)
	}
	return nil
}

// perLayer computes every per-layer metric from the spans and counts.
// A layer the workload does not exercise reports 0; counting says
// whether the rounds were those of the counting representation.
func perLayer(tr *tracer, c *layerCounts, counting bool) map[string]metric {
	agg := tr.aggregate()
	get := func(name string) *layerStats {
		if ls, ok := agg[name]; ok {
			return ls
		}
		return &layerStats{}
	}
	execTotal := float64(get("exec").total)
	share := func(ns int64) float64 {
		if execTotal == 0 {
			return 0
		}
		return float64(ns) / execTotal
	}
	perExec := func(v int) float64 {
		if c.execs == 0 {
			return 0
		}
		return float64(v) / float64(c.execs)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]metric{
		"engine.new_us":                   {durQuantile(get("engine.new").durs, 0.5, time.Microsecond), "us"},
		"engine.round_us_p50":             {durQuantile(get("engine.round").durs, 0.5, time.Microsecond), "us"},
		"engine.round_us_p99":             {durQuantile(get("engine.round").durs, 0.99, time.Microsecond), "us"},
		"engine.prepare_share":            {share(get("engine.prepare").total), "ratio"},
		"engine.deliver_share":            {share(get("engine.deliver").total), "ratio"},
		"engine.route_share":              {share(get("engine.round").self), "ratio"},
		"engine.fill_share":               {share(get("engine.deliver").self), "ratio"},
		"engine.rounds_per_exec":          {perExec(c.rounds), "count"},
		"engine.delivered_ratio":          {ratio(float64(c.stats.MessagesDelivered), float64(c.stats.MessagesSent)), "ratio"},
		"engine.timing_holds_per_exec":    {perExec(c.stats.TimingHolds), "count"},
		"engine.retransmits_per_exec":     {perExec(c.stats.Retransmits), "count"},
		"engine.fault_omissions_per_exec": {perExec(c.stats.FaultOmissions), "count"},
		"adversary.sends_share":           {share(get("adversary.sends").total), "ratio"},
		"adversary.drop_share":            {share(get("adversary.drop").total), "ratio"},
		"adversary.drop_calls_per_exec":   {perExec(c.dropCalls), "count"},
		"msg.interned_keys_per_exec":      {perExec(c.interned), "count"},
		"counting.classes_final":          {median(c.classes), "count"},
		"core.select_us":                  {durQuantile(get("core.select").durs, 0.5, time.Microsecond), "us"},
		"trace.check_us":                  {durQuantile(get("trace.check").durs, 0.5, time.Microsecond), "us"},
		"core.msgs_per_decision":          {ratio(float64(c.stats.MessagesSent), float64(c.decisions)), "count"},
		"core.bytes_per_decision":         {ratio(float64(c.stats.PayloadBytes), float64(c.decisions)), "B"},
		"exec.parallel_efficiency":        {ratio(float64(c.busyNs), float64(c.capacityNs)), "ratio"},
		"exec.idle_s":                     {float64(c.capacityNs-c.busyNs) / 1e9, "s"},
		"fuzz.generate_us":                {durQuantile(get("fuzz.generate").durs, 0.5, time.Microsecond), "us"},
		"fuzz.scenario_ms_p50":            {durQuantile(get("fuzz.scenario").durs, 0.5, time.Millisecond), "ms"},
		"fuzz.scenario_ms_p99":            {durQuantile(get("fuzz.scenario").durs, 0.99, time.Millisecond), "ms"},
		"chaos.chaosify_us":               {durQuantile(get("chaos.chaosify").durs, 0.5, time.Microsecond), "us"},
		"explore.executions":              {ratio(float64(c.explore.executions), float64(c.sweeps)), "count"},
		"explore.states":                  {ratio(float64(c.explore.states), float64(c.sweeps)), "count"},
		"explore.merge_ratio":             {ratio(float64(c.explore.merged), float64(c.explore.states+c.explore.merged)), "ratio"},
		"trace.overhead_ratio":            {ratio(float64(c.tracedNs-c.twinNs), float64(c.twinNs)), "ratio"},
	}
	for _, a := range algorithms {
		m[a+".prepare_share"] = metric{share(get(a + ".prepare").total), "ratio"}
		m[a+".receive_share"] = metric{share(get(a + ".receive").total), "ratio"}
	}
	for _, cell := range exploreCells() {
		m["explore.cell_"+cell.name+"_s"] = metric{median(c.cells[cell.name]), "s"}
	}
	m["counting.round_us_p50"] = metric{0, "us"}
	if counting {
		m["counting.round_us_p50"] = m["engine.round_us_p50"]
	}
	return m
}
