package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"homonyms/internal/adversary"
	"homonyms/internal/core"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/trace"
)

// protocolOf names the registry protocol behind a façade algorithm.
func protocolOf(a core.AlgorithmID) string {
	switch a {
	case core.AlgSyncTransformEIG:
		return "synchom"
	case core.AlgPsyncHomonym:
		return "psynchom"
	case core.AlgNumerate:
		return "psyncnum"
	}
	return "other"
}

// coreOptions repeats core.Run's option assembly for cfg, leaving out
// the seams (process factory, adversary, state representation), which
// the caller supplies.
func coreOptions(cfg core.Config, sel *core.Selection) []engine.Option {
	gst := cfg.GST
	if gst < 1 {
		gst = 1
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = sel.SuggestedRounds(gst)
	}
	assignment := cfg.Assignment
	if assignment == nil {
		assignment = hom.RoundRobinAssignment(cfg.Params.N, cfg.Params.L)
	}
	return []engine.Option{
		engine.WithParams(cfg.Params),
		engine.WithAssignment(assignment),
		engine.WithInputs(cfg.Inputs...),
		engine.WithGST(gst),
		engine.WithRounds(maxRounds),
	}
}

// tracedCore is core.Run with every layer traced: selection, engine
// construction, the run and the verdict check each get a span under
// one execution span. rep nil selects the (traced) Concrete
// representation; a counting rep is passed in so the caller can read
// its class count afterwards.
func tracedCore(tr *tracer, nm *spanNames, c *layerCounts, cfg core.Config, rep engine.StateRep) (*engine.Result, trace.Verdict, error) {
	ex := tr.beginExec(nm.exec)
	res, v, err := tracedCoreBody(tr, nm, c, cfg, rep)
	tr.end(ex)
	c.tracedNs += tr.spans[ex].end - tr.spans[ex].start
	return res, v, err
}

func tracedCoreBody(tr *tracer, nm *spanNames, c *layerCounts, cfg core.Config, rep engine.StateRep) (*engine.Result, trace.Verdict, error) {
	sp := tr.begin(nm.sel)
	sel, err := core.Select(cfg.Params)
	tr.end(sp)
	if err != nil {
		return nil, trace.Verdict{}, err
	}
	_, res, err := tracedEngine(tr, nm, c, engineSeams{
		base:     coreOptions(cfg, sel),
		factory:  sel.NewProcess,
		protocol: protocolOf(sel.Algorithm),
		adv:      cfg.Adversary,
		rep:      rep,
	})
	if err != nil {
		return nil, trace.Verdict{}, err
	}
	sp = tr.begin(nm.check)
	v := trace.Check(res)
	tr.end(sp)
	return res, v, nil
}

// agreeShape is one of the three Table-1 algorithms in the agree mix.
type agreeShape struct {
	name    string
	p       hom.Params
	gst     int
	perPass int // executions per pass, sized so each shape takes about a third of a pass
}

var agreeShapes = []agreeShape{
	{"fig3", hom.Params{N: 16, L: 7, T: 2, Synchrony: hom.Synchronous}, 1, 24},
	{"fig5", hom.Params{N: 11, L: 8, T: 1, Synchrony: hom.PartiallySynchronous}, 6, 1},
	{"fig7", hom.Params{N: 16, L: 3, T: 2, Synchrony: hom.PartiallySynchronous,
		Numerate: true, RestrictedByzantine: true}, 6, 2},
}

// agreeConfig builds execution j of pass k: seeded inputs and a seeded
// adversary that corrupts t random slots, equivocates and drops 30% of
// the messages before GST. Calling it twice gives two equal, independent
// configurations.
func agreeConfig(seed int64, k, j int) core.Config {
	idx := 0
	shape := agreeShapes[0]
	for _, s := range agreeShapes {
		if j < idx+s.perPass {
			shape = s
			break
		}
		idx += s.perPass
	}
	rng := rand.New(rand.NewSource(splitmix(seed, k*1024+j)))
	inputs := make([]hom.Value, shape.p.N)
	for i := range inputs {
		inputs[i] = hom.Value(rng.Intn(2))
	}
	return core.Config{
		Params: shape.p,
		Inputs: inputs,
		GST:    shape.gst,
		Adversary: &adversary.Composite{
			Selector: adversary.RandomT{Seed: rng.Int63()},
			Behavior: adversary.Equivocate{Seed: rng.Int63()},
			Drops:    adversary.RandomDrops{Seed: rng.Int63(), Prob: 0.3},
		},
	}
}

func agreePerPass() int {
	n := 0
	for _, s := range agreeShapes {
		n += s.perPass
	}
	return n
}

// runAgree measures a closed loop of core.Run executions on one
// goroutine. A pass is one mix of the three algorithms.
func runAgree(cfg *runConfig, traced bool) (*result, error) {
	perPass := agreePerPass()
	// Set-up: build inputs and run one execution of each algorithm. The
	// three configurations are the same in every repetition and every
	// run, whatever the seed: a Fig. 5 execution's cost depends on its
	// adversary seed, and set-up time should not.
	setup, err := measureSetup(func() error {
		idx := 0
		for _, s := range agreeShapes {
			c := agreeConfig(0, -1, idx)
			idx += s.perPass
			if _, err := core.Run(c); err != nil {
				return fmt.Errorf("agree set-up: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if traced {
		return agreeTraced(cfg, perPass)
	}

	res := &result{}
	var passes []pass
	var lat []float64
	sent, payload, decided := 0, 0, 0
	start := startClean()
	for k := 0; !timeUp(start, cfg.seconds); k++ {
		cfgs := make([]core.Config, perPass)
		for j := range cfgs {
			cfgs[j] = agreeConfig(cfg.seed, k, j)
		}
		pt := startPass()
		for _, c := range cfgs {
			t0 := time.Now()
			out, err := core.Run(c)
			lat = append(lat, float64(time.Since(t0))/1e6)
			res.Attempted++
			if err != nil || !out.Verdict.OK() {
				res.Failed++
				continue
			}
			sent += out.Sim.Stats.MessagesSent
			payload += out.Sim.Stats.PayloadBytes
			decided += decidingCorrect(out.Sim)
		}
		passes = append(passes, pt.stop(perPass))
	}
	res.Metrics = endToEnd(setup, passes)
	cfg.logf("exec_ms_p50 %.4f ms (n=%d)", quantile(lat, 0.5), len(lat))
	cfg.logf("exec_ms_p99 %.4f ms (n=%d)", quantile(lat, 0.99), len(lat))
	if decided > 0 {
		cfg.logf("msgs_per_decision %.4f count", float64(sent)/float64(decided))
		cfg.logf("bytes_per_decision %.4f B", float64(payload)/float64(decided))
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// agreeTraced runs every execution twice, untraced (core.Run) and
// traced, and requires the two to agree exactly.
func agreeTraced(cfg *runConfig, perPass int) (*result, error) {
	tr := newTracer()
	nm := newSpanNames(tr)
	counts := &layerCounts{}
	res := &result{}
	start := startClean()
	for k := 0; !timeUp(start, cfg.seconds); k++ {
		for j := 0; j < perPass; j++ {
			res.Attempted++
			t0 := time.Now()
			twin, err := core.Run(agreeConfig(cfg.seed, k, j))
			counts.twinNs += int64(time.Since(t0))
			if err != nil {
				res.Failed++
				continue
			}
			got, v, err := tracedCore(tr, nm, counts, agreeConfig(cfg.seed, k, j), nil)
			if err != nil || !v.OK() || sameExecution(got, twin.Sim) != nil || v.String() != twin.Verdict.String() {
				res.Failed++
			}
		}
	}
	return finishTraced(cfg, tr, counts, res, false)
}

// finishTraced writes the spans and computes the per-layer metrics.
func finishTraced(cfg *runConfig, tr *tracer, counts *layerCounts, res *result, counting bool) (*result, error) {
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.tsv.gz", cfg.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	cfg.logf("spans: %d written to %s", len(tr.spans), path)
	res.Metrics = perLayer(tr, counts, counting)
	res.Correct = res.Failed == 0
	return res, nil
}

// runCounting measures core.Run under the counting representation at
// n = 10^6 on one goroutine. A pass is one execution.
func runCounting(cfg *runConfig, traced bool) (*result, error) {
	p := hom.Params{N: 1_000_000, L: 7, T: 2, Synchrony: hom.Synchronous}
	// Set-up: seeded per-group inputs, the assignment and the engine
	// construction for one execution.
	var c core.Config
	setup, err := measureSetup(func() error {
		c = countingConfig(p, cfg.seed)
		sel, err := core.Select(p)
		if err != nil {
			return err
		}
		if _, err := engine.New(append(coreOptions(c, sel), engine.WithProcess(sel.NewProcess), engine.WithStateRep(engine.Counting()))...); err != nil {
			return fmt.Errorf("counting set-up: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// core.Run fails with a *engine.DegeneracyError if the class count
	// exceeds 2l in any round; agreement and termination are checked on
	// the result.
	c.StateRep, c.MaxClasses = "counting", 2*p.L
	ok := func(out *core.Result) bool {
		return out.Verdict.OK() && out.Decided && out.Sim.AllDecided
	}
	res := &result{}
	if traced {
		tr := newTracer()
		nm := newSpanNames(tr)
		counts := &layerCounts{}
		start := startClean()
		for !timeUp(start, cfg.seconds) {
			res.Attempted++
			t0 := time.Now()
			twin, err := core.Run(c)
			counts.twinNs += int64(time.Since(t0))
			if err != nil || !ok(twin) {
				res.Failed++
				continue
			}
			rep := engine.CountingLimited(c.MaxClasses)
			got, v, err := tracedCore(tr, nm, counts, c, rep)
			if err != nil || v.String() != twin.Verdict.String() || sameExecution(got, twin.Sim) != nil {
				res.Failed++
				continue
			}
			counts.classes = append(counts.classes, float64(rep.(interface{ ClassCount() int }).ClassCount()))
		}
		return finishTraced(cfg, tr, counts, res, true)
	}

	var passes []pass
	var lat []float64
	sent, payload, decided := 0, 0, 0
	start := startClean()
	for !timeUp(start, cfg.seconds) {
		pt := startPass()
		out, err := core.Run(c)
		ps := pt.stop(1)
		passes = append(passes, ps)
		lat = append(lat, float64(ps.wall)/1e6)
		res.Attempted++
		if err != nil || !ok(out) {
			res.Failed++
			continue
		}
		sent += out.Sim.Stats.MessagesSent
		payload += out.Sim.Stats.PayloadBytes
		decided += decidingCorrect(out.Sim)
	}
	res.Metrics = endToEnd(setup, passes)
	cfg.logf("exec_ms_p50 %.4f ms (n=%d)", quantile(lat, 0.5), len(lat))
	if decided > 0 {
		cfg.logf("msgs_per_decision %.4f count", float64(sent)/float64(decided))
		cfg.logf("bytes_per_decision %.4f B", float64(payload)/float64(decided))
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// countingConfig gives every identifier group one seeded input, so the
// correct processes collapse into few classes.
func countingConfig(p hom.Params, seed int64) core.Config {
	rng := rand.New(rand.NewSource(seed))
	groupInput := make([]hom.Value, p.L+1)
	for i := range groupInput {
		groupInput[i] = hom.Value(rng.Intn(2))
	}
	a := hom.RoundRobinAssignment(p.N, p.L)
	inputs := make([]hom.Value, p.N)
	for s := range inputs {
		inputs[s] = groupInput[a[s]]
	}
	return core.Config{Params: p, Assignment: a, Inputs: inputs}
}
