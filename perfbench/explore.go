package main

import (
	"fmt"
	"math/rand"
	"time"

	"homonyms/internal/attacks"
	"homonyms/internal/engine"
	"homonyms/internal/explore"
	"homonyms/internal/fuzz"
	"homonyms/internal/hom"
	"homonyms/internal/psyncnum"
)

// cell is one of cmd/explore's seven quick boundary cells with the
// verdict it must produce.
type cell struct {
	name     string
	protocol string
	p        hom.Params
	opts     explore.Options
	expect   string // "verified", "counterex" or "mirror"
}

func exploreCells() []cell {
	sync := hom.Synchronous
	psync := hom.PartiallySynchronous
	return []cell{
		{"A", "synchom", hom.Params{N: 4, L: 4, T: 1, Synchrony: sync}, explore.Options{ChoiceRounds: 2}, "verified"},
		{"B", "synchom", hom.Params{N: 4, L: 3, T: 1, Synchrony: sync}, explore.Options{ChoiceRounds: 2}, "counterex"},
		{"C", "synchom", hom.Params{N: 3, L: 3, T: 1, Synchrony: sync}, explore.Options{ChoiceRounds: 2}, "counterex"},
		{"D", "psynchom", hom.Params{N: 2, L: 2, T: 0, Synchrony: psync}, explore.Options{ChoiceRounds: 2, GSTs: []int{1, 2, 3}}, "verified"},
		{"E", "psynchom", hom.Params{N: 2, L: 1, T: 0, Synchrony: psync}, explore.Options{ChoiceRounds: 2, GSTs: []int{3, 5, 7}}, "counterex"},
		{"F", "psyncnum", hom.Params{N: 4, L: 2, T: 1, Synchrony: psync, Numerate: true, RestrictedByzantine: true},
			explore.Options{ChoiceRounds: 1, GSTs: []int{1}}, "verified"},
		{"G", "psyncnum", hom.Params{N: 5, L: 1, T: 1, Synchrony: psync, Numerate: true, RestrictedByzantine: true},
			explore.Options{ChoiceRounds: 1, GSTs: []int{5, 7}}, "mirror"},
	}
}

// judge checks a cell's report against its expected verdict, as
// cmd/explore does.
func judge(c cell, rep *explore.Report) error {
	if rep.Outcome != nil && rep.Outcome.Class == fuzz.ClassViolation {
		return fmt.Errorf("cell %s: real violation", c.name)
	}
	switch c.expect {
	case "verified":
		if !rep.Verified {
			return fmt.Errorf("cell %s: not verified", c.name)
		}
	case "counterex":
		if rep.Counterexample == nil {
			return fmt.Errorf("cell %s: no counterexample", c.name)
		}
	case "mirror":
		if rep.Counterexample != nil {
			return nil
		}
		if rep.Truncated {
			return fmt.Errorf("cell %s: truncated", c.name)
		}
		return mirrorWitness(c.p)
	}
	return nil
}

// mirrorWitness runs cmd/explore's Lemma-17 experiment for an l <= t
// cell.
func mirrorWitness(p hom.Params) error {
	baseInputs := make([]hom.Value, p.N)
	for i := p.N / 2; i < p.N; i++ {
		baseInputs[i] = 1
	}
	flipped := p.L
	if flipped >= p.N {
		flipped = p.N - 1
	}
	rep, err := attacks.Mirror(p, psyncnum.NewUnchecked(p), hom.RoundRobinAssignment(p.N, p.L), baseInputs, flipped, 0, 1,
		psyncnum.SuggestedMaxRounds(p, 1))
	if err != nil {
		return err
	}
	if !rep.Indistinguishable {
		return fmt.Errorf("mirror experiment failed: %s", rep.Detail)
	}
	return nil
}

// sweepOrder is the seeded order the cells of pass k run in.
func sweepOrder(seed int64, k int) []cell {
	cells := exploreCells()
	rng := rand.New(rand.NewSource(splitmix(seed, k)))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// checkCell runs one cell on every worker.
func checkCell(c cell, workers int) (*explore.Report, error) {
	opts := c.opts
	opts.Workers = workers
	return explore.CheckCell(c.protocol, c.p, opts)
}

// runExplore measures a closed loop of sweeps over the seven cells. A
// pass is one sweep; its executions are the engine runs the searches
// report.
func runExplore(cfg *runConfig, traced bool) (*result, error) {
	// Set-up: the cell table and one search of each small cell (C to F).
	setup, err := measureSetup(func() error {
		for _, c := range exploreCells()[2:6] {
			rep, err := checkCell(c, cfg.workers)
			if err != nil {
				return err
			}
			if err := judge(c, rep); err != nil {
				return fmt.Errorf("explore set-up: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &result{}
	var tr *tracer
	var nm *spanNames
	counts := &layerCounts{cells: map[string][]float64{}}
	if traced {
		tr = newTracer()
		nm = newSpanNames(tr)
	}
	var passes []pass
	start := startClean()
	for k := 0; !timeUp(start, cfg.seconds); k++ {
		pt := startPass()
		execs := 0
		for _, c := range sweepOrder(cfg.seed, k) {
			res.Attempted++
			var rep *explore.Report
			var err error
			twinDigest := ""
			if traced {
				rep, twinDigest, err = tracedCell(tr, nm, counts, c, cfg.workers)
			} else {
				rep, err = checkCell(c, cfg.workers)
			}
			if err != nil {
				return nil, err
			}
			if traced && rep.Digest != twinDigest {
				res.Failed++
				cfg.logf("cell %s: traced digest %s, untraced %s", c.name, rep.Digest, twinDigest)
			} else if err := judge(c, rep); err != nil {
				res.Failed++
				cfg.logf("%v", err)
			}
			execs += rep.Executions
		}
		passes = append(passes, pt.stop(execs))
		counts.sweeps++
	}
	if traced {
		return finishTraced(cfg, tr, counts, res, false)
	}
	res.Metrics = endToEnd(setup, passes)
	res.Correct = res.Failed == 0
	return res, nil
}

// tracedCell runs a cell under a span and again untraced as its twin;
// the two searches must have the same digest, which it returns too.
func tracedCell(tr *tracer, nm *spanNames, c *layerCounts, cl cell, workers int) (*explore.Report, string, error) {
	t0 := time.Now()
	twin, err := checkCell(cl, workers)
	if err != nil {
		return nil, "", err
	}
	c.twinNs += int64(time.Since(t0))
	ex := tr.beginExec(nm.cell[cl.name])
	rep, err := checkCell(cl, workers)
	tr.end(ex)
	if err != nil {
		return nil, "", err
	}
	d := tr.spans[ex].end - tr.spans[ex].start
	c.tracedNs += d
	c.cells[cl.name] = append(c.cells[cl.name], float64(d)/1e9)
	c.explore.executions += rep.Executions
	c.explore.states += rep.States
	c.explore.merged += rep.Merged
	if err := probeEngineNew(tr, nm, cl); err != nil {
		return nil, "", err
	}
	return rep, twin.Digest, nil
}

// newProbes is how many engines probeEngineNew builds per traced cell.
const newProbes = 64

// probeEngineNew times engine.New for the cell's shape. CheckCell
// builds its engines internally, out of this benchmark's reach, so the
// probe builds the search's root execution (no corrupt slot, the first
// GST, the choice window as round budget, frontier hashing on) the way
// the search's scenarios do.
func probeEngineNew(tr *tracer, nm *spanNames, cl cell) error {
	gst := 1
	if len(cl.opts.GSTs) > 0 {
		gst = cl.opts.GSTs[0]
	}
	sc := fuzz.Scenario{
		Protocol: cl.protocol, N: cl.p.N, L: cl.p.L, T: cl.p.T,
		Psync:      cl.p.Synchrony == hom.PartiallySynchronous,
		Numerate:   cl.p.Numerate,
		Restricted: cl.p.RestrictedByzantine,
		Assignment: "roundrobin",
		Inputs:     make([]int, cl.p.N),
		GST:        gst,
		MaxRounds:  cl.opts.ChoiceRounds,
		Selector:   fuzz.SelectorSpec{Kind: "none"},
		Behavior:   fuzz.BehaviorSpec{Kind: "silent"},
		Drops:      fuzz.DropSpec{Kind: "none"},
	}
	for i := 0; i < newProbes; i++ {
		opts, err := sc.Options()
		if err != nil {
			return fmt.Errorf("cell %s probe: %w", cl.name, err)
		}
		sp := tr.begin(nm.newE)
		_, err = engine.New(append(opts, engine.WithFrontierHash())...)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("cell %s probe: %w", cl.name, err)
		}
	}
	return nil
}
