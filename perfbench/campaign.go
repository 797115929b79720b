package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"homonyms/internal/chaos"
	"homonyms/internal/engine"
	"homonyms/internal/fuzz"
	"homonyms/internal/protoreg"
)

// One campaign pass: a fuzz campaign followed by a chaos soak, both
// with cmd/fuzz's and cmd/chaos's default seed and generator options.
// Every pass runs the same scenarios: their cost is heavy-tailed (p50
// about 1.6 ms, p99 about 210 ms, the slowest seconds), so passes drawn
// from fresh seeds would differ more than any change worth detecting.
const (
	campaignSeed int64 = 1
	fuzzPerPass        = 48
	chaosPerPass       = 24
)

var campaignGen = fuzz.GenOptions{MaxN: 10}

// corpusDir holds the committed fuzz seeds, relative to the checkout
// root the benchmark runs from.
var corpusDir = "internal/fuzz/testdata"

// failures counts the outcomes that fail a campaign: real violations,
// panics and harness errors.
func failures(byClass map[fuzz.Class]int) int {
	return byClass[fuzz.ClassViolation] + byClass[fuzz.ClassPanic] + byClass[fuzz.ClassError]
}

// runCampaign measures a closed loop of fuzz campaigns and chaos soaks,
// each fanned out over one exec worker per CPU. A pass is one campaign
// plus one soak.
func runCampaign(cfg *runConfig, traced bool) (*result, error) {
	// Set-up: replay the committed seed corpus, the pre-flight
	// cmd/fuzz -replay gives, and generate one pass's scenarios.
	setup, err := measureSetup(func() error {
		replayed, errs := fuzz.ReplayDirOpts(corpusDir, fuzz.Options{Invariants: true})
		if replayed == 0 || len(errs) > 0 {
			return fmt.Errorf("campaign set-up: replayed %d corpus seeds, errors %v", replayed, errs)
		}
		for j := 0; j < fuzzPerPass; j++ {
			fuzzScenario(j)
		}
		for j := 0; j < chaosPerPass; j++ {
			chaosScenario(j, nil, nil)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if traced {
		return campaignTraced(cfg)
	}
	res := &result{}
	var passes []pass
	start := startClean()
	for !timeUp(start, cfg.seconds) {
		pt := startPass()
		frep, crep, err := campaignPass(cfg.workers)
		if err != nil {
			return nil, err
		}
		passes = append(passes, pt.stop(fuzzPerPass+chaosPerPass))
		res.Attempted += fuzzPerPass + chaosPerPass
		res.Failed += failures(frep.ByClass) + failures(crep.ByClass)
	}
	res.Metrics = endToEnd(setup, passes)
	res.Correct = res.Failed == 0
	return res, nil
}

// campaignPass runs one pass: the fuzz campaign, then the chaos soak.
func campaignPass(workers int) (*fuzz.Report, *chaos.Report, error) {
	frep, err := fuzz.Campaign(fuzz.Config{Seed: campaignSeed, Count: fuzzPerPass, Workers: workers, Gen: campaignGen})
	if err != nil {
		return nil, nil, err
	}
	crep, err := chaos.Soak(chaos.Config{Seed: campaignSeed, Count: chaosPerPass, Workers: workers, Gen: campaignGen, Invariants: true})
	return frep, crep, err
}

// fuzzScenario is fuzz.Campaign's scenario i.
func fuzzScenario(i int) fuzz.Scenario {
	return fuzz.Generate(rand.New(rand.NewSource(splitmix(campaignSeed, i))), campaignGen)
}

// chaosScenario is chaos.Soak's composition i. With a tracer, the
// generation and the timing overlay each get a span.
func chaosScenario(i int, tr *tracer, nm *spanNames) fuzz.Scenario {
	rng := rand.New(rand.NewSource(chaosSubSeed(campaignSeed, i)))
	if tr == nil {
		return chaos.Chaosify(rng, fuzz.Generate(rng, campaignGen))
	}
	sp := tr.begin(nm.generate)
	base := fuzz.Generate(rng, campaignGen)
	tr.end(sp)
	sp = tr.begin(nm.chaosify)
	sc := chaos.Chaosify(rng, base)
	tr.end(sp)
	return sc
}

// chaosSubSeed is chaos.Soak's derivation of composition i's seed.
func chaosSubSeed(seed int64, i int) int64 {
	return splitmix(int64(uint64(seed)^0xc2b2ae3d27d4eb4f), i)
}

// campaignTraced runs each pass three ways: the untraced campaign and
// soak on every worker (the twins), the same scenarios one by one on
// this goroutine with the fuzz layer traced, and each scenario's engine
// execution traced against an untraced engine twin. The folded outcome
// digests must equal the twins' report digests.
func campaignTraced(cfg *runConfig) (*result, error) {
	tr := newTracer()
	nm := newSpanNames(tr)
	counts := &layerCounts{}
	res := &result{}
	start := startClean()
	for k := 0; !timeUp(start, cfg.seconds); k++ {
		t0 := time.Now()
		frep, crep, err := campaignPass(cfg.workers)
		if err != nil {
			return nil, err
		}
		counts.capacityNs += int64(cfg.workers) * int64(time.Since(t0))
		fuzzGen := func(i int) fuzz.Scenario {
			sp := tr.begin(nm.generate)
			defer tr.end(sp)
			return fuzzScenario(i)
		}
		chaosGen := func(i int) fuzz.Scenario { return chaosScenario(i, tr, nm) }
		if got := replayTraced(tr, nm, counts, res, fuzzPerPass, fuzzGen, false); got != frep.Digest {
			res.Failed++
			cfg.logf("fuzz digest mismatch at pass %d: traced %s, untraced %s", k, got, frep.Digest)
		}
		if got := replayTraced(tr, nm, counts, res, chaosPerPass, chaosGen, true); got != crep.Digest {
			res.Failed++
			cfg.logf("chaos digest mismatch at pass %d: traced %s, untraced %s", k, got, crep.Digest)
		}
	}
	return finishTraced(cfg, tr, counts, res, false)
}

// replayTraced runs count scenarios one by one through the traced fuzz
// layer and checks each engine execution; it returns the outcome
// digests folded as the campaign reports fold them.
func replayTraced(tr *tracer, nm *spanNames, c *layerCounts, res *result, count int, gen func(i int) fuzz.Scenario, invariants bool) string {
	h := fnv.New64a()
	for i := 0; i < count; i++ {
		sc := gen(i)
		o := tracedScenario(tr, nm, c, sc, fuzz.Options{Invariants: invariants})
		fmt.Fprintf(h, "%d:%s;", i, o.Digest)
		res.Attempted++
		if checkScenario(tr, nm, c, sc, invariants, o) != nil {
			res.Failed++
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// tracedScenario runs one scenario through the fuzz layer under a span.
func tracedScenario(tr *tracer, nm *spanNames, c *layerCounts, sc fuzz.Scenario, opts fuzz.Options) *fuzz.Outcome {
	sp := tr.begin(nm.scenario)
	o := fuzz.RunOpts(sc, opts)
	tr.end(sp)
	c.busyNs += tr.spans[sp].end - tr.spans[sp].start
	return o
}

// checkScenario executes the scenario's engine run twice, untraced and
// with every seam traced, and checks the traced run against both the
// untraced engine twin and the fuzz outcome: rounds, stop reason,
// verdict class and violated properties.
func checkScenario(tr *tracer, nm *spanNames, c *layerCounts, sc fuzz.Scenario, invariants bool, o *fuzz.Outcome) error {
	if o.Class == fuzz.ClassError || o.Class == fuzz.ClassPanic || o.Class == fuzz.ClassViolation {
		return fmt.Errorf("scenario failed (%s): %s", o.Class, o.Detail)
	}
	twinOpts, err := sc.Options()
	if err != nil {
		return err
	}
	if invariants {
		twinOpts = append(twinOpts, engine.WithInvariants())
	}
	t0 := time.Now()
	twin, err := engine.Run(twinOpts...)
	c.twinNs += int64(time.Since(t0))
	if err != nil {
		return err
	}

	ecfg, err := sc.Config()
	if err != nil {
		return err
	}
	seams := engineSeams{
		base:     []engine.Option{engine.FromConfig(ecfg)},
		factory:  ecfg.NewProcess,
		protocol: sc.Protocol,
		adv:      ecfg.Adversary,
		tm:       ecfg.TimeModel,
	}
	if sc.StateRep != "" && sc.StateRep != "concrete" || sc.MaxClasses > 0 {
		if seams.rep, err = engine.StateRepByName(sc.StateRep, sc.MaxClasses); err != nil {
			return err
		}
	}
	if invariants {
		seams.base = append(seams.base, engine.WithInvariants())
	}
	ex := tr.beginExec(nm.exec)
	e, got, err := tracedEngine(tr, nm, c, seams)
	tr.end(ex)
	c.tracedNs += tr.spans[ex].end - tr.spans[ex].start
	if err != nil {
		return err
	}
	if err := sameExecution(got, twin); err != nil {
		return err
	}
	if got.Rounds != o.Rounds || string(got.Stopped) != o.Stopped {
		return fmt.Errorf("traced rounds/stop %d/%q, outcome %d/%q", got.Rounds, got.Stopped, o.Rounds, o.Stopped)
	}
	proto, _ := protoreg.Get(sc.Protocol)
	procs := make([]engine.Process, sc.N)
	for s := range procs {
		procs[s] = unwrapProcess(e.Process(s))
	}
	v := proto.Verdict(got, procs)
	var props []string
	for _, p := range v.Properties() {
		props = append(props, p.String())
	}
	if v.OK() != (o.Class == fuzz.ClassOK) || strings.Join(props, ",") != strings.Join(o.Properties, ",") {
		return fmt.Errorf("traced verdict %s, outcome %s %v", v, o.Class, o.Properties)
	}
	return nil
}

// unwrapProcess returns the protocol process behind a traced wrapper.
func unwrapProcess(p engine.Process) engine.Process {
	if w, ok := p.(interface{ unwrap() engine.Process }); ok {
		return w.unwrap()
	}
	return p
}
