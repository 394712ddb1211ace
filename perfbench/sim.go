package main

import (
	"context"
	"fmt"
	"time"

	"ptbsim"
	"ptbsim/internal/core"
	"ptbsim/internal/metrics"
	"ptbsim/internal/sim"
	simworkload "ptbsim/internal/workload"
)

// setups is how many times every run sets its workload up; setup_s is the
// median, so one slow set-up cannot move it.
const setups = 5

// minPasses is the fewest seeded passes over the golden cells a timed
// phase runs, so every cell has at least that many repeats, each a pass
// apart. A cell's cost, in wall and in CPU time, is the least over its
// repeats: on a shared host the same cell ran half again as long, CPU time
// and all, while a neighbour loaded the machine's caches and memory, in
// episodes of five to thirty seconds that slowed every repeat inside them
// alike.
const minPasses = 3

// simWorkload replays the cells of one golden file through
// ptbsim.RunContext, one op at a time, checking every digest.
type simWorkload struct {
	golden string
	cores  int
	scale  float64
	warmUp string // label of the fixed set-up cell
}

var matrix4c = simWorkload{matrixGolden, 4, 0.25, "fft/4/ptb/Dynamic"}

func runMatrix(e *env) (*timedRun, error)    { return matrix4c.run(e) }
func traceMatrix(e *env) (*tracedRun, error) { return matrix4c.trace(e) }

// setUp loads the golden cells and runs the fixed warm-up cell, untimed
// by the caller's timed phase but part of setup_s.
func (w simWorkload) setUp() ([]simOp, error) {
	ops, err := goldenOps(w.golden, w.cores, w.scale)
	if err != nil {
		return nil, err
	}
	warm, err := findOp(ops, w.warmUp)
	if err != nil {
		return nil, err
	}
	res, err := ptbsim.RunContext(context.Background(), warm.cfg)
	if err != nil {
		return nil, fmt.Errorf("warm-up %s: %w", w.warmUp, err)
	}
	if got := res.Digest(); got != warm.digest {
		return nil, fmt.Errorf("warm-up digest drift:\n got  %s\n want %s", got, warm.digest)
	}
	return ops, nil
}

func (w simWorkload) run(e *env) (*timedRun, error) {
	t := &timedRun{}
	var ops []simOp
	for i := 0; i < setups; i++ {
		start, cpu := time.Now(), selfCPU()
		var err error
		if ops, err = w.setUp(); err != nil {
			return nil, err
		}
		t.setups = append(t.setups, time.Since(start))
		t.setupCPU = append(t.setupCPU, selfCPU()-cpu)
	}
	// Enough passes for a pass of a second; one takes over ten.
	passes := max(minPasses, int(e.seconds.Seconds())) + 2
	sched := simSchedule(ops, e.seed, passes*len(ops))
	t.inputs = fmt.Sprintf("%d passes of %d ops scheduled, %s", passes, len(ops), inputHash(simConfigs(sched)))

	// The timed phase runs whole passes, so every cell has as many repeats,
	// until minPasses have run and the run length has passed.
	best := make(map[string]time.Duration, len(ops))    // wall
	bestCPU := make(map[string]time.Duration, len(ops)) // CPU
	rss, err := startRSSWindows("self")
	if err != nil {
		return nil, err
	}
	steal := hostSteal()
	start := time.Now()
	ranOut := true
	for i, op := range sched {
		if i%len(ops) == 0 && i >= minPasses*len(ops) && time.Since(start) >= e.seconds {
			ranOut = false
			break
		}
		t0, c0 := time.Now(), selfCPU()
		res, err := ptbsim.RunContext(context.Background(), op.cfg)
		cpu := selfCPU() - c0
		t.attempted++
		if err == nil && res.Digest() != op.digest {
			err = fmt.Errorf("digest drift:\n got  %s\n want %s", res.Digest(), op.digest)
		}
		if err != nil {
			t.failed++
			fmt.Printf("op %d failed: %v\n", i, err)
			continue
		}
		end := time.Now()
		d := end.Sub(t0)
		t.lat = append(t.lat, d)
		t.elapsed = end.Sub(start)
		t.coreCyc += res.Cycles * int64(res.Cores)
		if b, ok := best[op.digest]; !ok || d < b {
			best[op.digest] = d
		}
		if b, ok := bestCPU[op.digest]; !ok || cpu < b {
			bestCPU[op.digest] = cpu
		}
	}
	if ranOut {
		t.problems = append(t.problems, "the op schedule ran out before the run length")
	}
	for _, d := range best {
		t.best = append(t.best, d)
	}
	var sum time.Duration
	for _, d := range bestCPU {
		sum += d
	}
	if len(bestCPU) > 0 {
		t.cpuPerOp = sum / time.Duration(len(bestCPU))
	}
	t.repeats = len(t.lat) / len(ops)
	t.cpuBasis = fmt.Sprintf("mean over %d cells of each cell's least CPU time in %d repeats, this process", len(bestCPU), t.repeats)
	t.steal = hostSteal() - steal
	t.rssKB, err = rss.finish()
	return t, err
}

// trace is the traced run: one seeded pass over the golden cells untraced
// through ptbsim.RunContext, the same pass traced through the steps
// RunContext takes, with a span around each layer call, and the pass
// untraced once more. The untraced rate is over both untraced passes, so
// neither side of the overhead gets only the early or only the late
// process.
func (w simWorkload) trace(e *env) (*tracedRun, error) {
	ops, err := w.setUp()
	if err != nil {
		return nil, err
	}
	pass := simSchedule(ops, e.seed, len(ops))[:len(ops)]
	tr := newTracedRun(fmt.Sprintf("one pass of %d ops, %s", len(pass), inputHash(simConfigs(pass))))

	untracedPass := func() (c counts, d time.Duration, err error) {
		start := time.Now()
		for _, op := range pass {
			res, err := ptbsim.RunContext(context.Background(), op.cfg)
			if err != nil {
				return c, 0, err
			}
			c.add(res)
		}
		return c, time.Since(start), nil
	}
	before, d0, err := untracedPass()
	if err != nil {
		return nil, err
	}

	var want counts
	if err := tr.begin(); err != nil {
		return nil, err
	}
	start := time.Now()
	for i, op := range pass {
		tr.attempted++
		res, err := tr.simOp(i, "op", op.cfg)
		if err == nil && res.Digest() != op.digest {
			err = fmt.Errorf("digest drift:\n got  %s\n want %s", res.Digest(), op.digest)
		}
		if err != nil {
			tr.failed++
			fmt.Printf("op %d failed: %v\n", i, err)
			continue
		}
		tr.counts.add(res)
		want.addDigest(op.digest)
	}
	tr.traced = opsRate(len(pass), time.Since(start))
	if err := tr.end(e, len(pass)); err != nil {
		return nil, err
	}
	after, d1, err := untracedPass()
	if err != nil {
		return nil, err
	}
	tr.untraced = opsRate(2*len(pass), d0+d1)
	tr.repeatOf("the first untraced pass over the same cells", before)
	tr.repeatOf("the second untraced pass over the same cells", after)
	if tr.counts != want {
		tr.problems = append(tr.problems, fmt.Sprintf("exact counts %+v differ from the golden lines' %+v", tr.counts, want))
	}
	return tr, tr.timeJournal(e, simConfigs(pass))
}

// simOp runs one configuration through the steps ptbsim.RunContext takes
// (validate, convert, sim.NewSystem, System.RunContext, convert back),
// recording a span around each and the simulator's own counters. The
// golden digest check proves it is the same computation.
func (tr *tracedRun) simOp(op int, parent string, cfg ptbsim.Config) (*ptbsim.Result, error) {
	t0 := time.Now()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	scfg, err := simConfig(cfg)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	sys, err := sim.NewSystem(scfg)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	rr, err := sys.RunContext(context.Background())
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	res := resultOf(rr)
	res.Digest() // part of every op: callers check it
	t4 := time.Now()

	tr.spans.add(op, "ptbsim.op", parent, t0, t4)
	tr.spans.add(op, "ptbsim.config", "ptbsim.op", t0, t1)
	tr.spans.add(op, "sim.NewSystem", "ptbsim.op", t1, t2)
	tr.spans.add(op, "sim.Run", "ptbsim.op", t2, t3)
	tr.spans.add(op, "ptbsim.result", "ptbsim.op", t3, t4)
	tr.sim.cycles += sys.Cycle()
	tr.sim.fast += sys.FastCycles()
	tr.sim.run += t3.Sub(t2)
	tr.sim.newSystem += t2.Sub(t1)
	tr.sim.systems++
	return res, nil
}

// simConfig mirrors the public Config's conversion to the simulator's.
func simConfig(c ptbsim.Config) (sim.Config, error) {
	spec, ok := simworkload.ByName(c.Benchmark)
	if !ok {
		return sim.Config{}, fmt.Errorf("unknown benchmark %q", c.Benchmark)
	}
	if c.Faults != nil || c.PessimisticPTBLatency || c.Checkpoint != nil {
		return sim.Config{}, fmt.Errorf("traced ops do not model faults, pessimistic latency or checkpoints")
	}
	pol := core.PolicyToAll
	switch c.Policy {
	case ptbsim.ToOne:
		pol = core.PolicyToOne
	case ptbsim.Dynamic:
		pol = core.PolicyDynamic
	}
	tech := sim.Technique(c.Technique)
	if tech == "" {
		tech = sim.TechNone
	}
	return sim.Config{
		Benchmark:      spec,
		Cores:          c.Cores,
		Technique:      tech,
		Policy:         pol,
		RelaxFrac:      c.RelaxFrac,
		BudgetFrac:     c.BudgetFrac,
		WorkloadScale:  c.WorkloadScale,
		MaxCycles:      c.MaxCycles,
		PTBClusterSize: c.PTBClusterSize,
		Invariants:     c.CheckInvariants,
		IntraParallel:  c.IntraParallel,
	}, nil
}

// resultOf fills the Result fields the digest covers.
func resultOf(r *metrics.RunResult) *ptbsim.Result {
	return &ptbsim.Result{
		Benchmark: r.Benchmark, Cores: r.Cores,
		Technique: ptbsim.Technique(r.Technique), Policy: r.Policy,
		Cycles: r.Cycles, Committed: r.Committed,
		EnergyJ: r.EnergyJ, AoPBJ: r.AoPBJ,
		TokenDonatedPJ: r.TokenDonatedPJ, TokenGrantedPJ: r.TokenGrantedPJ,
		TokenDiscardedPJ: r.TokenDiscardedPJ, BalanceRounds: r.BalanceRounds,
		CohGetS: r.CohGetS, CohGetX: r.CohGetX, CohPut: r.CohPut, CohFwd: r.CohFwd, CohInv: r.CohInv,
		NoCMessages: r.NoCMessages, NoCFlits: r.NoCFlits,
	}
}

func opsRate(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}
