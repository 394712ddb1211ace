// Package sim composes the full simulated CMP — cores, caches, directory,
// mesh, memory, power, thermal, synchronization and budget controllers —
// and runs benchmark experiments. It is the layer the public API, the
// command-line tools and the paper-reproduction benchmarks drive.
package sim

import (
	"context"
	"fmt"

	"ptbsim/internal/budget"
	"ptbsim/internal/cache"
	"ptbsim/internal/core"
	"ptbsim/internal/cpu"
	"ptbsim/internal/dvfs"
	"ptbsim/internal/eventq"
	"ptbsim/internal/fault"
	"ptbsim/internal/invariant"
	"ptbsim/internal/isa"
	"ptbsim/internal/mesh"
	"ptbsim/internal/metrics"
	"ptbsim/internal/obs"
	"ptbsim/internal/power"
	"ptbsim/internal/syncprim"
	"ptbsim/internal/thermal"
	"ptbsim/internal/workload"
)

// Technique selects the power-budget mechanism under test (§III.C, §III.E).
type Technique string

// The evaluated techniques.
const (
	TechNone   Technique = "none"
	TechDVFS   Technique = "dvfs"
	TechDFS    Technique = "dfs"
	Tech2Level Technique = "2level"
	TechPTB    Technique = "ptb"
	// TechPTBSpinGate adds the paper's future-work extension: PTB's
	// power-pattern spin detector duty-cycle-gates spinning cores.
	TechPTBSpinGate Technique = "ptbgate"
	// TechMaxBIPS is the Isci et al. [1] related-work baseline: global
	// DVFS-mode selection maximizing counter-measured throughput under the
	// budget — the approach §II.C argues fails for parallel workloads.
	TechMaxBIPS Technique = "maxbips"
)

// Config describes one simulation run.
type Config struct {
	// Benchmark is the workload (required).
	Benchmark *workload.Spec
	// Cores is the CMP size (default 4).
	Cores int
	// Technique is the budget mechanism (default TechNone).
	Technique Technique
	// Policy selects the PTB distribution policy.
	Policy core.Policy
	// RelaxFrac relaxes the trigger threshold (§IV.C), e.g. 0.20 = +20%.
	RelaxFrac float64
	// BudgetFrac is the global budget as a fraction of peak power
	// (default 0.5, the paper's headline configuration).
	BudgetFrac float64
	// WorkloadScale shortens runs for tests/benchmarks (default 1.0).
	WorkloadScale float64
	// MaxCycles is a safety cap (default 50M).
	MaxCycles int64
	// PTBLatency overrides the balancer latency (pessimistic experiment).
	PTBLatency *core.Latency

	// Ablation knobs (zero = paper defaults): k-means token groups (8),
	// PTB token-wire width in bits (4), and the DVFS decision window.
	TokenGroups int
	WireBits    int
	DVFSWindow  int64

	// PTBClusterSize, when >0, replaces the single chip-wide balancer with
	// per-cluster balancers of that many cores (the paper's §III.E.2
	// scalability scheme for >32-core CMPs).
	PTBClusterSize int

	// IntraParallel is ignored: every run steps its cores serially.
	//
	// Deprecated: intra-run tile parallelism was removed (DESIGN.md §13).
	// The field stays only so existing callers keep compiling.
	IntraParallel int

	// Observe, when non-nil, wires the epoch-sampled telemetry recorder
	// into the run: one obs.Sample per Observe.Every cycles, streamed to
	// Observe.Sink. The recorder only reads simulation state, so an
	// observed run is bit-identical to an unobserved one (the golden matrix
	// pins this); disabled runs pay one nil check per cycle.
	Observe *obs.Config

	// Faults, when non-nil, wires the deterministic fault-injection engine
	// into the system: token-exchange faults into the PTB balancer, link
	// faults into the mesh, sensor noise into the budget estimates, and
	// transition glitches into the DVFS governors. A spec with all rates
	// zero still routes through the fault-aware code paths and reproduces
	// the un-faulted run bit for bit (the golden tests rely on this).
	Faults *fault.Spec

	// Invariants enables the runtime invariant layer: conservation-law and
	// consistency checks evaluated every InvariantEpoch cycles and once more
	// at run end. A violation fails the run with an error wrapping
	// invariant.ErrViolated. Disabled runs pay one nil check per cycle.
	Invariants bool
	// InvariantEpoch overrides the check cadence (default
	// invariant.DefaultEpoch).
	InvariantEpoch int64

	// CPU and Cache allow overriding Table-1 defaults (including the PTHT
	// size via CPU.PTHTSize).
	CPU   cpu.Config
	Cache cache.Config
}

func (c Config) withDefaults() Config {
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.Technique == "" {
		c.Technique = TechNone
	}
	if c.BudgetFrac == 0 {
		c.BudgetFrac = 0.5
	}
	if c.WorkloadScale == 0 {
		c.WorkloadScale = 1
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 50_000_000
	}
	if c.CPU.ROBSize == 0 {
		c.CPU = cpu.DefaultConfig()
	}
	return c
}

// memAdapter bridges the cache hierarchy to the cpu.MemSystem interface.
type memAdapter struct{ h *cache.Hierarchy }

func (a memAdapter) Read(core int, addr uint64, done func())  { a.h.Read(core, addr, done) }
func (a memAdapter) Write(core int, addr uint64, done func()) { a.h.Write(core, addr, done) }
func (a memAdapter) FetchProbe(core int, addr uint64) bool    { return a.h.L1I[core].Probe(addr) }
func (a memAdapter) FetchMiss(core int, addr uint64, done func()) {
	a.h.Fetch(core, addr, done)
}

// System is one fully wired CMP simulation.
type System struct {
	cfg    Config
	q      *eventq.Queue
	meter  *power.Meter
	hier   *cache.Hierarchy
	net    *mesh.Mesh
	sync   *syncprim.Table
	cores  []*cpu.Core
	gens   []*workload.Generator
	st     *budget.ChipState
	ctl    budget.Controller
	bal    *core.Balancer // non-nil for TechPTB
	col    *metrics.Collector
	therm  *thermal.Model
	inv    *invariant.Checker // nil unless Config.Invariants
	faults *fault.Injector    // nil unless Config.Faults
	sensor *power.NoisySensor // nil unless Config.Faults
	obs    *obs.Recorder      // nil unless Config.Observe
	obsGov *dvfs.Governor     // mode-residency source; nil when no governor

	perCore []float64
	classes []isa.SyncClass

	cycle      int64
	peakPJ     float64
	hitMax     bool
	stopped    bool
	fastOff    bool  // test hook: force every cycle down the full-tick path
	fastCycles int64 // cycles advanced via the inert fast path
}

// NewSystem builds a system from the config.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if cfg.Benchmark == nil {
		return nil, fmt.Errorf("sim: config needs a Benchmark")
	}
	spec := cfg.Benchmark
	if cfg.WorkloadScale != 1 {
		spec = spec.Scaled(cfg.WorkloadScale)
	}

	s := &System{cfg: cfg, q: &eventq.Queue{}}
	n := cfg.Cores
	s.meter = power.NewMeter(n)
	s.net = mesh.New(n, s.q, s.meter)
	s.hier = cache.NewHierarchy(n, s.q, s.meter, s.net, cfg.Cache)
	s.sync = syncprim.NewTable(n, spec.NumLocks, 1)

	tm := power.NewTokenModel()
	if cfg.TokenGroups > 0 {
		tm = power.NewTokenModelK(cfg.TokenGroups)
	}
	mem := memAdapter{s.hier}
	for i := 0; i < n; i++ {
		gen := workload.NewGenerator(spec, s.sync, i, n)
		s.gens = append(s.gens, gen)
		s.cores = append(s.cores, cpu.New(i, cfg.CPU, s.meter, tm, mem, s.sync, gen))
	}

	// The budget is a fraction of the processor's rated peak (§III.C);
	// the rated peak derates the structural worst case per
	// power.SustainedPeakFrac.
	s.peakPJ = power.PeakCoreCyclePJ(cfg.CPU.ROBSize) * power.SustainedPeakFrac * float64(n)
	globalBudget := cfg.BudgetFrac * s.peakPJ
	s.st = budget.NewChipState(s.cores, s.meter, s.sync, globalBudget)

	switch cfg.Technique {
	case TechNone:
		s.ctl = budget.None{}
	case TechDVFS:
		d := budget.NewDVFS(n)
		if cfg.DVFSWindow > 0 {
			d.SetWindow(cfg.DVFSWindow)
		}
		s.ctl = d
	case TechDFS:
		d := budget.NewDFS(n)
		if cfg.DVFSWindow > 0 {
			d.SetWindow(cfg.DVFSWindow)
		}
		s.ctl = d
	case TechMaxBIPS:
		s.ctl = budget.NewMaxBIPS(n)
	case Tech2Level:
		tl := budget.NewTwoLevel(n, cfg.RelaxFrac)
		if cfg.DVFSWindow > 0 {
			tl.DVFS.SetWindow(cfg.DVFSWindow)
		}
		s.ctl = tl
	case TechPTB, TechPTBSpinGate:
		inner := budget.NewTwoLevel(n, cfg.RelaxFrac)
		if cfg.DVFSWindow > 0 {
			inner.DVFS.SetWindow(cfg.DVFSWindow)
		}
		lat := core.LatencyFor(n)
		if cfg.PTBLatency != nil {
			lat = *cfg.PTBLatency
		}
		if cfg.PTBClusterSize > 0 && cfg.Technique == TechPTB {
			s.ctl = core.NewClusteredBalancer(n, cfg.PTBClusterSize, cfg.Policy, inner)
			break
		}
		s.bal = core.NewBalancerLatency(n, cfg.Policy, inner, lat)
		if cfg.WireBits > 0 {
			s.bal.SetWireBits(cfg.WireBits)
		}
		if cfg.Technique == TechPTBSpinGate {
			s.ctl = core.NewSpinGate(s.bal)
		} else {
			s.ctl = s.bal
		}
	default:
		return nil, fmt.Errorf("sim: unknown technique %q", cfg.Technique)
	}

	s.col = metrics.NewCollector(n, globalBudget)
	s.therm = thermal.New(n, metrics.CycleSeconds)
	s.perCore = make([]float64, n)
	s.classes = make([]isa.SyncClass, n)
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
		s.faults = fault.NewInjector(*cfg.Faults)
		s.net.SetFaults(s.faults.Link())
		s.sensor = power.NewNoisySensor(n, s.faults.Sensor())
		switch ctl := s.ctl.(type) {
		case *core.ClusteredBalancer:
			ctl.SetFaults(s.faults.Token())
		default:
			if s.bal != nil {
				s.bal.SetFaults(s.faults.Token())
			}
		}
		for _, g := range s.governors() {
			g.SetFaults(s.faults.DVFS())
		}
	}
	if cfg.Observe != nil {
		if govs := s.governors(); len(govs) == 1 {
			s.obsGov = govs[0]
		}
		s.obs = obs.NewRecorder(*cfg.Observe, n, s.fillSample)
		pol := ""
		if cfg.Technique == TechPTB || cfg.Technique == TechPTBSpinGate {
			pol = cfg.Policy.String()
		}
		s.obs.SetRun(spec.Name, n, string(cfg.Technique), pol, globalBudget)
	}
	if cfg.Invariants {
		s.inv = invariant.New(cfg.InvariantEpoch)
		s.registerInvariants()
	}
	return s, nil
}

// tokenLedger reads the PTB token-flow ledger (cumulative pJ) across
// whichever balancer topology is active; all zeros for non-PTB techniques.
func (s *System) tokenLedger() (donated, granted, discarded, inflight float64) {
	if s.bal != nil {
		d, g, di, _ := s.bal.Stats()
		return d, g, di, s.bal.PendingPJ()
	}
	if cb, ok := s.ctl.(*core.ClusteredBalancer); ok {
		for _, grp := range cb.Groups() {
			d, g, di, _ := grp.Stats()
			donated += d
			granted += g
			discarded += di
			inflight += grp.PendingPJ()
		}
	}
	return
}

// fillSample populates one telemetry sample from live simulation state. It
// runs at the end of Step, after the meter fold and collector record, so
// every readout is the post-cycle view. Cumulative counters are written as
// read; the obs.Recorder converts them to epoch deltas. The fill performs
// no allocation — the sample's slices are preallocated by the recorder —
// which keeps the enabled path O(1) per epoch.
func (s *System) fillSample(sm *obs.Sample) {
	var chip float64
	for i := range s.perCore {
		p := s.perCore[i]
		sm.CorePJ[i] = p
		chip += p
		sm.TokensPJ[i] = s.st.EstPJ[i]
		sm.EpochPJ[i] = s.meter.TotalPJ(i)
		sm.Classes[i] = int(s.classes[i])
		if s.obsGov != nil {
			sm.Modes[i] = s.obsGov.ModeIndex(i)
		} else {
			sm.Modes[i] = 0
		}
	}
	sm.ChipPJ = chip
	sm.ClassCycles = s.col.ClassCycles()
	sm.DonatedPJ, sm.GrantedPJ, sm.DiscardedPJ, sm.InFlightPJ = s.tokenLedger()
	sm.NoCMessages = s.net.Messages()
	sm.NoCFlits = s.net.FlitHops()
	var l1h, l1m int64
	for i := range s.cores {
		l1h += s.hier.L1I[i].Hits() + s.hier.L1D[i].Hits()
		l1m += s.hier.L1I[i].Misses() + s.hier.L1D[i].Misses()
	}
	sm.L1Hits, sm.L1Misses = l1h, l1m
	var l2h, l2m int64
	for _, b := range s.hier.Banks {
		_, _, _, _, _, h, m := b.Stats()
		l2h += h
		l2m += m
	}
	sm.L2Hits, sm.L2Misses = l2h, l2m
}

// registerInvariants wires the component self-checks into the checker.
// Registration order is evaluation order; the final-only checks come last
// because draining the event queue for the quiescent MOESI cross-check
// delivers in-flight messages, which charge the power meter energy the
// collector never saw — so the energy identity must be verified first.
func (s *System) registerInvariants() {
	s.inv.Register("cpu-occupancy", func() error {
		for _, c := range s.cores {
			if err := c.CheckOccupancy(); err != nil {
				return err
			}
		}
		return nil
	})
	s.inv.Register("power-ledger", s.meter.CheckConsistency)
	if s.obs != nil {
		// The telemetry epoch-energy ledger must telescope back to the
		// meter's ground truth: emitted per-core epoch sums plus the
		// unsampled tail equal the cumulative metered energy.
		s.inv.Register("obs-energy", func() error {
			return s.obs.CheckEnergy(s.meter.TotalPJ)
		})
	}
	s.inv.Register("noc-flit-conservation", s.net.CheckFlitConservation)
	s.inv.Register("budget-state", func() error {
		// The structural (non-derated) peak scales the estimate sanity
		// bound; the rated TDP (s.peakPJ) sits below it by
		// SustainedPeakFrac and is transiently overshot by design.
		return budget.CheckState(s.st, s.peakPJ/power.SustainedPeakFrac)
	})
	if s.bal != nil {
		s.inv.Register("ptb-token-conservation", s.bal.CheckConservation)
	} else if cb, ok := s.ctl.(*core.ClusteredBalancer); ok {
		s.inv.Register("ptb-token-conservation", cb.CheckConservation)
	}
	s.inv.Register("dir-structure", s.hier.CheckDirectoryEntries)

	s.inv.RegisterFinal("energy-identity", func() error {
		var meterPJ float64
		for i := 0; i < s.cfg.Cores; i++ {
			for k := 0; k < power.NumEventKinds; k++ {
				meterPJ += s.meter.KindPJ(i, power.EventKind(k))
			}
		}
		colPJ := s.col.EnergyJ() / metrics.PJToJ
		// The collector sums per-cycle chip totals, the meter per-event kind
		// ledgers — two independent accumulation orders over ~1e8 additions,
		// so the tolerance is looser than invariant.CloseTo.
		diff := meterPJ - colPJ
		if diff < 0 {
			diff = -diff
		}
		m := meterPJ
		if colPJ > m {
			m = colPJ
		}
		if diff > 1e-7*m+1e-6 {
			return fmt.Errorf("sim: energy identity broken: collector %.3f pJ != meter %.3f pJ", colPJ, meterPJ)
		}
		return nil
	})
	s.inv.RegisterFinal("quiescent-moesi", func() error {
		// The workload draining does not imply the uncore has: late
		// writebacks and invalidation acks may still be in flight. Run the
		// event queue forward (no core ticks) until it empties, then run the
		// full MOESI cross-check, which is only sound at a quiescent point.
		const drainCap = 4_000_000
		now := s.cycle
		for !s.q.Empty() && now < s.cycle+drainCap {
			now += 1024
			s.q.RunUntil(now)
		}
		if !s.q.Empty() {
			return fmt.Errorf("sim: event queue failed to quiesce within %d cycles of run end", drainCap)
		}
		return s.hier.CheckInvariants()
	})
}

// governors collects the dvfs.Governor instances reachable through the
// active controller stack. None has no governor, and MaxBIPS applies modes
// directly without one, so regulator glitches are not modeled for that
// related-work baseline.
func (s *System) governors() []*dvfs.Governor {
	var out []*dvfs.Governor
	var walk func(c budget.Controller)
	walk = func(c budget.Controller) {
		switch ctl := c.(type) {
		case *budget.DVFSController:
			out = append(out, ctl.Governor())
		case *budget.TwoLevel:
			walk(ctl.DVFS)
		case *core.Balancer:
			walk(ctl.Inner())
		case *core.SpinGate:
			walk(ctl.Balancer())
		case *core.ClusteredBalancer:
			walk(ctl.Inner())
		}
	}
	walk(s.ctl)
	return out
}

// CoreCounts are the CMP sizes evaluated in the paper.
func CoreCounts() []int { return []int{2, 4, 8, 16} }

// GlobalBudgetPJ returns the per-cycle budget in picojoules.
func (s *System) GlobalBudgetPJ() float64 { return s.cfg.BudgetFrac * s.peakPJ }

// Balancer returns the PTB balancer, or nil for other techniques.
func (s *System) Balancer() *core.Balancer { return s.bal }

// Invariants returns the invariant checker, or nil when Config.Invariants
// is off.
func (s *System) Invariants() *invariant.Checker { return s.inv }

// Cycle returns the current simulation cycle.
func (s *System) Cycle() int64 { return s.cycle }

// done reports whether every thread has drained.
func (s *System) done() bool {
	for _, c := range s.cores {
		if !c.Done() {
			return false
		}
	}
	return true
}

// FastCycles reports how many cycles were advanced through the idle
// skip-ahead fast path (diagnostics; not part of any digest).
func (s *System) FastCycles() int64 { return s.fastCycles }

// coresQuiescent reports whether every core proves its next tick inert.
func (s *System) coresQuiescent() bool {
	for _, c := range s.cores {
		if d, _ := c.NextWake(); d == 0 {
			return false
		}
	}
	return true
}

// Step advances the simulation by exactly one global cycle.
//
// The event queue first runs up to the cycle: mesh hops, protocol
// handlers, memory replies. Then every core ticks once, in ascending core
// order. A core's L1 hits schedule their completions and its misses inject
// into the mesh in place, so the merged order of event-queue insertions,
// link reservations, fault-RNG draws and NoC energy charges is the order
// the cores issue them in. Everything after the core loop (leakage, budget
// refresh, sensor perturbation, controller tick, meter fold,
// collector/thermal recording, telemetry, invariants) follows.
//
// The idle skip-ahead: when no event is due this cycle and every core
// reports a provably inert tick (cpu.NextWake > 0), the per-core pipeline
// walk is replaced by cpu.TickInert — an exact replay of what Tick would
// have done on a quiescent cycle. Everything after the core loop runs
// identically on both paths, so a fast cycle is bit-for-bit the same as a
// full one; the golden-digest matrix enforces this. The gate re-evaluates
// every cycle, which is what keeps it sound against controllers flipping
// knobs mid-window and against event callbacks waking a pipeline: any such
// change flows into the next cycle's NextWake/NextDue before another fast
// tick can happen.
func (s *System) Step() {
	s.cycle++
	fast := !s.fastOff && s.q.NextDue() > s.cycle && s.coresQuiescent()
	s.q.RunUntil(s.cycle)
	if fast {
		s.fastCycles++
	}
	for _, c := range s.cores {
		if fast {
			c.TickInert()
		} else {
			c.Tick()
		}
	}
	for i, c := range s.cores {
		if c.Knobs().SleepGate {
			s.meter.Add(i, power.EvLeakageSleep, 1)
		} else {
			s.meter.Add(i, power.EvLeakage, 1)
		}
	}
	s.st.Refresh(s.cycle)
	if s.sensor != nil {
		// The controllers read sensors, not ground truth: perturb every
		// estimate and re-derive the chip total in Refresh's summation order
		// (so a zero-rate sensor leaves both bit-identical).
		s.st.ChipEstPJ = 0
		for i := range s.st.EstPJ {
			s.st.EstPJ[i] = s.sensor.Perturb(i, s.st.EstPJ[i])
			s.st.ChipEstPJ += s.st.EstPJ[i]
		}
	}
	s.ctl.Tick(s.st)
	s.meter.EndCycle(s.perCore)
	for i := range s.classes {
		s.classes[i] = s.sync.State(i)
	}
	s.col.Record(s.perCore, s.classes)
	s.therm.Record(s.perCore)
	if s.obs != nil {
		s.obs.Tick(s.cycle)
	}
	s.inv.Tick(s.cycle)
}

// cancelCheckCycles is how often the cycle loop polls the context: every
// 4096 simulated cycles, i.e. a few microseconds of wall time, so
// cancellation latency is far below one power-sample interval.
const cancelCheckCycles = 4096

// Run executes the benchmark to completion (or the cycle cap) and returns
// the result summary.
func (s *System) Run() *metrics.RunResult {
	res, err := s.RunContext(context.Background())
	if err != nil {
		// A background context never expires, so the only possible error
		// is the double-run misuse this method has always panicked on.
		panic(err)
	}
	return res
}

// RunContext executes the benchmark to completion (or the cycle cap),
// polling ctx every cancelCheckCycles simulated cycles. On cancellation it
// returns an error wrapping ctx.Err(); the partially advanced system is
// then spent and cannot be resumed.
func (s *System) RunContext(ctx context.Context) (*metrics.RunResult, error) {
	if s.stopped {
		return nil, fmt.Errorf("sim: Run called twice")
	}
	s.stopped = true
	for {
		s.Step()
		if s.done() {
			break
		}
		if s.cycle >= s.cfg.MaxCycles {
			s.hitMax = true
			break
		}
		if s.cycle%cancelCheckCycles == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sim: %s/%d/%s cancelled at cycle %d: %w",
					s.cfg.Benchmark.Name, s.cfg.Cores, s.cfg.Technique, s.cycle, err)
			}
		}
	}
	// Flush the telemetry tail before invariant finalization: the
	// quiescent-MOESI final check drains the event queue, which charges the
	// power meter energy that belongs to no epoch of the finished run.
	if s.obs != nil {
		s.obs.Finalize(s.cycle)
	}
	s.inv.Finalize(s.cycle)
	if err := s.inv.Err(); err != nil {
		return nil, fmt.Errorf("sim: %s/%d/%s: %w",
			s.cfg.Benchmark.Name, s.cfg.Cores, s.cfg.Technique, err)
	}
	return s.result(), nil
}

// RunCycles advances at most n cycles (for step benchmarks); it stops early
// if the workload completes and reports whether it did.
func (s *System) RunCycles(n int64) bool {
	for i := int64(0); i < n; i++ {
		s.Step()
		if s.done() {
			return true
		}
	}
	return false
}

func (s *System) result() *metrics.RunResult {
	var committed int64
	for _, c := range s.cores {
		committed += c.Stats().Committed
	}
	label := string(s.cfg.Technique)
	pol := ""
	if s.cfg.Technique == TechPTB || s.cfg.Technique == TechPTBSpinGate {
		pol = s.cfg.Policy.String()
	}
	comp := make(map[string]float64)
	for k := 0; k < power.NumEventKinds; k++ {
		kind := power.EventKind(k)
		for i := 0; i < s.cfg.Cores; i++ {
			comp[kind.Component()] += s.meter.KindPJ(i, kind) * metrics.PJToJ
		}
	}
	var donated, granted, discarded float64
	var rounds int64
	if s.bal != nil {
		donated, granted, discarded, rounds = s.bal.Stats()
	} else if cb, ok := s.ctl.(*core.ClusteredBalancer); ok {
		for _, g := range cb.Groups() {
			d, gr, di, r := g.Stats()
			donated += d
			granted += gr
			discarded += di
			rounds += r
		}
	}
	var degraded bool
	var lostPJ, dupPJ float64
	var retries, reportsLost, staleCycles, stallCycles, retransmits, glitches, injected int64
	if s.faults != nil {
		injected = s.faults.Fired()
		stallCycles, retransmits = s.net.FaultStats()
		if s.bal != nil {
			lostPJ, dupPJ, retries, reportsLost, staleCycles = s.bal.FaultStats()
			degraded = s.bal.Degraded()
		} else if cb, ok := s.ctl.(*core.ClusteredBalancer); ok {
			lostPJ, dupPJ, retries, reportsLost, staleCycles = cb.FaultStats()
			degraded = cb.Degraded()
		}
		for _, g := range s.governors() {
			glitches += g.Glitches()
		}
	}
	var getS, getX, puts, fwds, invs int64
	for _, bank := range s.hier.Banks {
		gs, gx, p, f, iv, _, _ := bank.Stats()
		getS += gs
		getX += gx
		puts += p
		fwds += f
		invs += iv
	}
	return &metrics.RunResult{
		Benchmark:      s.cfg.Benchmark.Name,
		Cores:          s.cfg.Cores,
		Technique:      label,
		Policy:         pol,
		Cycles:         s.col.Cycles(),
		Committed:      committed,
		EnergyJ:        s.col.EnergyJ(),
		AoPBJ:          s.col.AoPBJ(),
		MeanPowerW:     s.col.MeanPowerW(),
		StdPowerW:      s.col.StdPowerW(),
		SpinEnergyFrac: s.col.SpinEnergyFrac(),
		ClassFrac:      s.col.ClassCycleFrac(),
		OverBudgetFrac: s.col.OverBudgetFrac(),
		BudgetPJ:       s.GlobalBudgetPJ(),
		MeanTempC:      s.therm.MeanTempC(),
		StdTempC:       s.therm.StdTempC(),
		HitMaxCycles:   s.hitMax,
		ComponentJ:     comp,

		TokenDonatedPJ:   donated,
		TokenGrantedPJ:   granted,
		TokenDiscardedPJ: discarded,
		BalanceRounds:    rounds,
		CohGetS:          getS,
		CohGetX:          getX,
		CohPut:           puts,
		CohFwd:           fwds,
		CohInv:           invs,
		NoCMessages:      s.net.Messages(),
		NoCFlits:         s.net.FlitHops(),

		Degraded:            degraded,
		FaultsInjected:      injected,
		TokenLostPJ:         lostPJ,
		TokenDupPJ:          dupPJ,
		TokenRetries:        retries,
		TokenReportsLost:    reportsLost,
		StaleFallbackCycles: staleCycles,
		NoCStallCycles:      stallCycles,
		NoCRetransmits:      retransmits,
		DVFSGlitches:        glitches,
	}
}

// Run is the one-shot convenience wrapper.
func Run(cfg Config) (*metrics.RunResult, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is the one-shot wrapper with cancellation: it builds a system
// and runs it to completion unless ctx ends first.
func RunContext(ctx context.Context, cfg Config) (*metrics.RunResult, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return s.RunContext(ctx)
}
