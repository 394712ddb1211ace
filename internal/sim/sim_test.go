package sim

import (
	"math"
	"testing"

	"ptbsim/internal/core"
	"ptbsim/internal/metrics"
	"ptbsim/internal/obs"
	"ptbsim/internal/workload"
)

func tiny(bench string, cores int, tech Technique, pol core.Policy) Config {
	spec, ok := workload.ByName(bench)
	if !ok {
		panic("unknown benchmark " + bench)
	}
	return Config{
		Benchmark:     spec,
		Cores:         cores,
		Technique:     tech,
		Policy:        pol,
		WorkloadScale: 0.08,
		MaxCycles:     3_000_000,
	}
}

func mustRun(t *testing.T, cfg Config) *metrics.RunResult {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.HitMaxCycles {
		t.Fatalf("%s/%s/%d hit the cycle cap", cfg.Benchmark.Name, cfg.Technique, cfg.Cores)
	}
	return r
}

func TestAllTechniquesComplete(t *testing.T) {
	for _, tech := range []Technique{TechNone, TechDVFS, TechDFS, Tech2Level, TechPTB} {
		r := mustRun(t, tiny("ocean", 4, tech, core.PolicyToAll))
		if r.Committed == 0 || r.Cycles == 0 || r.EnergyJ <= 0 {
			t.Fatalf("%s: empty result %+v", tech, r)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := mustRun(t, tiny("fluidanimate", 4, TechPTB, core.PolicyDynamic))
	b := mustRun(t, tiny("fluidanimate", 4, TechPTB, core.PolicyDynamic))
	if a.Cycles != b.Cycles || a.EnergyJ != b.EnergyJ || a.AoPBJ != b.AoPBJ || a.Committed != b.Committed {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestTechniquesReduceAoPB(t *testing.T) {
	base := mustRun(t, tiny("blackscholes", 4, TechNone, 0))
	if base.AoPBJ <= 0 {
		t.Fatal("base case never exceeded the budget; the 50% budget must bind")
	}
	for _, tech := range []Technique{TechDVFS, Tech2Level, TechPTB} {
		r := mustRun(t, tiny("blackscholes", 4, tech, core.PolicyToAll))
		if r.AoPBJ >= base.AoPBJ {
			t.Fatalf("%s did not reduce AoPB: %v >= %v", tech, r.AoPBJ, base.AoPBJ)
		}
	}
}

func TestFineGrainedBeatsDVFSOnAccuracy(t *testing.T) {
	base := mustRun(t, tiny("blackscholes", 4, TechNone, 0))
	dvfs := mustRun(t, tiny("blackscholes", 4, TechDVFS, 0))
	ptb := mustRun(t, tiny("blackscholes", 4, TechPTB, core.PolicyToOne))
	aDVFS := metrics.NormalizedAoPBPct(dvfs, base)
	aPTB := metrics.NormalizedAoPBPct(ptb, base)
	if aPTB >= aDVFS {
		t.Fatalf("PTB AoPB %.1f%% not below DVFS %.1f%% (paper's headline ordering)", aPTB, aDVFS)
	}
}

func TestBreakdownSumsToOne(t *testing.T) {
	r := mustRun(t, tiny("unstructured", 4, TechNone, 0))
	sum := 0.0
	for _, f := range r.ClassFrac {
		if f < 0 || f > 1 {
			t.Fatalf("class fraction out of range: %v", r.ClassFrac)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("class fractions sum to %v", sum)
	}
}

func TestLockHeavyBenchSpins(t *testing.T) {
	r := mustRun(t, tiny("fluidanimate", 4, TechNone, 0))
	lock := r.ClassFrac[1] + r.ClassFrac[2] // acquire + release
	if lock <= 0 {
		t.Fatal("fluidanimate shows no lock time")
	}
	if r.SpinEnergyFrac <= 0 {
		t.Fatal("no spin energy recorded")
	}
}

func TestBarrierTimeGrowsWithCores(t *testing.T) {
	r2 := mustRun(t, tiny("ocean", 2, TechNone, 0))
	r8 := mustRun(t, tiny("ocean", 8, TechNone, 0))
	if r8.ClassFrac[3] <= r2.ClassFrac[3] {
		t.Fatalf("barrier fraction did not grow with cores: %v -> %v (Fig. 3 shape)",
			r2.ClassFrac[3], r8.ClassFrac[3])
	}
}

func TestPTBBalancerActive(t *testing.T) {
	cfg := tiny("ocean", 4, TechPTB, core.PolicyToAll)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	donated, granted, _, rounds := s.Balancer().Stats()
	if donated <= 0 || rounds == 0 {
		t.Fatalf("balancer never moved tokens: donated=%v rounds=%d", donated, rounds)
	}
	if granted <= 0 {
		t.Fatal("balancer never granted tokens")
	}
}

func TestDynamicPolicyUsesBoth(t *testing.T) {
	// waternsq mixes locks and barriers, so the dynamic selector should
	// exercise both policies.
	cfg := tiny("waternsq", 4, TechPTB, core.PolicyDynamic)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	toOne, toAll := s.Balancer().PolicyRounds()
	if toOne == 0 && toAll == 0 {
		t.Fatal("dynamic selector never distributed")
	}
	if toOne == 0 {
		t.Fatal("dynamic selector never chose ToOne despite lock contention")
	}
}

func TestPowerTraceCollected(t *testing.T) {
	cfg := tiny("barnes", 2, TechNone, 0)
	cfg.Observe = &obs.Config{Every: 100, Ring: 1 << 16}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	samples := s.Telemetry().Samples()
	if len(samples) == 0 {
		t.Fatal("no power samples")
	}
	for _, smp := range samples {
		if len(smp.CorePJ) != 2 {
			t.Fatalf("sample at cycle %d holds %d core powers, want 2", smp.Cycle, len(smp.CorePJ))
		}
	}
}

func TestMaxCyclesFlag(t *testing.T) {
	cfg := tiny("ocean", 2, TechNone, 0)
	cfg.MaxCycles = 500
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.HitMaxCycles {
		t.Fatal("cap not reported")
	}
	if r.Cycles != 500 {
		t.Fatalf("ran %d cycles, want 500", r.Cycles)
	}
}

func TestRelaxedPTBSavesEnergy(t *testing.T) {
	strict := mustRun(t, tiny("blackscholes", 4, TechPTB, core.PolicyToAll))
	cfg := tiny("blackscholes", 4, TechPTB, core.PolicyToAll)
	cfg.RelaxFrac = 0.30
	relaxed := mustRun(t, cfg)
	// Relaxing the trigger must not slow the program down more, and should
	// leave AoPB higher (the accuracy/energy trade of §IV.C).
	if relaxed.Cycles > strict.Cycles {
		t.Fatalf("relaxed PTB slower than strict: %d > %d", relaxed.Cycles, strict.Cycles)
	}
	if relaxed.AoPBJ < strict.AoPBJ {
		t.Fatalf("relaxed PTB more accurate than strict: %v < %v", relaxed.AoPBJ, strict.AoPBJ)
	}
}

func TestPessimisticLatencyStillWorks(t *testing.T) {
	lat := core.PessimisticLatency()
	cfg := tiny("ocean", 4, TechPTB, core.PolicyToAll)
	cfg.PTBLatency = &lat
	r := mustRun(t, cfg)
	base := mustRun(t, tiny("ocean", 4, TechNone, 0))
	if r.AoPBJ >= base.AoPBJ {
		t.Fatal("PTB with 10-cycle latency no longer matches the budget at all")
	}
}

func TestSixteenCores(t *testing.T) {
	if testing.Short() {
		t.Skip("16-core run skipped in -short mode")
	}
	cfg := tiny("fft", 16, TechPTB, core.PolicyDynamic)
	r := mustRun(t, cfg)
	if r.Cores != 16 || r.Committed == 0 {
		t.Fatalf("bad 16-core result %+v", r)
	}
}

func TestUnknownTechniqueRejected(t *testing.T) {
	cfg := tiny("fft", 2, "warp-drive", 0)
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown technique accepted")
	}
}

func TestMissingBenchmarkRejected(t *testing.T) {
	if _, err := Run(Config{Cores: 2}); err == nil {
		t.Fatal("missing benchmark accepted")
	}
}

func TestThermalTracksTechnique(t *testing.T) {
	base := mustRun(t, tiny("blackscholes", 4, TechNone, 0))
	ptb := mustRun(t, tiny("blackscholes", 4, TechPTB, core.PolicyToAll))
	if ptb.MeanTempC >= base.MeanTempC {
		t.Fatalf("budget enforcement did not lower mean temperature: %.2f >= %.2f",
			ptb.MeanTempC, base.MeanTempC)
	}
}

func TestSpinGateExtensionSavesEnergyOnLockBoundApps(t *testing.T) {
	// The paper's future-work extension: disabling detected spinners must
	// save energy versus plain PTB on a lock-bound benchmark without
	// breaking forward progress.
	plain := mustRun(t, tiny("fluidanimate", 4, TechPTB, core.PolicyDynamic))
	gated := mustRun(t, tiny("fluidanimate", 4, TechPTBSpinGate, core.PolicyDynamic))
	if gated.Committed == 0 {
		t.Fatal("spin-gated run made no progress")
	}
	// The gate must not explode runtime (wake-up latency is bounded by the
	// duty cycle).
	if float64(gated.Cycles) > 1.25*float64(plain.Cycles) {
		t.Fatalf("spin gating blew up runtime: %d vs %d", gated.Cycles, plain.Cycles)
	}
	if gated.EnergyJ >= plain.EnergyJ {
		t.Fatalf("spin gating saved no energy: %v >= %v", gated.EnergyJ, plain.EnergyJ)
	}
}

func TestMaxBIPSBaselineMisfiresOnLockBoundApps(t *testing.T) {
	// §II.C's argument: counter-driven global management treats spinning as
	// throughput. MaxBIPS must run and respect the budget far worse than
	// PTB on a contended benchmark, or at least not better on accuracy
	// while being counter-driven.
	base := mustRun(t, tiny("raytrace", 4, TechNone, 0))
	mb := mustRun(t, tiny("raytrace", 4, TechMaxBIPS, 0))
	ptb := mustRun(t, tiny("raytrace", 4, TechPTB, core.PolicyDynamic))
	if mb.Committed == 0 {
		t.Fatal("maxbips made no progress")
	}
	aMB := metrics.NormalizedAoPBPct(mb, base)
	aPTB := metrics.NormalizedAoPBPct(ptb, base)
	if aPTB >= aMB {
		t.Fatalf("PTB (%.1f%%) not more accurate than MaxBIPS (%.1f%%)", aPTB, aMB)
	}
}

func TestComponentBreakdownSumsToTotal(t *testing.T) {
	r := mustRun(t, tiny("fft", 2, TechNone, 0))
	if len(r.ComponentJ) == 0 {
		t.Fatal("no component breakdown")
	}
	sum := 0.0
	for _, v := range r.ComponentJ {
		if v < 0 {
			t.Fatalf("negative component energy: %v", r.ComponentJ)
		}
		sum += v
	}
	if math.Abs(sum-r.EnergyJ) > 1e-12+r.EnergyJ*1e-9 {
		t.Fatalf("components sum to %v, total %v", sum, r.EnergyJ)
	}
	for _, g := range []string{"frontend", "execute", "caches", "clock", "leakage"} {
		if r.ComponentJ[g] <= 0 {
			t.Fatalf("component %q empty: %v", g, r.ComponentJ)
		}
	}
}

func TestClusteredPTBOn32Cores(t *testing.T) {
	if testing.Short() {
		t.Skip("32-core run skipped in -short mode")
	}
	// The §III.E.2 scalability configuration: a 32-core CMP balanced by
	// four 8-core clusters.
	cfg := tiny("ocean", 32, TechPTB, core.PolicyToAll)
	cfg.PTBClusterSize = 8
	cfg.WorkloadScale = 0.05
	r := mustRun(t, cfg)
	base := mustRun(t, func() Config {
		c := tiny("ocean", 32, TechNone, 0)
		c.WorkloadScale = 0.05
		return c
	}())
	if r.Committed == 0 {
		t.Fatal("clustered run made no progress")
	}
	if r.AoPBJ >= base.AoPBJ {
		t.Fatal("clustered PTB did not improve budget tracking at 32 cores")
	}
}

func TestBudgetFractionKnob(t *testing.T) {
	// A looser budget (75% of peak) must produce less AoPB than the default
	// 50% on the same workload.
	tight := mustRun(t, tiny("blackscholes", 4, TechNone, 0))
	cfg := tiny("blackscholes", 4, TechNone, 0)
	cfg.BudgetFrac = 0.75
	loose, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if loose.AoPBJ >= tight.AoPBJ {
		t.Fatalf("75%% budget AoPB %v not below 50%% budget %v", loose.AoPBJ, tight.AoPBJ)
	}
	// Identical workload, identical runtime without control.
	if loose.Cycles != tight.Cycles {
		t.Fatalf("budget fraction changed an uncontrolled run's timing: %d vs %d",
			loose.Cycles, tight.Cycles)
	}
}

func TestStdPowerLowerUnderPTB(t *testing.T) {
	// The paper emphasizes PTB's minimal deviation from the budget: chip
	// power variance must not grow under PTB versus no control.
	base := mustRun(t, tiny("blackscholes", 4, TechNone, 0))
	ptb := mustRun(t, tiny("blackscholes", 4, TechPTB, core.PolicyToOne))
	if ptb.StdPowerW >= base.StdPowerW {
		t.Fatalf("PTB power std %.2f not below base %.2f", ptb.StdPowerW, base.StdPowerW)
	}
}

func TestDeterminismOfExtensions(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"spingate", func(c *Config) { c.Technique = TechPTBSpinGate }},
		{"clustered", func(c *Config) { c.PTBClusterSize = 2 }},
		{"maxbips", func(c *Config) { c.Technique = TechMaxBIPS }},
	} {
		cfgA := tiny("waternsq", 4, TechPTB, core.PolicyDynamic)
		tc.mut(&cfgA)
		cfgB := cfgA
		a := mustRun(t, cfgA)
		b := mustRun(t, cfgB)
		if a.Cycles != b.Cycles || a.EnergyJ != b.EnergyJ {
			t.Fatalf("%s non-deterministic: %d/%v vs %d/%v",
				tc.name, a.Cycles, a.EnergyJ, b.Cycles, b.EnergyJ)
		}
	}
}
