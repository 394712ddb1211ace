package sim

import (
	"testing"

	"ptbsim/internal/workload"
)

func TestAllBenchmarksList(t *testing.T) {
	if n := len(workload.Catalog()); n != 14 {
		t.Fatalf("%d benchmarks", n)
	}
	if CoreCounts()[3] != 16 {
		t.Fatal("core counts wrong")
	}
}

func TestFigTraces(t *testing.T) {
	trace, budget := Fig5Trace(0.05)
	if len(trace) == 0 || budget <= 0 {
		t.Fatal("fig5 trace empty")
	}
	ct, local := Fig6Trace(0.05)
	if len(ct) == 0 || local <= 0 {
		t.Fatal("fig6 trace empty")
	}
	// The spinning-core trace must show clear variation (peaks + spin
	// floor).
	minV, maxV := ct[0], ct[0]
	for _, v := range ct {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if maxV <= minV {
		t.Fatal("fig6 trace is flat")
	}
}

func TestAblationKnobsWireThrough(t *testing.T) {
	// Sanity: the ablation knobs produce runnable systems.
	spec, ok := workload.ByName("fft")
	if !ok {
		t.Fatal("unknown benchmark")
	}
	for _, cfg := range []Config{
		{Benchmark: spec, Cores: 2, Technique: TechPTB, WireBits: 2, WorkloadScale: 0.04},
		{Benchmark: spec, Cores: 2, Technique: TechPTB, TokenGroups: 3, WorkloadScale: 0.04},
		{Benchmark: spec, Cores: 2, Technique: TechDVFS, DVFSWindow: 128, WorkloadScale: 0.04},
	} {
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Committed == 0 {
			t.Fatal("no progress with ablation knob")
		}
	}
}
