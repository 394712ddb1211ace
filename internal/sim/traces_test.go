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
