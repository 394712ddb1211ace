package figures

import (
	"context"
	"testing"

	"ptbsim"
)

// TestPaperShapesRegression locks in the qualitative results the
// reproduction stands on (EXPERIMENTS.md): if a future change breaks one of
// the paper's headline orderings, this test names it. It runs a reduced
// sweep (3 representative benchmarks, 8 cores), so thresholds are
// deliberately loose — shapes, not magnitudes.
func TestPaperShapesRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("shape regression skipped in -short mode")
	}
	e := ptbsim.NewExperiment(ptbsim.WithScale(0.15), ptbsim.WithMaxCycles(20_000_000))
	benches := []string{"ocean", "unstructured", "blackscholes"}
	const cores = 8
	relaxed := ptb(ptbsim.ToAll)
	relaxed.relax = 0.20
	r, err := fetch(context.Background(), e, benches, []int{2, cores},
		dfs, dvfs, twoLevel, ptb(ptbsim.ToAll), ptb(ptbsim.Dynamic), relaxed)
	if err != nil {
		t.Fatal(err)
	}

	avgAoPB := func(ts techSpec, n int) float64 {
		s := 0.0
		for _, b := range benches {
			s += ptbsim.NormalizedAoPBPct(r.get(b, n, ts), r.base(b, n))
		}
		return s / float64(len(benches))
	}

	aDFS := avgAoPB(dfs, cores)
	aDVFS := avgAoPB(dvfs, cores)
	a2lvl := avgAoPB(twoLevel, cores)
	aPTB := avgAoPB(ptb(ptbsim.ToAll), cores)

	// Shape 1: coarse-grained DVFS-family techniques cannot track the
	// budget the way fine-grained ones do (paper: DVFS/DFS ≥65%,
	// fine-grained ~10%).
	if aDFS <= aDVFS {
		t.Errorf("DFS (%.1f%%) should leak more AoPB than DVFS (%.1f%%)", aDFS, aDVFS)
	}
	if a2lvl >= aDVFS || aPTB >= aDVFS {
		t.Errorf("fine-grained AoPB (2lvl %.1f%%, PTB %.1f%%) should be well below DVFS (%.1f%%)",
			a2lvl, aPTB, aDVFS)
	}
	if aPTB > 0.6*aDFS {
		t.Errorf("PTB AoPB %.1f%% not a clear improvement over DFS %.1f%%", aPTB, aDFS)
	}

	// Shape 2: accuracy improves with core count (paper Fig. 9).
	if a2c := avgAoPB(ptb(ptbsim.ToAll), 2); aPTB >= a2c {
		t.Errorf("PTB AoPB did not improve from 2 cores (%.1f%%) to %d cores (%.1f%%)", a2c, cores, aPTB)
	}

	// Shape 3: PTB recovers throttling performance on the lock-bound app
	// (paper Fig. 13's unstructured story).
	base := r.base("unstructured", cores)
	sPTB := ptbsim.SlowdownPct(r.get("unstructured", cores, ptb(ptbsim.Dynamic)), base)
	s2lvl := ptbsim.SlowdownPct(r.get("unstructured", cores, twoLevel), base)
	if sPTB >= s2lvl {
		t.Errorf("PTB slowdown %.1f%% not below plain 2level %.1f%% on unstructured", sPTB, s2lvl)
	}

	// Shape 4: relaxing trades accuracy away (paper §IV.C).
	if aRelax := avgAoPB(relaxed, cores); aRelax <= aPTB {
		t.Errorf("relaxed PTB AoPB %.1f%% not above strict %.1f%%", aRelax, aPTB)
	}
}
