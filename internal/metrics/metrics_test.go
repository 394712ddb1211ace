package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"ptbsim/internal/isa"
)

func TestAoPBIntegration(t *testing.T) {
	c := NewCollector(100)
	busy := []isa.SyncClass{isa.SyncBusy, isa.SyncBusy}
	// Cycle 1: 120 pJ total → 20 over. Cycle 2: 80 → 0 over.
	c.Record([]float64{70, 50}, busy)
	c.Record([]float64{40, 40}, busy)
	wantA := 20 * PJToJ
	if math.Abs(c.AoPBJ()-wantA) > 1e-18 {
		t.Fatalf("AoPB = %v, want %v", c.AoPBJ(), wantA)
	}
	wantE := 200 * PJToJ
	if math.Abs(c.EnergyJ()-wantE) > 1e-18 {
		t.Fatalf("Energy = %v, want %v", c.EnergyJ(), wantE)
	}
	if c.OverBudgetFrac() != 0.5 {
		t.Fatalf("over-budget fraction = %v", c.OverBudgetFrac())
	}
}

func TestAoPBDisabled(t *testing.T) {
	c := NewCollector(0)
	c.Record([]float64{1000}, []isa.SyncClass{isa.SyncBusy})
	if c.AoPBJ() != 0 {
		t.Fatal("AoPB tracked without a budget")
	}
}

func TestClassBreakdown(t *testing.T) {
	c := NewCollector(0)
	c.Record([]float64{10, 10}, []isa.SyncClass{isa.SyncBusy, isa.SyncBarrier})
	c.Record([]float64{10, 10}, []isa.SyncClass{isa.SyncLockAcq, isa.SyncBarrier})
	f := c.ClassCycleFrac()
	if f[isa.SyncBusy] != 0.25 || f[isa.SyncBarrier] != 0.5 || f[isa.SyncLockAcq] != 0.25 {
		t.Fatalf("breakdown = %v", f)
	}
}

func TestSpinEnergyFrac(t *testing.T) {
	c := NewCollector(0)
	c.Record([]float64{30, 10}, []isa.SyncClass{isa.SyncBusy, isa.SyncBarrier})
	if got := c.SpinEnergyFrac(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("spin energy fraction = %v, want 0.25", got)
	}
}

func TestPowerStats(t *testing.T) {
	c := NewCollector(0)
	for i := 0; i < 100; i++ {
		c.Record([]float64{300}, []isa.SyncClass{isa.SyncBusy})
	}
	// 300 pJ/cycle at 3GHz = 0.9W.
	if got := c.MeanPowerW(); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("mean power %v, want 0.9", got)
	}
	if got := c.StdPowerW(); got > 1e-9 {
		t.Fatalf("constant power should have zero std, got %v", got)
	}
}

func TestNormalization(t *testing.T) {
	base := &RunResult{EnergyJ: 2.0, AoPBJ: 0.5, Cycles: 1000}
	r := &RunResult{EnergyJ: 1.9, AoPBJ: 0.05, Cycles: 1100}
	if got := NormalizedEnergyPct(r, base); math.Abs(got+5) > 1e-9 {
		t.Fatalf("energy pct = %v, want -5", got)
	}
	if got := NormalizedAoPBPct(r, base); math.Abs(got-10) > 1e-9 {
		t.Fatalf("AoPB pct = %v, want 10", got)
	}
	if got := SlowdownPct(r, base); math.Abs(got-10) > 1e-9 {
		t.Fatalf("slowdown = %v, want 10", got)
	}
}

func TestNormalizationZeroBase(t *testing.T) {
	base := &RunResult{}
	r := &RunResult{EnergyJ: 1}
	if NormalizedEnergyPct(r, base) != 0 || NormalizedAoPBPct(r, base) != 0 || SlowdownPct(r, base) != 0 {
		t.Fatal("zero base should normalize to 0, not NaN")
	}
}

func TestAoPBNonNegativeProperty(t *testing.T) {
	f := func(vals []uint16, budget uint16) bool {
		c := NewCollector(float64(budget))
		for _, v := range vals {
			c.Record([]float64{float64(v)}, []isa.SyncClass{isa.SyncBusy})
		}
		return c.AoPBJ() >= 0 && c.EnergyJ() >= c.AoPBJ()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
