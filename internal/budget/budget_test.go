package budget

import (
	"testing"

	"ptbsim/internal/cpu"
	"ptbsim/internal/dvfs"
	"ptbsim/internal/isa"
	"ptbsim/internal/microarch"
	"ptbsim/internal/power"
)

// nullMem satisfies cpu.MemSystem with instant completion.
type nullMem struct{}

func (nullMem) Read(core int, addr uint64, done func())      { done() }
func (nullMem) Write(core int, addr uint64, done func())     { done() }
func (nullMem) FetchProbe(core int, addr uint64) bool        { return true }
func (nullMem) FetchMiss(core int, addr uint64, done func()) { done() }

type nullSrc struct{}

func (nullSrc) Next() (isa.Inst, bool) { return isa.Inst{}, false }
func (nullSrc) Resolve(int64)          {}

type nullSync struct{}

func (nullSync) Eval(int, isa.Inst) int64 { return 0 }

func newState(n int, globalBudget float64) *ChipState {
	m := power.NewMeter(n)
	tm := power.NewTokenModel()
	cores := make([]*cpu.Core, n)
	for i := range cores {
		cores[i] = cpu.New(i, cpu.DefaultConfig(), m, tm, nullMem{}, nullSync{}, nullSrc{})
	}
	return NewChipState(cores, m, nil, globalBudget)
}

func TestLocalBudgetSplit(t *testing.T) {
	st := newState(4, 4000)
	for i := 0; i < 4; i++ {
		if st.LocalBudgetPJ[i] != 1000 {
			t.Fatalf("local budget[%d] = %v, want 1000", i, st.LocalBudgetPJ[i])
		}
	}
}

func TestEffectiveLocal(t *testing.T) {
	st := newState(2, 2000)
	st.DonatedPJ[0] = 200
	st.ExtraPJ[0] = 50
	if got := st.EffectiveLocal(0); got != 850 {
		t.Fatalf("effective local = %v, want 850", got)
	}
}

func TestEstimateFloor(t *testing.T) {
	st := newState(1, 1000)
	st.Refresh(1)
	// An idle core estimate = clock + leakage floor at nominal V/f.
	want := power.EnergyPJ[power.EvClockActive] + power.EnergyPJ[power.EvLeakage]
	if st.EstPJ[0] != want {
		t.Fatalf("idle estimate = %v, want %v", st.EstPJ[0], want)
	}
	if st.ChipEstPJ != want {
		t.Fatalf("chip estimate = %v", st.ChipEstPJ)
	}
}

func TestEstimateScalesWithMode(t *testing.T) {
	st := newState(1, 1000)
	st.Cores[0].SetSpeed(0.65, 0)
	st.Meter.SetVoltage(0, 0.90)
	st.Refresh(1)
	full := power.EnergyPJ[power.EvClockActive] + power.EnergyPJ[power.EvLeakage]
	if st.EstPJ[0] >= full {
		t.Fatalf("scaled-down estimate %v not below nominal %v", st.EstPJ[0], full)
	}
}

func TestDVFSControllerStepsDownWhenOver(t *testing.T) {
	st := newState(2, 100) // absurdly low budget: always over
	c := NewDVFS(2)
	for cyc := int64(1); cyc <= 3*dvfs.DefaultWindow; cyc++ {
		st.Refresh(cyc)
		c.Tick(st)
	}
	for i := 0; i < 2; i++ {
		if c.Governor().ModeIndex(i) == 0 {
			t.Fatalf("core %d never stepped down under an impossible budget", i)
		}
		if st.Cores[i].Speed() >= 1.0 {
			t.Fatalf("core %d speed %v not reduced", i, st.Cores[i].Speed())
		}
	}
}

func TestDVFSControllerStepsBackUp(t *testing.T) {
	st := newState(1, 100)
	c := NewDVFS(1)
	for cyc := int64(1); cyc <= 2*dvfs.DefaultWindow; cyc++ {
		st.Refresh(cyc)
		c.Tick(st)
	}
	down := c.Governor().ModeIndex(0)
	if down == 0 {
		t.Fatal("precondition: governor should have stepped down")
	}
	// Relax the budget massively: the governor must recover.
	st.GlobalBudgetPJ = 1e9
	st.LocalBudgetPJ[0] = 1e9
	for cyc := int64(1); cyc <= 10*dvfs.DefaultWindow; cyc++ {
		st.Refresh(cyc)
		c.Tick(st)
	}
	if c.Governor().ModeIndex(0) != 0 {
		t.Fatalf("governor stuck at mode %d after budget relaxed", c.Governor().ModeIndex(0))
	}
}

func TestDFSKeepsVoltage(t *testing.T) {
	st := newState(1, 100)
	c := NewDFS(1)
	for cyc := int64(1); cyc <= 3*dvfs.DefaultWindow; cyc++ {
		st.Refresh(cyc)
		c.Tick(st)
	}
	if got := st.Meter.Voltage(0); got != 1.0 {
		t.Fatalf("DFS changed voltage to %v", got)
	}
	if st.Cores[0].Speed() >= 1.0 {
		t.Fatal("DFS did not scale frequency")
	}
}

func TestTwoLevelEngagesMicroarch(t *testing.T) {
	st := newState(1, 100)
	c := NewTwoLevel(1, 0)
	st.Refresh(1)
	// Force a large overshoot signal.
	st.EstPJ[0] = 10 * st.LocalBudgetPJ[0]
	st.ChipEstPJ = st.EstPJ[0]
	c.Tick(st)
	if lvl := microarch.LevelOf(st.Cores[0].Knobs()); lvl != microarch.LevelFetchGate {
		t.Fatalf("10x overshoot engaged %v, want fetch-gate", lvl)
	}
	// Under budget: knobs clear.
	st.EstPJ[0] = 0
	st.ChipEstPJ = 0
	c.Tick(st)
	if lvl := microarch.LevelOf(st.Cores[0].Knobs()); lvl != microarch.LevelNone {
		t.Fatalf("under budget still throttled: %v", lvl)
	}
}

func TestTwoLevelRelaxDelaysTrigger(t *testing.T) {
	st := newState(1, 1000)
	strict := NewTwoLevel(1, 0)
	relaxed := NewTwoLevel(1, 0.20)
	st.Refresh(1)
	st.EstPJ[0] = st.LocalBudgetPJ[0] * 1.1 // 10% over
	st.ChipEstPJ = st.EstPJ[0] * 10         // chip over

	strict.Tick(st)
	ifLvl := microarch.LevelOf(st.Cores[0].Knobs())
	if ifLvl == microarch.LevelNone {
		t.Fatal("strict 2level ignored a 10% overshoot")
	}
	relaxed.Tick(st)
	if lvl := microarch.LevelOf(st.Cores[0].Knobs()); lvl != microarch.LevelNone {
		t.Fatalf("relaxed(+20%%) 2level engaged %v on a 10%% overshoot", lvl)
	}
}

func TestNoneController(t *testing.T) {
	st := newState(1, 1)
	var c None
	st.Refresh(1)
	c.Tick(st)
	if st.Cores[0].Speed() != 1 {
		t.Fatal("none controller changed core speed")
	}
}

func TestChipOver(t *testing.T) {
	st := newState(2, 100)
	st.Refresh(1)
	if !st.ChipOver() {
		t.Fatal("chip should exceed a 100pJ budget")
	}
	st.GlobalBudgetPJ = 1e9
	if st.ChipOver() {
		t.Fatal("chip should be under a huge budget")
	}
}

func TestEstimateIncludesOccupancyAndTokens(t *testing.T) {
	st := newState(1, 1000)
	idle := Estimate(st.Cores[0], st.Meter)
	// Estimate is the analytic floor for an idle core; TokenRate and
	// occupancy are zero before any tick.
	wantFloor := power.EnergyPJ[power.EvClockActive] + power.EnergyPJ[power.EvLeakage]
	if idle != wantFloor {
		t.Fatalf("idle estimate %v, want floor %v", idle, wantFloor)
	}
}

func TestEstimateVoltageScaling(t *testing.T) {
	st := newState(1, 1000)
	full := Estimate(st.Cores[0], st.Meter)
	st.Meter.SetVoltage(0, 0.9)
	scaled := Estimate(st.Cores[0], st.Meter)
	if scaled >= full {
		t.Fatalf("estimate did not scale down with voltage: %v >= %v", scaled, full)
	}
}

func TestTwoLevelTechniqueCyclesAccounting(t *testing.T) {
	st := newState(1, 100)
	c := NewTwoLevel(1, 0)
	st.Refresh(1)
	st.EstPJ[0] = 10 * st.LocalBudgetPJ[0]
	st.ChipEstPJ = st.EstPJ[0]
	c.Tick(st)
	tc := c.TechniqueCycles()
	total := int64(0)
	for _, v := range tc {
		total += v
	}
	if total != 1 {
		t.Fatalf("technique cycles %v, want exactly 1 decision", tc)
	}
	if tc[microarch.LevelFetchGate] != 1 {
		t.Fatalf("expected a fetch-gate decision, got %v", tc)
	}
}
