package core

import (
	"testing"

	"ptbsim/internal/budget"
	"ptbsim/internal/cpu"
	"ptbsim/internal/isa"
	"ptbsim/internal/power"
	"ptbsim/internal/syncprim"
)

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

// recorder is an inner controller that records the state it saw.
type recorder struct {
	budget.None
	extras [][]float64
}

func (r *recorder) Tick(st *budget.ChipState) {
	snap := append([]float64(nil), st.ExtraPJ...)
	r.extras = append(r.extras, snap)
}

func newPTBState(n int, globalBudget float64, sync *syncprim.Table) *budget.ChipState {
	m := power.NewMeter(n)
	tm := power.NewTokenModel()
	cores := make([]*cpu.Core, n)
	for i := range cores {
		cores[i] = cpu.New(i, cpu.DefaultConfig(), m, tm, nullMem{}, nullSync{}, nullSrc{})
	}
	return budget.NewChipState(cores, m, sync, globalBudget)
}

// setEst overrides the estimated power signal for a test cycle.
func setEst(st *budget.ChipState, cycle int64, ests ...float64) {
	st.Cycle = cycle
	st.ChipEstPJ = 0
	for i, e := range ests {
		st.EstPJ[i] = e
		st.ChipEstPJ += e
	}
	for i := range st.ExtraPJ {
		st.ExtraPJ[i] = 0
	}
}

func TestLatencyTable(t *testing.T) {
	if l := LatencyFor(4); l != (Latency{1, 1, 1}) || l.Total() != 3 {
		t.Fatalf("4-core latency %+v", l)
	}
	if l := LatencyFor(8); l != (Latency{2, 1, 2}) || l.Total() != 5 {
		t.Fatalf("8-core latency %+v", l)
	}
	if l := LatencyFor(16); l != (Latency{4, 2, 4}) || l.Total() != 10 {
		t.Fatalf("16-core latency %+v", l)
	}
	if PessimisticLatency().Total() != 10 {
		t.Fatal("pessimistic latency")
	}
}

func TestDonationAndGrantToAll(t *testing.T) {
	// 4 cores, budget 4000 (local 1000). Cores 0,1 at 400 (spare), cores
	// 2,3 at 1600 (over). Chip total 4000... make it over: 0,1 at 500 and
	// 2,3 at 1600 → chip 4200 > 4000.
	st := newPTBState(4, 4000, nil)
	rec := &recorder{}
	b := NewBalancer(4, PolicyToAll, rec) // 4-core latency: total 3
	for cyc := int64(1); cyc <= 10; cyc++ {
		setEst(st, cyc, 500, 500, 1600, 1600)
		b.Tick(st)
	}
	// During flight, donors' budgets are tightened.
	// After latency 3, grants must appear for cores 2 and 3, equally.
	final := rec.extras[len(rec.extras)-1]
	if final[2] <= 0 || final[3] <= 0 {
		t.Fatalf("over-budget cores received no grants: %v", final)
	}
	if final[2] != final[3] {
		t.Fatalf("ToAll split unequal: %v", final)
	}
	if final[0] != 0 || final[1] != 0 {
		t.Fatalf("under-budget cores received grants: %v", final)
	}
	donated, granted, _, rounds := b.Stats()
	if donated <= 0 || granted <= 0 || rounds == 0 {
		t.Fatalf("stats: donated=%v granted=%v rounds=%d", donated, granted, rounds)
	}
}

func TestGrantLatencyRespected(t *testing.T) {
	st := newPTBState(4, 4000, nil)
	rec := &recorder{}
	b := NewBalancer(4, PolicyToAll, rec)
	for cyc := int64(1); cyc <= 3; cyc++ {
		setEst(st, cyc, 500, 500, 1600, 1600)
		b.Tick(st)
	}
	// Donations start at cycle 1, latency 3 → first grants at cycle 4, so
	// through cycle 3 no extra tokens may appear.
	for i, snap := range rec.extras {
		for c, v := range snap {
			if v != 0 {
				t.Fatalf("grant appeared at tick %d core %d before latency elapsed", i+1, c)
			}
		}
	}
}

func TestToOneGivesAllToNeediest(t *testing.T) {
	st := newPTBState(4, 4000, nil)
	rec := &recorder{}
	b := NewBalancer(4, PolicyToOne, rec)
	for cyc := int64(1); cyc <= 10; cyc++ {
		setEst(st, cyc, 300, 300, 1200, 2400) // core 3 needs the most
		b.Tick(st)
	}
	final := rec.extras[len(rec.extras)-1]
	if final[3] <= 0 {
		t.Fatalf("neediest core got nothing: %v", final)
	}
	if final[0] != 0 || final[1] != 0 || final[2] != 0 {
		t.Fatalf("ToOne leaked grants to other cores: %v", final)
	}
}

func TestDonorBudgetTightened(t *testing.T) {
	st := newPTBState(4, 4000, nil)
	b := NewBalancer(4, PolicyToAll, &recorder{})
	setEst(st, 1, 100, 100, 1950, 1950)
	b.Tick(st)
	if st.DonatedPJ[0] <= 0 || st.DonatedPJ[1] <= 0 {
		t.Fatalf("donors not tightened: %v", st.DonatedPJ)
	}
	// The donation reflects this cycle's spare and never exceeds it.
	if st.DonatedPJ[0] > st.LocalBudgetPJ[0]-st.EstPJ[0]+1e-9 {
		t.Fatalf("donated %v beyond spare %v", st.DonatedPJ[0], st.LocalBudgetPJ[0]-st.EstPJ[0])
	}
	// Once a donor has no spare, its tighter budget is lifted immediately.
	setEst(st, 2, 2000, 2000, 2000, 2000)
	b.Tick(st)
	if st.DonatedPJ[0] != 0 || st.DonatedPJ[1] != 0 {
		t.Fatalf("donation hold not lifted: %v", st.DonatedPJ)
	}
	// Steady-state conservation: in any cycle the chip-wide allowance
	// (sum of effective local budgets plus grants still in flight)
	// matches the global budget.
	setEst(st, 3, 100, 100, 1950, 1950)
	b.Tick(st)
	var allowance float64
	for i := 0; i < 4; i++ {
		allowance += st.EffectiveLocal(i)
	}
	if allowance > st.GlobalBudgetPJ+1e-9 {
		t.Fatalf("chip allowance %v exceeds global budget %v", allowance, st.GlobalBudgetPJ)
	}
}

func TestNoDonationWhenChipUnderBudget(t *testing.T) {
	st := newPTBState(4, 100000, nil)
	b := NewBalancer(4, PolicyToAll, &recorder{})
	setEst(st, 1, 500, 500, 1600, 1600) // chip well under global
	b.Tick(st)
	donated, _, _, _ := b.Stats()
	if donated != 0 {
		t.Fatalf("donated %v while chip under global budget", donated)
	}
}

func TestTokensNotStoredAcrossCycles(t *testing.T) {
	st := newPTBState(4, 4000, nil)
	rec := &recorder{}
	b := NewBalancer(4, PolicyToAll, rec)
	// One donation round, then everyone under budget when it lands.
	setEst(st, 1, 500, 500, 1600, 1600)
	b.Tick(st)
	for cyc := int64(2); cyc <= 10; cyc++ {
		setEst(st, cyc, 100, 100, 100, 100)
		b.Tick(st)
	}
	_, granted, discarded, _ := b.Stats()
	if granted != 0 {
		t.Fatalf("granted %v with no needy cores", granted)
	}
	if discarded <= 0 {
		t.Fatal("landed tokens with no takers must be discarded")
	}
}

func TestDynamicPolicySelector(t *testing.T) {
	sync := syncprim.NewTable(4, 1, 1)
	st := newPTBState(4, 4000, sync)
	b := NewBalancer(4, PolicyDynamic, &recorder{})

	// Barrier spinning → ToAll.
	sync.SetState(1, isa.SyncBarrier)
	if got := b.dynamicPolicy(st); got != PolicyToAll {
		t.Fatalf("barrier spin chose %v", got)
	}
	// Lock spinning anywhere → ToOne.
	sync.SetState(2, isa.SyncLockAcq)
	if got := b.dynamicPolicy(st); got != PolicyToOne {
		t.Fatalf("lock spin chose %v", got)
	}
	// No spinning → ToAll.
	sync.SetState(1, isa.SyncBusy)
	sync.SetState(2, isa.SyncBusy)
	if got := b.dynamicPolicy(st); got != PolicyToAll {
		t.Fatalf("no spin chose %v", got)
	}
}

func TestWireQuantization(t *testing.T) {
	st := newPTBState(2, 2000, nil) // local 1000, quantum ~66.7
	b := NewBalancer(2, PolicyToAll, &recorder{})
	// Core 0 has 100 spare (1 quantum = 66.7); core 1 hugely over.
	setEst(st, 1, 900, 5000)
	b.Tick(st)
	donated, _, _, _ := b.Stats()
	quantum := 1000.0 / 15
	if donated != quantum {
		t.Fatalf("donated %v, want exactly one wire quantum %v", donated, quantum)
	}
}

func TestPTBEnergyCharged(t *testing.T) {
	st := newPTBState(2, 2000, nil)
	b := NewBalancer(2, PolicyToAll, &recorder{})
	setEst(st, 1, 100, 100)
	b.Tick(st)
	if st.Meter.Count(0, power.EvPTBWire) == 0 || st.Meter.Count(0, power.EvPTBLogic) == 0 {
		t.Fatal("PTB hardware energy not charged")
	}
}

func TestSpinDetectorFlagsLowStablePower(t *testing.T) {
	st := newPTBState(2, 2000, nil) // local 1000
	d := NewPowerPatternDetector(2)
	// Core 0 busy (noisy, high); core 1 spinning (low, stable).
	for cyc := int64(0); cyc < 3000; cyc++ {
		noise := float64((cyc % 7)) * 120
		setEst(st, cyc, 900+noise, 200)
		d.Update(st)
	}
	if d.Spinning(0) {
		t.Fatal("busy core flagged as spinning")
	}
	if !d.Spinning(1) {
		t.Fatal("spinning core not flagged")
	}
	if d.SpinEntries() == 0 {
		t.Fatal("no spin entries counted")
	}
}

func TestSpinDetectorRecovers(t *testing.T) {
	st := newPTBState(1, 1000, nil)
	d := NewPowerPatternDetector(1)
	for cyc := int64(0); cyc < 2000; cyc++ {
		setEst(st, cyc, 150)
		d.Update(st)
	}
	if !d.Spinning(0) {
		t.Fatal("precondition: should be flagged")
	}
	for cyc := int64(0); cyc < 2000; cyc++ {
		noise := float64((cyc % 5)) * 200
		setEst(st, cyc, 900+noise)
		d.Update(st)
	}
	if d.Spinning(0) {
		t.Fatal("detector stuck after core resumed useful work")
	}
}
