// Package budget implements the power-budget enforcement framework (§III):
// the global budget and its naive equal split into local budgets, the
// per-cycle estimated-power signal controllers act on (power tokens, not
// performance counters), and the controller stack evaluated in the paper —
// DVFS, DFS, and the two-level hybrid that PTB builds on.
package budget

import (
	"fmt"
	"math"

	"ptbsim/internal/cpu"
	"ptbsim/internal/dvfs"
	"ptbsim/internal/invariant"
	"ptbsim/internal/microarch"
	"ptbsim/internal/power"
	"ptbsim/internal/syncprim"
)

// ChipState is the per-cycle view the controllers operate on. The simulator
// rebuilds EstPJ every cycle; the PTB balancer adjusts ExtraPJ/DonatedPJ.
type ChipState struct {
	Cycle  int64
	NCores int

	// GlobalBudgetPJ is the chip budget per cycle; LocalBudgetPJ its naive
	// equal split (global/n, §III.C).
	GlobalBudgetPJ float64
	LocalBudgetPJ  []float64

	// ExtraPJ are tokens granted to each core by the PTB balancer for this
	// cycle; DonatedPJ are tokens a core has given away that are still in
	// flight (they tighten its own budget, §III.E.2).
	ExtraPJ   []float64
	DonatedPJ []float64

	// EstPJ is each core's estimated power this cycle (token-based);
	// ChipEstPJ their sum.
	EstPJ     []float64
	ChipEstPJ float64

	Cores []*cpu.Core
	Meter *power.Meter
	Sync  *syncprim.Table
}

// NewChipState allocates the state for n cores with the given global
// budget.
func NewChipState(cores []*cpu.Core, meter *power.Meter, sync *syncprim.Table, globalBudgetPJ float64) *ChipState {
	n := len(cores)
	st := &ChipState{
		NCores:         n,
		GlobalBudgetPJ: globalBudgetPJ,
		LocalBudgetPJ:  make([]float64, n),
		ExtraPJ:        make([]float64, n),
		DonatedPJ:      make([]float64, n),
		EstPJ:          make([]float64, n),
		Cores:          cores,
		Meter:          meter,
		Sync:           sync,
	}
	for i := range st.LocalBudgetPJ {
		st.LocalBudgetPJ[i] = globalBudgetPJ / float64(n)
	}
	return st
}

// Refresh recomputes the estimated-power signal for the new cycle and
// clears the per-cycle PTB grants.
func (st *ChipState) Refresh(cycle int64) {
	st.Cycle = cycle
	st.ChipEstPJ = 0
	for i, c := range st.Cores {
		st.ExtraPJ[i] = 0
		st.EstPJ[i] = Estimate(c, st.Meter)
		st.ChipEstPJ += st.EstPJ[i]
	}
}

// EffectiveLocal returns core i's local budget for this cycle: the naive
// share, minus in-flight donations, plus PTB grants.
func (st *ChipState) EffectiveLocal(i int) float64 {
	return st.LocalBudgetPJ[i] - st.DonatedPJ[i] + st.ExtraPJ[i]
}

// ChipOver reports whether the chip exceeds the global budget this cycle.
func (st *ChipState) ChipOver() bool { return st.ChipEstPJ > st.GlobalBudgetPJ }

// Estimate computes a core's per-cycle power estimate in picojoules: the
// analytically known clock/leakage floor at its current operating point,
// the window-residency term (ROB occupancy × the token unit), and the
// short-horizon average of PTHT token consumption (§III.B — power is
// estimated by "accumulating the power-tokens of each instruction being
// fetched"; the average spreads each instruction's lifetime cost over the
// cycles it is in flight, no performance counters involved).
func Estimate(c *cpu.Core, m *power.Meter) float64 {
	v := m.Voltage(c.ID())
	vsq := v * v
	floor := power.EnergyPJ[power.EvClockActive]*vsq*c.Speed() +
		power.EnergyPJ[power.EvLeakage]*v
	dyn := (c.TokenRate() + float64(c.ROBOccupancy())) * power.TokenUnitPJ
	return floor + dyn*vsq
}

// Controller is one budget-matching technique, ticked once per global
// cycle after the state is refreshed.
type Controller interface {
	Tick(st *ChipState)
}

// DVFSController is the paper's technique (a)/(b): a per-core window-based
// governor over a voltage/frequency ladder.
type DVFSController struct {
	gov    *dvfs.Governor
	window int64
	acc    []float64
	chip   float64
	count  int64

	// Relax widens the budget the governor aims for (§IV.C): the
	// power-saving modes engage only relax above the local budget.
	Relax float64
}

// NewDVFS builds the five-mode DVFS controller for n cores.
func NewDVFS(n int) *DVFSController {
	return &DVFSController{
		gov:    dvfs.NewGovernor(n, dvfs.DVFSModes()),
		window: dvfs.DefaultWindow,
		acc:    make([]float64, n),
	}
}

// NewDFS builds the frequency-only variant.
func NewDFS(n int) *DVFSController {
	c := NewDVFS(n)
	c.gov = dvfs.NewGovernor(n, dvfs.DFSModes())
	return c
}

// Governor returns the underlying governor (fault wiring, telemetry).
func (d *DVFSController) Governor() *dvfs.Governor { return d.gov }

// SetWindow overrides the decision window (ablation knob; default
// dvfs.DefaultWindow).
func (d *DVFSController) SetWindow(w int64) {
	if w < 1 {
		w = 1
	}
	d.window = w
}

// Tick accumulates estimates and, at window boundaries, re-decides every
// core's operating point.
func (d *DVFSController) Tick(st *ChipState) {
	for i := range st.EstPJ {
		d.acc[i] += st.EstPJ[i]
	}
	d.chip += st.ChipEstPJ
	d.count++
	if d.count < d.window {
		return
	}
	chipOver := d.chip/float64(d.count) > st.GlobalBudgetPJ*(1+d.Relax)
	for i, c := range st.Cores {
		avg := d.acc[i] / float64(d.count)
		mode, changed := d.gov.Decide(i, avg, st.EffectiveLocal(i)*(1+d.Relax), chipOver)
		if changed {
			c.SetSpeed(mode.F, dvfs.DefaultTransitionTicks)
			st.Meter.SetVoltage(i, mode.V)
		}
		d.acc[i] = 0
	}
	d.chip = 0
	d.count = 0
}

// TwoLevel is technique (c): the DVFS first level plus the per-cycle
// microarchitectural spike clipper, optionally relaxed (§IV.C) to trigger
// only RelaxFrac above the budget.
type TwoLevel struct {
	DVFS      *DVFSController
	RelaxFrac float64

	// techniqueCycles counts, per level, how many core-cycles each rung was
	// engaged (ablation/stats).
	techniqueCycles [microarch.NumLevels]int64
}

// NewTwoLevel builds the hybrid controller for n cores. The relax
// threshold (§IV.C) loosens both levels: the DVFS governor aims for
// budget×(1+relax) and the microarchitectural clipper triggers only that
// far above the (grant-adjusted) local budget.
func NewTwoLevel(n int, relax float64) *TwoLevel {
	d := NewDVFS(n)
	d.Relax = relax
	return &TwoLevel{DVFS: d, RelaxFrac: relax}
}

// TechniqueCycles returns how many core-cycles each rung was engaged.
func (t *TwoLevel) TechniqueCycles() [microarch.NumLevels]int64 {
	return t.techniqueCycles
}

// Tick runs the coarse DVFS level then clips remaining spikes with the
// microarchitectural ladder.
func (t *TwoLevel) Tick(st *ChipState) {
	t.DVFS.Tick(st)
	chipOver := st.ChipOver()
	for i, c := range st.Cores {
		k := c.Knobs()
		eff := st.EffectiveLocal(i)
		lvl := microarch.LevelNone
		if chipOver && eff > 0 && st.EstPJ[i] > eff*(1+t.RelaxFrac) {
			lvl = microarch.ForDistance((st.EstPJ[i] - eff) / eff)
		}
		microarch.Apply(k, lvl)
		t.techniqueCycles[lvl]++
	}
}

// CheckState verifies the budget-framework invariants on the per-cycle
// chip state, for the invariant layer:
//
//   - the naive local split sums back to the global budget (§III.C);
//   - no core donated more than its local share, and no ledger is
//     negative (a donor can only give away unused allotment, §III.E.2);
//   - ChipEstPJ is the sum of the per-core estimates, and is finite;
//   - the chip-wide estimate stays within a generous multiple of
//     structuralPeakPJ (the all-ports-fire worst case). The estimate is a
//     forecast: it charges each instruction's lifetime energy — cache-miss
//     service included — at fetch over an 8-cycle window (§III.B), so
//     during miss bursts it legitimately exceeds the structural per-cycle
//     peak by small factors. A double-counting bug in the token model
//     compounds far past estSlack, which is what the bound catches.
func CheckState(st *ChipState, structuralPeakPJ float64) error {
	var localSum float64
	for i := 0; i < st.NCores; i++ {
		localSum += st.LocalBudgetPJ[i]
		if st.LocalBudgetPJ[i] < 0 {
			return fmt.Errorf("budget: core %d negative local budget %.6f pJ", i, st.LocalBudgetPJ[i])
		}
		if st.DonatedPJ[i] < 0 || st.DonatedPJ[i] > st.LocalBudgetPJ[i]+1e-9 {
			return fmt.Errorf("budget: core %d donated %.6f pJ outside [0, local %.6f]",
				i, st.DonatedPJ[i], st.LocalBudgetPJ[i])
		}
		if st.ExtraPJ[i] < 0 {
			return fmt.Errorf("budget: core %d negative grant %.6f pJ", i, st.ExtraPJ[i])
		}
		if st.EstPJ[i] < 0 {
			return fmt.Errorf("budget: core %d negative power estimate %.6f pJ", i, st.EstPJ[i])
		}
	}
	if !invariant.CloseTo(localSum, st.GlobalBudgetPJ) {
		return fmt.Errorf("budget: local budgets sum to %.6f pJ, global budget is %.6f pJ",
			localSum, st.GlobalBudgetPJ)
	}
	var estSum float64
	for i := 0; i < st.NCores; i++ {
		estSum += st.EstPJ[i]
	}
	if !invariant.CloseTo(estSum, st.ChipEstPJ) {
		return fmt.Errorf("budget: ChipEstPJ %.6f pJ != Σ per-core estimates %.6f pJ", st.ChipEstPJ, estSum)
	}
	if math.IsNaN(st.ChipEstPJ) || math.IsInf(st.ChipEstPJ, 0) {
		return fmt.Errorf("budget: chip estimate is %v", st.ChipEstPJ)
	}
	const estSlack = 16
	if structuralPeakPJ > 0 && st.ChipEstPJ > estSlack*structuralPeakPJ {
		return fmt.Errorf("budget: chip estimate %.6f pJ exceeds %d× the structural peak %.6f pJ",
			st.ChipEstPJ, estSlack, structuralPeakPJ)
	}
	return nil
}

// None is the no-control baseline.
type None struct{}

// Tick does nothing.
func (None) Tick(*ChipState) {}
