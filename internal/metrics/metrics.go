// Package metrics implements the paper's evaluation metrics: Area over the
// Power Budget (AoPB, Fig. 1), total energy, performance, the Fig. 3
// execution-time breakdown, the Fig. 4 spinning-power share, and power/
// temperature statistics.
package metrics

import (
	"math"

	"ptbsim/internal/isa"
)

// CycleSeconds is the duration of one 3GHz cycle.
const CycleSeconds = 1.0 / 3e9

// PJToJ converts picojoules to joules.
const PJToJ = 1e-12

// Collector accumulates per-cycle measurements during a run.
type Collector struct {
	budgetPJ float64 // global per-cycle budget; <=0 disables AoPB tracking

	cycles       int64
	chipEnergyPJ float64
	aopbPJ       float64
	overCycles   int64

	sumChip   float64
	sumChipSq float64

	// classCycles[class] counts core-cycles spent in each activity class
	// chip-wide; classEnergy[class] the corresponding energy.
	classCycles [isa.NumSyncClasses]int64
	classEnergy [isa.NumSyncClasses]float64
}

// NewCollector creates a collector. budgetPJ is the global per-cycle energy
// budget in picojoules (pass 0 when no budget applies).
func NewCollector(budgetPJ float64) *Collector {
	return &Collector{budgetPJ: budgetPJ}
}

// Record accumulates one cycle: per-core tile energies (pJ) and per-core
// activity classes.
func (c *Collector) Record(perCorePJ []float64, classes []isa.SyncClass) {
	c.cycles++
	var chip float64
	for i, e := range perCorePJ {
		chip += e
		cl := classes[i]
		c.classCycles[cl]++
		c.classEnergy[cl] += e
	}
	c.chipEnergyPJ += chip
	c.sumChip += chip
	c.sumChipSq += chip * chip
	if c.budgetPJ > 0 && chip > c.budgetPJ {
		c.aopbPJ += chip - c.budgetPJ
		c.overCycles++
	}
}

// Cycles returns the number of recorded cycles.
func (c *Collector) Cycles() int64 { return c.cycles }

// EnergyJ returns the total chip energy in joules.
func (c *Collector) EnergyJ() float64 { return c.chipEnergyPJ * PJToJ }

// AoPBJ returns the area over the power budget in joules: the integral of
// chip power above the budget line (Fig. 1).
func (c *Collector) AoPBJ() float64 { return c.aopbPJ * PJToJ }

// OverBudgetFrac returns the fraction of cycles the chip exceeded the
// budget.
func (c *Collector) OverBudgetFrac() float64 {
	if c.cycles == 0 {
		return 0
	}
	return float64(c.overCycles) / float64(c.cycles)
}

// MeanPowerW returns the mean chip power in watts.
func (c *Collector) MeanPowerW() float64 {
	if c.cycles == 0 {
		return 0
	}
	return (c.sumChip / float64(c.cycles)) * PJToJ / CycleSeconds
}

// StdPowerW returns the standard deviation of per-cycle chip power in
// watts. The paper emphasizes PTB's minimal deviation from the budget.
func (c *Collector) StdPowerW() float64 {
	if c.cycles < 2 {
		return 0
	}
	n := float64(c.cycles)
	mean := c.sumChip / n
	v := c.sumChipSq/n - mean*mean
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v) * PJToJ / CycleSeconds
}

// ClassCycleFrac returns the fraction of core-cycles in each activity class
// (the Fig. 3 breakdown).
func (c *Collector) ClassCycleFrac() [isa.NumSyncClasses]float64 {
	var out [isa.NumSyncClasses]float64
	var total int64
	for _, v := range c.classCycles {
		total += v
	}
	if total == 0 {
		return out
	}
	for i, v := range c.classCycles {
		out[i] = float64(v) / float64(total)
	}
	return out
}

// SpinEnergyFrac returns the fraction of chip energy consumed while cores
// were in spinning states (lock acquire/release + barrier), the Fig. 4
// metric.
func (c *Collector) SpinEnergyFrac() float64 {
	if c.chipEnergyPJ == 0 {
		return 0
	}
	spin := c.classEnergy[isa.SyncLockAcq] + c.classEnergy[isa.SyncLockRel] +
		c.classEnergy[isa.SyncBarrier]
	return spin / c.chipEnergyPJ
}

// ClassCycles returns the cumulative chip-wide core-cycles recorded per
// activity class (the counters behind ClassCycleFrac), for windowed
// observers that difference successive readouts.
func (c *Collector) ClassCycles() [isa.NumSyncClasses]int64 { return c.classCycles }

// RunResult is the summary of one simulation run.
type RunResult struct {
	Benchmark string
	Cores     int
	Technique string
	Policy    string

	Cycles         int64
	Committed      int64
	EnergyJ        float64
	AoPBJ          float64
	MeanPowerW     float64
	StdPowerW      float64
	SpinEnergyFrac float64
	ClassFrac      [isa.NumSyncClasses]float64
	OverBudgetFrac float64

	// BudgetPJ is the global per-cycle power budget in picojoules — the
	// line the AoPB integral is measured against, carried on the result so
	// trace tooling does not need to rebuild the system to learn it.
	BudgetPJ float64

	MeanTempC float64
	StdTempC  float64

	// HitMaxCycles marks a run cut off by the safety cycle cap.
	HitMaxCycles bool

	// Token-flow ledger of the PTB balancer (zero for non-PTB techniques):
	// picojoules donated into the balancer, granted back out, discarded at
	// the budget clip, and the number of balancing rounds run.
	TokenDonatedPJ   float64
	TokenGrantedPJ   float64
	TokenDiscardedPJ float64
	BalanceRounds    int64

	// Coherence traffic totals across all home directory banks.
	CohGetS int64
	CohGetX int64
	CohPut  int64
	CohFwd  int64
	CohInv  int64

	// NoC totals: messages injected and flit-link traversals.
	NoCMessages int64
	NoCFlits    int64

	// ComponentJ breaks total energy down by structure group (frontend,
	// execute, caches, noc, dram, power-mgmt, clock, leakage), in joules.
	ComponentJ map[string]float64

	// Fault-injection telemetry (all zero unless a fault spec was wired).
	// None of these fields enter Result.Digest — the digest format is pinned
	// by the committed golden matrix, and the zero-rate identity is asserted
	// on the digest itself.

	// Degraded marks a run in which the PTB balancer left ideal operation:
	// a token batch was lost past the retry bound, or the stale-token
	// watchdog fell back to a static share.
	Degraded bool
	// FaultsInjected counts every fault decision that fired, all domains.
	FaultsInjected int64
	// TokenLostPJ and TokenDupPJ extend the token ledger under injection:
	// energy of batches lost past the retry bound, and extra energy from
	// duplicated batches.
	TokenLostPJ float64
	TokenDupPJ  float64
	// TokenRetries counts batch retransmissions; TokenReportsLost counts
	// lost core→balancer report messages; StaleFallbackCycles counts
	// core-cycles the watchdog ran on the static-share fallback.
	TokenRetries        int64
	TokenReportsLost    int64
	StaleFallbackCycles int64
	// NoCStallCycles and NoCRetransmits tally injected link faults.
	NoCStallCycles int64
	NoCRetransmits int64
	// DVFSGlitches counts failed mode transitions.
	DVFSGlitches int64
}

// NormalizedEnergyPct returns the paper's "Normalized Energy (%)": the
// energy delta of r versus the no-control base, in percent (negative =
// savings).
func NormalizedEnergyPct(r, base *RunResult) float64 {
	if base.EnergyJ == 0 {
		return 0
	}
	return (r.EnergyJ/base.EnergyJ - 1) * 100
}

// NormalizedAoPBPct returns the paper's "Normalized AoPB (%)": the area
// over the budget relative to the uncontrolled base case.
func NormalizedAoPBPct(r, base *RunResult) float64 {
	if base.AoPBJ == 0 {
		return 0
	}
	return r.AoPBJ / base.AoPBJ * 100
}

// SlowdownPct returns the performance degradation of r versus base in
// percent (positive = slower).
func SlowdownPct(r, base *RunResult) float64 {
	if base.Cycles == 0 {
		return 0
	}
	return (float64(r.Cycles)/float64(base.Cycles) - 1) * 100
}
