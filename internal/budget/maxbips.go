package budget

import (
	"ptbsim/internal/dvfs"
)

// MaxBIPS implements the chip-level global power-management policy of Isci
// et al. [1] that the paper positions PTB against (§II.C): every window,
// choose the combination of per-core DVFS modes that maximizes predicted
// chip throughput (billions of instructions per second) subject to the
// global power budget. The predictor is the classic MaxBIPS assumption —
// per-core throughput scales with frequency, per-core power with V²f —
// driven by *performance counters* (retired instructions per window).
//
// This baseline is exactly what the paper criticizes for parallel
// workloads: a spinning core has a high counter-measured IPC while doing
// no useful work, so MaxBIPS happily spends budget speeding up spin loops
// at the expense of critical threads. It is included as the related-work
// comparator; its failure mode is visible on the lock-bound benchmarks.
type MaxBIPS struct {
	modes  []dvfs.Mode
	window int64

	accEst  []float64
	lastRet []int64
	count   int64
	idx     []int

	transitions int64
}

// NewMaxBIPS builds the controller for n cores over the DVFS ladder.
func NewMaxBIPS(n int) *MaxBIPS {
	return &MaxBIPS{
		modes:   dvfs.DVFSModes(),
		window:  dvfs.DefaultWindow,
		accEst:  make([]float64, n),
		lastRet: make([]int64, n),
		idx:     make([]int, n),
	}
}

// Transitions returns the number of mode changes applied.
func (m *MaxBIPS) Transitions() int64 { return m.transitions }

// ModeIndex returns a core's current ladder position.
func (m *MaxBIPS) ModeIndex(core int) int { return m.idx[core] }

func dynScale(md dvfs.Mode) float64 { return md.V * md.V * md.F }

// Tick accumulates per-core power and retirement counters; at window
// boundaries it re-solves the mode assignment with a greedy knapsack:
// start everything at full speed and repeatedly downgrade the core with
// the cheapest throughput loss per watt saved until the chip fits the
// budget.
func (m *MaxBIPS) Tick(st *ChipState) {
	for i := range st.EstPJ {
		m.accEst[i] += st.EstPJ[i]
	}
	m.count++
	if m.count < m.window {
		return
	}

	n := st.NCores
	// Per-core nominal power and measured throughput for the next window.
	nominal := make([]float64, n)
	bips := make([]float64, n)
	for i, c := range st.Cores {
		nominal[i] = m.accEst[i] / float64(m.count) / dynScale(m.modes[m.idx[i]])
		ret := c.Stats().Committed
		bips[i] = float64(ret-m.lastRet[i]) / float64(m.count)
		m.lastRet[i] = ret
		m.accEst[i] = 0
	}
	m.count = 0

	// Greedy knapsack over mode assignments.
	assign := make([]int, n)
	chipPower := func() float64 {
		p := 0.0
		for i := 0; i < n; i++ {
			p += nominal[i] * dynScale(m.modes[assign[i]])
		}
		return p
	}
	for chipPower() > st.GlobalBudgetPJ {
		best, bestRatio := -1, 0.0
		for i := 0; i < n; i++ {
			if assign[i] == len(m.modes)-1 {
				continue
			}
			cur, next := m.modes[assign[i]], m.modes[assign[i]+1]
			dPower := nominal[i] * (dynScale(cur) - dynScale(next))
			if dPower <= 0 {
				continue
			}
			dBips := bips[i] * (cur.F - next.F)
			ratio := dBips / dPower
			if best < 0 || ratio < bestRatio {
				best, bestRatio = i, ratio
			}
		}
		if best < 0 {
			break // everything at the bottom of the ladder
		}
		assign[best]++
	}

	for i, c := range st.Cores {
		if assign[i] == m.idx[i] {
			continue
		}
		m.idx[i] = assign[i]
		md := m.modes[assign[i]]
		c.SetSpeed(md.F, dvfs.DefaultTransitionTicks)
		st.Meter.SetVoltage(i, md.V)
		m.transitions++
	}
}
