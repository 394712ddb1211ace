package core

import "ptbsim/internal/budget"

// SpinGate is the paper's stated future-work extension (§IV.C): "higher
// energy savings could be achieved if we use PTB as a spinlock detector and
// we disable the spinning cores to save power." It layers on the balancer:
// a core whose power pattern has been flagged as spinning by the
// PowerPatternDetector is sleep-gated (clock stopped, leakage power-gated)
// on a duty cycle, polling briefly each period so a lock release or a
// barrier flag is observed within a bounded latency.
//
// Two details make this safe:
//
//   - Wake-up is bounded: the core runs gateOpen of every gatePeriod
//     cycles, so the spin loop re-executes at least once per period.
//   - The detector is masked during sleep cycles: a frozen core's
//     near-zero power looks exactly like spinning, so unmasked updates
//     would keep a core flagged forever even after it acquired its lock.
//     With the mask, the open-window samples alone decide — a core doing
//     useful work in its window destabilizes the pattern and is released
//     within about one period.
type SpinGate struct {
	bal *Balancer

	// gatePeriod/gateOpen control the duty cycle: the core sleeps except
	// for gateOpen cycles out of every gatePeriod.
	gatePeriod int64
	gateOpen   int64

	sleeping    []bool
	gatedCycles int64
}

// Spin-gate duty cycle defaults: poll 8 of every 64 cycles while flagged.
const (
	defaultGatePeriod = 64
	defaultGateOpen   = 8
)

// NewSpinGate wraps a balancer with spin gating.
func NewSpinGate(bal *Balancer) *SpinGate {
	g := &SpinGate{
		bal:        bal,
		gatePeriod: defaultGatePeriod,
		gateOpen:   defaultGateOpen,
		sleeping:   make([]bool, bal.n),
	}
	bal.SetDetectorMask(g.sleeping)
	return g
}

// GatedCycles returns how many core-cycles were sleep-gated.
func (g *SpinGate) GatedCycles() int64 { return g.gatedCycles }

// Tick runs PTB, then sleep-gates the cores the power-pattern detector
// currently flags as spinning (outside their polling window).
func (g *SpinGate) Tick(st *budget.ChipState) {
	// Decide sleep for this cycle before the balancer runs so the detector
	// mask reflects it.
	det := g.bal.Detector()
	phase := st.Cycle % g.gatePeriod
	for i, c := range st.Cores {
		sleep := det.Spinning(i) && phase >= g.gateOpen
		g.sleeping[i] = sleep
		c.Knobs().SleepGate = sleep
		if sleep {
			g.gatedCycles++
		}
	}
	g.bal.Tick(st)
	// The inner controller may have rewritten the knobs; reassert the
	// sleep decision (a flagged core is far under budget, so the ladder
	// left it at LevelNone anyway).
	for i, c := range st.Cores {
		if g.sleeping[i] {
			c.Knobs().SleepGate = true
		}
	}
}
