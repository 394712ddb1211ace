package cpu

import (
	"math"

	"ptbsim/internal/power"
)

// This file is the core's half of the simulator's idle skip-ahead: a
// quiescence classifier (NextWake) and an exact cheap replay of a quiescent
// tick (TickInert). The contract is strict bit-equivalence: whenever
// NextWake returns a nonzero delta, calling TickInert for the next global
// cycle performs exactly the state updates, counter increments and power
// meter events — in the same order, with the same floating-point
// expressions — that Tick would have performed. The simulator re-evaluates
// NextWake every cycle, so a controller flipping a knob (sleep gate, fetch
// gate, width throttles) or an event-queue callback waking the pipeline is
// picked up before the next tick; NextWake only ever has to be right about
// one cycle at a time, and anything it cannot prove quiescent reports
// WakeNow.

// WakeReason classifies why a core is (or is not) quiescent this cycle.
type WakeReason uint8

const (
	// WakeNow means the core is not provably quiescent: it must be ticked
	// normally. This is the conservative default for any pipeline state the
	// classifier does not recognize.
	WakeNow WakeReason = iota
	// WakeDone: the thread finished and the pipeline drained for good.
	WakeDone
	// WakeSleep: the spin-gating controller froze the core this cycle.
	WakeSleep
	// WakeThrottle: frequency scaling skips this core-domain tick entirely.
	WakeThrottle
	// WakeTransition: the core is stalled in a DVFS mode transition.
	WakeTransition
	// WakeStall: the pipeline is frozen waiting on something external — a
	// memory reply, an I-cache fill, a serializing instruction, or front-end
	// drain latency.
	WakeStall
)

// String names the reason for traces and tests.
func (r WakeReason) String() string {
	switch r {
	case WakeNow:
		return "now"
	case WakeDone:
		return "done"
	case WakeSleep:
		return "sleep"
	case WakeThrottle:
		return "throttle"
	case WakeTransition:
		return "transition"
	case WakeStall:
		return "stall"
	}
	return "wake?"
}

// WakeNever is the delta reported when nothing internal will ever wake the
// core — only an external event (memory reply, knob change) can.
const WakeNever = int64(math.MaxInt64)

// NextWake reports how many upcoming global cycles are provably quiescent
// for this core, with the reason. A return of 0 (WakeNow) means the next
// Tick may do real work and must run normally. A return of d > 0 guarantees
// the next d Ticks are exactly replayed by TickInert provided no external
// input changes — controller knobs are rewritten every cycle and event
// callbacks can touch the pipeline, so callers must re-evaluate NextWake
// each cycle and treat d as "at least this cycle".
func (c *Core) NextWake() (int64, WakeReason) {
	// The branch order mirrors Tick: Done, sleep gate, frequency skip, DVFS
	// stall, then the pipeline-frozen analysis.
	if c.Done() {
		return WakeNever, WakeDone
	}
	if c.knobs.SleepGate {
		return 1, WakeSleep
	}
	if c.freqAcc+c.freq < 1 {
		return 1, WakeThrottle
	}
	if c.stallTicks > 0 {
		return c.stallTicks, WakeTransition
	}
	// The pipeline will step. It is quiescent only if no stage can move:
	//
	//   - completeExecution: nothing on a functional unit (an in-flight op
	//     would also switch the clock tree to active);
	//   - issue: the ready queue is empty;
	//   - commit: the ROB head (if any) is not completed — a blocked head is
	//     re-polled with no state change;
	//   - dispatch: the front-end pipe is empty, the ROB or LSQ is full, or
	//     the head fetched instruction is still in front-end flight
	//     (readyTick beyond the next tick);
	//   - fetch: stalled in a way that provably performs no work (see
	//     below) — the only permitted side effect is the SerializeStalls
	//     counter, which TickInert replays.
	if len(c.inflight) != 0 || len(c.readyQ) != 0 {
		return 0, WakeNow
	}
	if c.count > 0 && c.rob[c.head].state == stDone {
		return 0, WakeNow
	}
	wake := WakeNever
	if c.fpLen > 0 && c.count < len(c.rob) {
		f := &c.fpBuf[c.fpHead]
		if !(f.inst.Op.IsMem() && c.lsqCount >= c.cfg.LSQSize) {
			if f.readyTick <= c.tick+1 {
				return 0, WakeNow // dispatch moves next tick
			}
			// Front-end drain: quiescent until the head entry matures.
			wake = f.readyTick - c.tick - 1
		}
	}
	// fetch() side effects, in its own order of checks: drained source and
	// fetch gate do nothing; a serialize stall only counts a stat; a busy
	// I-cache does nothing; wrong-path phantom fetch is quiescent only once
	// its buffer is exhausted; normal fetch is quiescent only with a full
	// pipe (the loop body never runs, so no instruction is consumed).
	switch {
	case c.srcDone && !c.hasPending:
	case c.knobs.FetchGate:
	case c.fetchStalled:
	case c.icacheBusy:
	case c.wrongPath:
		if c.wrongPathBuf < c.fetchPipeCap-c.fpLen {
			return 0, WakeNow
		}
	default:
		if c.fpLen < c.fetchPipeCap {
			return 0, WakeNow
		}
	}
	return wake, WakeStall
}

// TickInert advances the core by one global cycle on the fast path. It must
// only be called when NextWake reported a nonzero delta for this cycle; it
// then replays Tick exactly: same counters, same meter events, same
// floating-point updates in the same order — minus the pipeline walk that a
// quiescent cycle provably reduces to nothing.
func (c *Core) TickInert() {
	c.fetchedTokens = 0
	if c.Done() {
		c.tokenRate = 0
		return
	}
	if c.knobs.SleepGate {
		c.tokenRate *= 7.0 / 8
		c.stats.SleepCycles++
		return
	}
	c.freqAcc += c.freq
	if c.freqAcc < 1 {
		c.tokenRate *= 7.0 / 8
		return
	}
	c.freqAcc--
	if c.stallTicks > 0 {
		c.stallTicks--
		c.stats.StallTicks++
		c.meter.Add(c.id, power.EvClockGated, 1)
		c.tokenRate += (float64(c.fetchedTokens) - c.tokenRate) / 8
		return
	}
	// step() on a frozen pipeline: the tick advances, the serialize-stall
	// counter ticks if fetch is parked on a serializing instruction, the
	// clock tree is gated, and ROB residency is charged.
	c.tick++
	if !(c.srcDone && !c.hasPending) && !c.knobs.FetchGate && c.fetchStalled {
		c.stats.SerializeStalls++
	}
	c.meter.Add(c.id, power.EvClockGated, 1)
	if c.count > 0 {
		c.meter.Add(c.id, power.EvROBOccupancy, c.count)
	}
	c.tokenRate += (float64(c.fetchedTokens) - c.tokenRate) / 8
}
