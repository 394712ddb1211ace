// Package core implements Power Token Balancing (PTB), the paper's primary
// contribution (§III.E): a centralized load balancer that, every cycle,
// collects spare power tokens from cores running under their local power
// budget and grants them to cores over budget, so the chip matches a global
// power budget without slowing down critical threads.
//
// Key properties reproduced from the paper:
//
//   - Tokens are a currency, not a loan: cores send *counts* of spare
//     tokens over dedicated 4-bit-per-direction wires; nothing is repaid.
//   - Balancing is per cycle; spare tokens are never stored across cycles.
//   - Transfer latency depends on core count (Xilinx ISE estimates):
//     4 cores → 1+1+1 cycles, 8 → 2+1+2, 16 → 4+2+4; a pessimistic
//     10-cycle option exists and, per the paper, PTB still works.
//   - A donating core tightens its own budget by what it donates each
//     cycle, so in steady state the chip-wide allowance never exceeds the
//     global budget.
//   - Distribution policies: ToAll (split among all over-budget cores),
//     ToOne (all to the neediest core), and the §IV.B dynamic selector
//     (lock spinning → ToOne, barrier spinning → ToAll).
//   - The balancer's wires and logic cost ~1% of chip power, charged to the
//     power model.
//
// PTB knows nothing about locks, barriers or mispredictions — it only sees
// power unbalance. Spinning detection falls out of the token stream for
// free; the PowerPatternDetector below implements the paper's observation
// (Fig. 6) that a spinning core's power settles to a low, stable level.
package core

import (
	"fmt"

	"ptbsim/internal/budget"
	"ptbsim/internal/fault"
	"ptbsim/internal/invariant"
	"ptbsim/internal/power"
)

// Policy selects how the balancer distributes spare tokens (§III.E.1).
type Policy int

const (
	// PolicyToAll splits spare tokens equally among all cores over their
	// local budget. Best for barrier-bound applications.
	PolicyToAll Policy = iota
	// PolicyToOne gives all spare tokens to the most power-hungry core.
	// Best for lock-bound applications (priority to the critical section).
	PolicyToOne
	// PolicyDynamic switches between the two based on what kind of
	// spinning is happening (§IV.B).
	PolicyDynamic
)

// String names the policy as in the paper's figures.
func (p Policy) String() string {
	switch p {
	case PolicyToAll:
		return "ToAll"
	case PolicyToOne:
		return "ToOne"
	case PolicyDynamic:
		return "Dynamic"
	}
	return "Policy?"
}

// Latency is the send/process/return cycle counts of one balancing round.
type Latency struct {
	Send, Process, Return int64
}

// Total returns the end-to-end token transfer latency.
func (l Latency) Total() int64 { return l.Send + l.Process + l.Return }

// LatencyFor returns the paper's Xilinx-derived latencies by core count.
// The paper's synthesis table stops at 16 cores; the 64- and 256-core rows
// extrapolate by mesh diameter (send/return wires grow with the chip edge,
// the balancer's adder tree by log of the core count), enabling the
// post-paper big-chip configurations.
func LatencyFor(nCores int) Latency {
	switch {
	case nCores <= 4:
		return Latency{1, 1, 1}
	case nCores <= 8:
		return Latency{2, 1, 2}
	case nCores <= 16:
		return Latency{4, 2, 4}
	case nCores <= 64:
		return Latency{6, 3, 6}
	default:
		return Latency{8, 4, 8}
	}
}

// PessimisticLatency is the 10-cycle worst case the paper also evaluates.
func PessimisticLatency() Latency { return Latency{4, 2, 4} }

// defaultWireBits is the width of the paper's token wires ("4 wires for
// sending and 4 wires for receiving the number of tokens per core");
// amounts are encoded as multiples of localBudget/(2^bits − 1).
const defaultWireBits = 4

// flight is one balancing round in transit.
type flight struct {
	arriveAt int64
	total    float64
	// attempts counts retransmissions after injected drops (fault mode).
	attempts int
}

// Balancer is the PTB load-balancer wrapped around an inner budget
// controller (the 2-level technique in the paper's PTB+2level results).
type Balancer struct {
	n      int
	policy Policy
	lat    Latency
	inner  budget.Controller
	// wireQuanta is the maximum encodable token count per wire transfer.
	wireQuanta int

	flights []flight
	// needy is the scratch list distribute rebuilds each round, kept across
	// cycles so the per-cycle balancing path allocates nothing.
	needy []int

	detector *PowerPatternDetector
	// detectorMask, when set, suppresses detector updates for masked
	// cores (used by the spin-gating extension for sleep cycles).
	detectorMask []bool

	// Stats.
	donatedPJ   float64
	grantedPJ   float64
	discardedPJ float64
	rounds      int64
	toOneRounds int64
	toAllRounds int64

	// Fault mode (nil faults = the paper's ideal hardware). When an injector
	// is wired, the balancer no longer reads ground-truth EstPJ directly: it
	// keeps a *report view* — the last token count each core successfully
	// delivered — plus a stale-token watchdog and a bounded retransmit path
	// for dropped batches, and two extra ledger terms (lost, duplicated) so
	// token conservation stays checkable under injection.
	faults       *fault.TokenInjector
	estView      []float64 // last successfully reported estimate per core
	lastReport   []int64   // cycle of each core's last delivered report
	staleTimeout int64

	lostPJ              float64 // batches dropped past the retry bound
	dupPJ               float64 // extra energy injected by duplicated batches
	retries             int64   // retransmission attempts
	reportsLost         int64   // core→balancer report messages lost
	staleFallbackCycles int64   // core-cycles the watchdog ran on fallback
}

// NewBalancer creates the PTB mechanism for n cores with the standard
// latency for that core count.
func NewBalancer(n int, policy Policy, inner budget.Controller) *Balancer {
	return NewBalancerLatency(n, policy, inner, LatencyFor(n))
}

// NewBalancerLatency allows overriding the transfer latency (for the
// pessimistic 10-cycle experiment).
func NewBalancerLatency(n int, policy Policy, inner budget.Controller, lat Latency) *Balancer {
	return &Balancer{
		n:          n,
		policy:     policy,
		lat:        lat,
		inner:      inner,
		wireQuanta: (1 << defaultWireBits) - 1,
		detector:   NewPowerPatternDetector(n),
	}
}

// SetWireBits overrides the token-wire width (ablation knob; the paper
// uses 4 bits per direction).
func (b *Balancer) SetWireBits(bits int) {
	if bits < 1 {
		bits = 1
	}
	if bits > 16 {
		bits = 16
	}
	b.wireQuanta = (1 << bits) - 1
}

// SetFaults wires a token-exchange fault stream into the balancer and
// activates the graceful-degradation machinery (report view, stale-token
// watchdog, bounded retransmit). With all rates zero the faulted paths are
// bit-identical to the ideal ones — the view always equals the ground truth
// and no retransmit ever happens.
func (b *Balancer) SetFaults(inj *fault.TokenInjector) {
	if inj == nil {
		return
	}
	b.faults = inj
	b.staleTimeout = inj.StaleTimeout()
	b.estView = make([]float64, b.n)
	b.lastReport = make([]int64, b.n)
}

// Policy returns the configured distribution policy.
func (b *Balancer) Policy() Policy { return b.policy }

// Detector exposes the power-pattern spin detector fed by the balancer.
func (b *Balancer) Detector() *PowerPatternDetector { return b.detector }

// SetDetectorMask suppresses detector updates for cores whose entry is
// true (the spin-gating extension masks sleep cycles).
func (b *Balancer) SetDetectorMask(mask []bool) { b.detectorMask = mask }

// Stats returns (donated, granted, discarded) token energy in pJ and the
// number of balancing rounds.
func (b *Balancer) Stats() (donated, granted, discarded float64, rounds int64) {
	return b.donatedPJ, b.grantedPJ, b.discardedPJ, b.rounds
}

// PolicyRounds returns how many landing rounds used ToOne and ToAll.
func (b *Balancer) PolicyRounds() (toOne, toAll int64) {
	return b.toOneRounds, b.toAllRounds
}

// FaultStats returns the balancer's degradation ledger: token energy lost
// past the retry bound, extra energy from duplicated batches, retransmission
// attempts, lost core reports, and core-cycles spent on the watchdog's
// static-share fallback. All zero without an injector.
func (b *Balancer) FaultStats() (lostPJ, dupPJ float64, retries, reportsLost, staleCycles int64) {
	return b.lostPJ, b.dupPJ, b.retries, b.reportsLost, b.staleFallbackCycles
}

// Degraded reports whether the balancer ever left ideal operation: a token
// batch was lost for good, or the stale-token watchdog had to fall back to
// a core's static share. Retries and delays alone are not degradation — the
// protocol absorbed those.
func (b *Balancer) Degraded() bool {
	return b.lostPJ > 0 || b.staleFallbackCycles > 0
}

// PendingPJ returns the token energy currently in flight toward the
// balancer (donated but not yet landed as grants or discards).
func (b *Balancer) PendingPJ() float64 {
	var s float64
	for _, f := range b.flights {
		s += f.total
	}
	return s
}

// CheckConservation verifies power-token conservation across balancing:
// tokens are a currency, so every picojoule ever donated must have been
// granted to a needy core, discarded (no taker when the batch landed), or
// still be in flight. §III.E's "a donating core sets a more restrictive
// power budget" only sums to the global budget if this ledger balances;
// a leak here would silently break the paper's AoPB accounting.
// Under fault injection the ledger gains two terms — duplicated batches add
// energy on the input side, lost batches account for it on the output side —
// and the identity becomes donated + duplicated = granted + discarded +
// in-flight + lost. Faults are modeled, not corrupting: injection must never
// unbalance this equation.
func (b *Balancer) CheckConservation() error {
	in := b.donatedPJ + b.dupPJ
	out := b.grantedPJ + b.discardedPJ + b.PendingPJ() + b.lostPJ
	if !invariant.CloseTo(in, out) {
		return fmt.Errorf("core: token leak: donated %.6f + duplicated %.6f pJ != granted %.6f + discarded %.6f + in-flight %.6f + lost %.6f pJ",
			b.donatedPJ, b.dupPJ, b.grantedPJ, b.discardedPJ, b.PendingPJ(), b.lostPJ)
	}
	if b.donatedPJ < 0 || b.grantedPJ < 0 || b.discardedPJ < 0 || b.lostPJ < 0 || b.dupPJ < 0 {
		return fmt.Errorf("core: negative token ledger: donated %.6f granted %.6f discarded %.6f lost %.6f duplicated %.6f",
			b.donatedPJ, b.grantedPJ, b.discardedPJ, b.lostPJ, b.dupPJ)
	}
	return nil
}

// Tick runs one balancing cycle: land arriving token batches as grants,
// collect new donations if the chip is over budget, then run the inner
// technique against the adjusted local budgets.
func (b *Balancer) Tick(st *budget.ChipState) {
	b.BalanceOnly(st)
	b.inner.Tick(st)
}

// BalanceOnly performs the token-balancing half of a cycle without running
// the inner controller — used by the clustered configuration, where each
// cluster balances independently and a single chip-wide inner technique
// runs afterwards.
func (b *Balancer) BalanceOnly(st *budget.ChipState) {
	// PTB hardware overhead: per-core wire drivers plus the balancer logic
	// (~1% of chip power, measured with XPower in the paper).
	for i := 0; i < b.n; i++ {
		st.Meter.Add(st.Cores[i].ID(), power.EvPTBWire, 1)
	}
	st.Meter.Add(st.Cores[0].ID(), power.EvPTBLogic, 1)

	b.detector.UpdateMasked(st, b.detectorMask)

	// Fault mode: refresh the report view. Each core sends its current token
	// count toward the balancer; a lost report leaves the previous view (and
	// its timestamp) in place, and cores whose last delivered report is older
	// than the watchdog timeout are counted as running on the static-share
	// fallback this cycle.
	if b.faults != nil {
		for i := 0; i < b.n; i++ {
			if b.faults.ReportLost() {
				b.reportsLost++
			} else {
				b.estView[i] = st.EstPJ[i]
				b.lastReport[i] = st.Cycle
			}
			if st.Cycle-b.lastReport[i] > b.staleTimeout {
				b.staleFallbackCycles++
			}
		}
	}

	// Donor restrictions are per cycle: clear last cycle's ledger before
	// landing grants so neediness is judged against this cycle's state.
	for i := 0; i < b.n; i++ {
		st.DonatedPJ[i] = 0
	}
	b.land(st)
	b.collect(st)
}

// est returns the balancer's belief about core i's per-cycle energy: the
// ground truth on ideal hardware, the report view under fault injection, or
// — when the view is older than the watchdog timeout — the core's static
// share, which makes a silent core neither donor nor needy (graceful
// degradation toward the paper's no-PTB baseline for that core).
func (b *Balancer) est(st *budget.ChipState, i int) float64 {
	if b.faults == nil {
		return st.EstPJ[i]
	}
	if st.Cycle-b.lastReport[i] > b.staleTimeout {
		return st.LocalBudgetPJ[i]
	}
	return b.estView[i]
}

// chipOver decides whether balancing should collect this cycle. The real
// balancer hardware only sees the reports, so in fault mode the decision
// sums the view rather than the ground-truth ChipEstPJ. The summation order
// matches ChipState.Refresh, so with a zero-rate injector the sum is
// bit-identical to ChipEstPJ.
func (b *Balancer) chipOver(st *budget.ChipState) bool {
	if b.faults == nil {
		return st.ChipOver()
	}
	sum := 0.0
	for i := 0; i < b.n; i++ {
		sum += b.est(st, i)
	}
	return sum > st.GlobalBudgetPJ
}

// land applies token batches whose transfer latency has elapsed. On ideal
// hardware flights arrive strictly in launch order (constant latency), so
// the FIFO pop suffices; under fault injection delays and retransmit
// backoffs reorder arrivals, so the whole queue is scanned. A batch whose
// delivery attempt is dropped is retransmitted after an exponential backoff
// until the retry bound, then written off as lost.
func (b *Balancer) land(st *budget.ChipState) {
	if b.faults == nil {
		n := 0
		for n < len(b.flights) && b.flights[n].arriveAt <= st.Cycle {
			b.distribute(st, b.flights[n].total)
			n++
		}
		if n > 0 {
			// Compact in place instead of reslicing so the backing array is
			// reused forever (collect appends after land each cycle).
			rest := copy(b.flights, b.flights[n:])
			b.flights = b.flights[:rest]
		}
		return
	}
	kept := b.flights[:0]
	for _, f := range b.flights {
		if f.arriveAt > st.Cycle {
			kept = append(kept, f)
			continue
		}
		if b.faults.FlightDropped() {
			if f.attempts >= b.faults.MaxRetries() {
				b.lostPJ += f.total
				continue
			}
			f.attempts++
			b.retries++
			f.arriveAt = st.Cycle + b.faults.Backoff(f.attempts) + b.lat.Total()
			kept = append(kept, f)
			continue
		}
		b.distribute(st, f.total)
	}
	b.flights = kept
}

// distribute grants a landed token batch to the cores currently over their
// local budget, per the active policy. Undistributed remainder is discarded
// — tokens are never stored across cycles.
func (b *Balancer) distribute(st *budget.ChipState, total float64) {
	if total <= 0 {
		return
	}
	b.rounds++
	pol := b.policy
	if pol == PolicyDynamic {
		pol = b.dynamicPolicy(st)
	}

	// Per-core grant cap: the receiving wires have the same width.
	capPJ := st.LocalBudgetPJ[0] // equal split: any index
	quantum := capPJ / float64(b.wireQuanta)
	maxGrant := float64(b.wireQuanta) * quantum

	needy := b.needyCores(st)
	if len(needy) == 0 {
		b.discardedPJ += total
		return
	}

	granted := 0.0
	switch pol {
	case PolicyToOne:
		b.toOneRounds++
		// The core that needs tokens the most: largest overshoot.
		best, bestOver := -1, 0.0
		for _, i := range needy {
			over := b.est(st, i) - (st.LocalBudgetPJ[i] - st.DonatedPJ[i])
			if over > bestOver {
				best, bestOver = i, over
			}
		}
		if best >= 0 {
			g := min2(total, maxGrant)
			st.ExtraPJ[best] += g
			granted = g
		}
	default: // PolicyToAll
		b.toAllRounds++
		share := total / float64(len(needy))
		if share > maxGrant {
			share = maxGrant
		}
		for _, i := range needy {
			st.ExtraPJ[i] += share
			granted += share
		}
	}
	b.grantedPJ += granted
	if rest := total - granted; rest > 0 {
		b.discardedPJ += rest
	}
}

// collect gathers spare tokens from under-budget cores when the chip
// exceeds the global budget, and launches them toward the balancer.
//
// Spare tokens are a per-cycle *rate*: every cycle each under-budget core
// offers that cycle's unused allotment. The donor "sets a more restrictive
// power budget" (§III.E.2) equal to its local share minus what it donated
// this cycle — recorded in DonatedPJ for the inner controller — so the
// chip-wide allowance never exceeds the global budget once the pipeline of
// token flights reaches steady state.
func (b *Balancer) collect(st *budget.ChipState) {
	if !b.chipOver(st) {
		return
	}
	quantum := st.LocalBudgetPJ[0] / float64(b.wireQuanta)
	if quantum <= 0 {
		return
	}
	total := 0.0
	for i := 0; i < b.n; i++ {
		avail := st.LocalBudgetPJ[i] - b.est(st, i)
		if avail <= 0 {
			continue
		}
		q := int(avail / quantum)
		if q <= 0 {
			continue
		}
		if q > b.wireQuanta {
			q = b.wireQuanta
		}
		d := float64(q) * quantum
		st.DonatedPJ[i] = d // this cycle's tighter budget for the donor
		total += d
	}
	if total <= 0 {
		return
	}
	b.donatedPJ += total
	fl := flight{
		arriveAt: st.Cycle + b.lat.Total(),
		total:    total,
	}
	if b.faults != nil {
		fl.arriveAt += b.faults.FlightDelay()
		if b.faults.FlightDuplicated() {
			// The balancer receives the batch twice: the duplicate is extra
			// energy entering the system, tracked on the input side of the
			// conservation ledger.
			b.dupPJ += total
			b.flights = append(b.flights, fl)
		}
	}
	b.flights = append(b.flights, fl)
}

// dynamicPolicy implements the §IV.B selector: lock spinning anywhere on
// the chip favors ToOne (boost the critical-section holder); otherwise
// barrier spinning (or no spinning) favors ToAll.
func (b *Balancer) dynamicPolicy(st *budget.ChipState) Policy {
	if st.Sync == nil {
		return PolicyToAll
	}
	lockSpin, _, _ := st.Sync.SpinBreakdown()
	if lockSpin > 0 {
		return PolicyToOne
	}
	return PolicyToAll
}

// needyCores lists the cores above their donation-adjusted local budget, as
// seen through the balancer's report view. A watchdog-stale core reads as
// exactly at budget, and a stale core cannot have donated this cycle, so it
// is never needy.
func (b *Balancer) needyCores(st *budget.ChipState) []int {
	out := b.needy[:0]
	for i := 0; i < st.NCores; i++ {
		if b.est(st, i) > st.LocalBudgetPJ[i]-st.DonatedPJ[i] {
			out = append(out, i)
		}
	}
	b.needy = out
	return out
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
