// Package obs is the epoch-sampled observability layer: a time-series
// recorder the simulator ticks once per cycle, which fills one Sample per
// epoch and hands it to a streaming Sink. The recorder allocates its one
// reusable Sample at construction, so the enabled path is O(cores) work
// per epoch with zero allocations, and a system built without a recorder
// pays a single nil check per cycle — the golden-digest matrix pins that a
// run is bit-identical with the recorder on or off, because the recorder
// only reads simulation state.
//
// The windowed signals mirror what a power-management study needs to plot
// (per-core power, token flows, mode residency, sync-class occupancy, NoC
// and cache pressure), in the spirit of counter-driven windowed accounting
// (Isci et al.; RAPL-style energy windows).
package obs

import (
	"fmt"

	"ptbsim/internal/isa"
)

// DefaultEvery is the sampling period in cycles when Config.Every is zero:
// fine enough to resolve lock/barrier phases at paper scales, coarse
// enough that a full run emits thousands — not millions — of samples.
const DefaultEvery = 4096

// Sample is one epoch of telemetry. Slice fields are sized to the core
// count. Counter fields are deltas over the epoch unless documented as
// cumulative; power fields are instantaneous values at the sampled cycle.
//
// The JSON field names are the stable wire schema shared by the JSONL
// sink, ptbreport's telemetry table and external tooling.
type Sample struct {
	// Run tags, stamped on every sample so merged sweep feeds stay
	// self-describing.
	Bench  string `json:"bench"`
	Cores  int    `json:"cores"`
	Tech   string `json:"tech"`
	Policy string `json:"policy,omitempty"`

	// Epoch counts emitted samples from 0; Cycle is the simulation cycle
	// the sample was taken at; Cycles is the epoch length (== the sampling
	// period except for a final partial flush).
	Epoch  int64 `json:"epoch"`
	Cycle  int64 `json:"cycle"`
	Cycles int64 `json:"cycles"`
	// Partial marks the end-of-run flush covering a shorter-than-period
	// tail epoch.
	Partial bool `json:"partial,omitempty"`

	// BudgetPJ is the global per-cycle power budget; ChipPJ the chip energy
	// of the sampled cycle (the sum of CorePJ in collector order).
	BudgetPJ float64 `json:"budget_pj"`
	ChipPJ   float64 `json:"chip_pj"`

	// CorePJ is each core's energy in the sampled cycle; TokensPJ the
	// controller-visible per-core power estimate (the token view, after any
	// sensor faults); EpochPJ the metered per-core energy accumulated over
	// the epoch.
	CorePJ   []float64 `json:"core_pj"`
	TokensPJ []float64 `json:"tokens_pj"`
	EpochPJ  []float64 `json:"epoch_pj"`

	// Modes is each core's DVFS ladder index (0 = fastest; all zero for
	// techniques without a governor). Classes is each core's sync class at
	// the sampled cycle (isa.SyncClass numbering); ClassCycles the
	// chip-wide core-cycles spent per class during the epoch.
	Modes       []int                     `json:"modes"`
	Classes     []int                     `json:"classes"`
	ClassCycles [isa.NumSyncClasses]int64 `json:"class_cycles"`

	// PTB token-flow ledger, cumulative since run start (zero for non-PTB
	// techniques): donated into the balancer, granted back out, discarded
	// at the budget clip, and currently in flight.
	DonatedPJ   float64 `json:"donated_pj"`
	GrantedPJ   float64 `json:"granted_pj"`
	DiscardedPJ float64 `json:"discarded_pj"`
	InFlightPJ  float64 `json:"inflight_pj"`

	// NoC and cache pressure over the epoch: mesh messages injected,
	// flit-link traversals, L1 (I+D) and L2 hits/misses.
	NoCMessages int64 `json:"noc_msgs"`
	NoCFlits    int64 `json:"noc_flits"`
	L1Hits      int64 `json:"l1_hits"`
	L1Misses    int64 `json:"l1_misses"`
	L2Hits      int64 `json:"l2_hits"`
	L2Misses    int64 `json:"l2_misses"`
}

// Clone deep-copies the sample, detaching it from any recorder-owned
// backing storage.
func (s *Sample) Clone() Sample {
	out := *s
	out.CorePJ = append([]float64(nil), s.CorePJ...)
	out.TokensPJ = append([]float64(nil), s.TokensPJ...)
	out.EpochPJ = append([]float64(nil), s.EpochPJ...)
	out.Modes = append([]int(nil), s.Modes...)
	out.Classes = append([]int(nil), s.Classes...)
	return out
}

// Sink consumes samples as they are recorded. The *Sample passed to
// Observe is only valid for the duration of the call — the recorder reuses
// it for the next epoch; retain Clone()s, not pointers.
type Sink interface {
	Observe(s *Sample)
}

// Config configures a Recorder.
type Config struct {
	// Every is the sampling period in cycles (0 = DefaultEvery).
	Every int64
	// Sink, when non-nil, receives every sample as it is recorded.
	Sink Sink
}

// FillFunc populates one sample from simulation state. The recorder owns
// the epoch bookkeeping: the fill writes *cumulative* run totals into
// EpochPJ, ClassCycles and the NoC/cache counters, and the recorder turns
// them into epoch deltas against its previous snapshot.
type FillFunc func(s *Sample)

// Recorder is the per-run telemetry engine. It is not safe for concurrent
// use (simulations are single-threaded); a Sink shared across concurrent
// runs must serialize itself.
type Recorder struct {
	every int64
	cur   Sample // reused for every epoch
	sink  Sink
	fill  FillFunc

	taken     int64 // samples emitted so far
	lastCycle int64 // cycle of the most recent sample
	boundary  int64 // first epoch boundary after the last cycle ticked

	// Previous-snapshot state for delta fields.
	prevPJ          []float64
	prevClassCycles [isa.NumSyncClasses]int64
	prevNoCMsgs     int64
	prevNoCFlits    int64
	prevL1Hits      int64
	prevL1Misses    int64
	prevL2Hits      int64
	prevL2Misses    int64

	// observedPJ accumulates the per-core epoch energies actually emitted,
	// the recorder-side ledger CheckEnergy verifies against the meter.
	observedPJ []float64

	bench, tech, policy string
	cores               int
	budgetPJ            float64
}

// NewRecorder builds a recorder for a CMP of the given core count. Every
// allocation the hot path needs happens here: the one reused sample
// carries preallocated per-core slices that fill writes into in place.
func NewRecorder(cfg Config, cores int, fill FillFunc) *Recorder {
	if cfg.Every <= 0 {
		cfg.Every = DefaultEvery
	}
	return &Recorder{
		every: cfg.Every,
		cur: Sample{
			CorePJ:   make([]float64, cores),
			TokensPJ: make([]float64, cores),
			EpochPJ:  make([]float64, cores),
			Modes:    make([]int, cores),
			Classes:  make([]int, cores),
		},
		sink:       cfg.Sink,
		fill:       fill,
		prevPJ:     make([]float64, cores),
		observedPJ: make([]float64, cores),
		cores:      cores,
	}
}

// SetRun stamps the run tags and budget carried on every sample.
func (r *Recorder) SetRun(bench string, cores int, tech, policy string, budgetPJ float64) {
	r.bench, r.tech, r.policy = bench, tech, policy
	r.cores = cores
	r.budgetPJ = budgetPJ
}

// Every returns the sampling period in cycles.
func (r *Recorder) Every() int64 { return r.every }

// Tick advances the recorder to the given cycle, emitting a sample on
// epoch boundaries (cycle%every == 0). Ticking consecutive cycles costs
// one comparison between boundaries; any other cycle sequence re-anchors
// on the modulo.
func (r *Recorder) Tick(cycle int64) {
	if cycle != r.boundary {
		if cycle < r.boundary && cycle > r.boundary-r.every {
			return
		}
		if m := cycle % r.every; m != 0 {
			r.boundary = cycle - m
			if cycle > 0 {
				r.boundary += r.every
			}
			return
		}
	}
	r.boundary = cycle + r.every
	r.sample(cycle, false)
}

// Finalize flushes the partial tail epoch at run end, if the run did not
// stop exactly on an epoch boundary. Call it before any end-of-run event
// processing (invariant finalization drains the event queue, which charges
// the power meter energy no epoch should claim).
func (r *Recorder) Finalize(cycle int64) {
	if cycle <= r.lastCycle {
		return
	}
	r.sample(cycle, true)
}

func (r *Recorder) sample(cycle int64, partial bool) {
	sm := &r.cur
	sm.Bench, sm.Cores, sm.Tech, sm.Policy = r.bench, r.cores, r.tech, r.policy
	sm.BudgetPJ = r.budgetPJ
	sm.Epoch = r.taken
	sm.Cycle = cycle
	sm.Cycles = cycle - r.lastCycle
	sm.Partial = partial
	r.fill(sm)

	// The fill wrote cumulative counters; convert to epoch deltas.
	for i, cum := range sm.EpochPJ {
		sm.EpochPJ[i] = cum - r.prevPJ[i]
		r.observedPJ[i] += sm.EpochPJ[i]
		r.prevPJ[i] = cum
	}
	for i, cum := range sm.ClassCycles {
		sm.ClassCycles[i] = cum - r.prevClassCycles[i]
		r.prevClassCycles[i] = cum
	}
	sm.NoCMessages, r.prevNoCMsgs = sm.NoCMessages-r.prevNoCMsgs, sm.NoCMessages
	sm.NoCFlits, r.prevNoCFlits = sm.NoCFlits-r.prevNoCFlits, sm.NoCFlits
	sm.L1Hits, r.prevL1Hits = sm.L1Hits-r.prevL1Hits, sm.L1Hits
	sm.L1Misses, r.prevL1Misses = sm.L1Misses-r.prevL1Misses, sm.L1Misses
	sm.L2Hits, r.prevL2Hits = sm.L2Hits-r.prevL2Hits, sm.L2Hits
	sm.L2Misses, r.prevL2Misses = sm.L2Misses-r.prevL2Misses, sm.L2Misses

	r.lastCycle = cycle
	r.taken++
	if r.sink != nil {
		r.sink.Observe(sm)
	}
}

// Taken returns how many samples have been emitted.
func (r *Recorder) Taken() int64 { return r.taken }

// CheckEnergy verifies the recorder's epoch-energy ledger against the
// power meter: for every core, the sum of emitted EpochPJ deltas plus the
// not-yet-sampled tail must equal the meter's cumulative total. totalPJ is
// the meter's per-core readout (power.Meter.TotalPJ). The tolerance
// absorbs the floating-point telescoping of summing many deltas.
func (r *Recorder) CheckEnergy(totalPJ func(core int) float64) error {
	for i := 0; i < r.cores; i++ {
		want := totalPJ(i)
		got := r.observedPJ[i] + (want - r.prevPJ[i])
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		m := want
		if got > m {
			m = got
		}
		if m < 0 {
			m = -m
		}
		if diff > 1e-7*m+1e-6 {
			return fmt.Errorf("obs: core %d epoch-energy ledger %.3f pJ != meter %.3f pJ", i, got, want)
		}
	}
	return nil
}
