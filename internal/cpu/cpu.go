// Package cpu models the out-of-order cores of the simulated CMP (paper
// Table 1): 4-wide fetch/decode/issue, a 128-entry instruction window with a
// 64-entry load/store queue, a 14-stage pipeline, a gshare branch
// predictor with 16 bits of history (2^16 two-bit counters) and the Table-1
// functional-unit mix, at 3GHz and 0.9V nominal.
//
// The core is trace-reactive: it consumes the correct-path dynamic
// instruction stream from a workload Source, predicts branches with a real
// gshare (misprediction starves and redirects the front end and burns
// wrong-path fetch energy), stalls fetch across serializing instructions
// (atomics and spin loads) and reports their outcomes back to the Source —
// which is how spin loops, locks and barriers interact with the simulated
// coherence protocol.
package cpu

import (
	"fmt"

	"ptbsim/internal/isa"
	"ptbsim/internal/power"
)

// Source supplies one thread's dynamic correct-path instruction stream.
// Implementations react to Resolve calls: the outcome of a serializing
// instruction (lock test-and-set, spin load, barrier arrival) decides what
// the stream contains next.
type Source interface {
	// Next returns the next instruction in program order, or ok=false when
	// the thread has finished. Next is never called between a serializing
	// instruction and its Resolve.
	Next() (inst isa.Inst, ok bool)
	// Resolve delivers the result of the most recent serializing
	// instruction.
	Resolve(result int64)
}

// SyncEvaluator evaluates the logical effect of synchronization
// instructions at the cycle they execute.
type SyncEvaluator interface {
	Eval(core int, inst isa.Inst) int64
}

// MemSystem is the core's view of the memory hierarchy.
type MemSystem interface {
	// Read issues a data load; done runs when the value is available.
	Read(core int, addr uint64, done func())
	// Write acquires exclusive ownership and performs a store or atomic.
	Write(core int, addr uint64, done func())
	// FetchProbe synchronously checks the L1I; a hit keeps fetch streaming.
	FetchProbe(core int, addr uint64) bool
	// FetchMiss starts an instruction-cache fill; done runs at fill time.
	FetchMiss(core int, addr uint64, done func())
}

// Config is the core configuration (defaults = Table 1).
type Config struct {
	ROBSize       int
	LSQSize       int
	FetchWidth    int
	DecodeWidth   int
	IssueWidth    int
	CommitWidth   int
	FrontendDepth int // fetch→dispatch latency; total depth 14 incl. back end
	StoreBufSize  int

	NumIntAlu, NumIntMul, NumFPAlu, NumFPMul int
	LatIntAlu, LatIntMul, LatFPAlu, LatFPMul int
	LatLong                                  int // long-latency variant (divide)

	BpredBits uint

	// PTHTSize overrides the Power-Token History Table entry count
	// (0 = the paper's 8K; ablation knob).
	PTHTSize int
}

// DefaultConfig returns the Table-1 core.
func DefaultConfig() Config {
	return Config{
		ROBSize:       128,
		LSQSize:       64,
		FetchWidth:    4,
		DecodeWidth:   4,
		IssueWidth:    4,
		CommitWidth:   4,
		FrontendDepth: 10,
		StoreBufSize:  8,
		NumIntAlu:     6,
		NumIntMul:     2,
		NumFPAlu:      4,
		NumFPMul:      4,
		LatIntAlu:     1,
		LatIntMul:     3,
		LatFPAlu:      2,
		LatFPMul:      4,
		LatLong:       12,
		BpredBits:     16,
	}
}

// Knobs are the per-cycle microarchitectural throttles the power-budget
// controllers drive (§II.B techniques). Zero values mean "unthrottled".
type Knobs struct {
	// FetchGate stops instruction fetch entirely.
	FetchGate bool
	// FetchWidth/DecodeWidth/IssueWidth throttle the respective stages.
	FetchWidth  int
	DecodeWidth int
	IssueWidth  int
	// SleepGate freezes the whole core for the cycle (clock stopped, no
	// pipeline activity, power-gated leakage). Used by the spin-gating
	// extension; in-flight memory responses still arrive and are consumed
	// once the core wakes.
	SleepGate bool
}

type entryState uint8

const (
	stWaiting entryState = iota
	stReady
	stExecuting
	stDone
)

type robEntry struct {
	inst      isa.Inst
	seq       int64
	state     entryState
	predicted bool // branch prediction recorded at fetch
	result    int64

	pendingDeps int
	waiters     []int64 // seqs woken when this entry completes

	dispatchTick int64
	doneTick     int64 // FU completion tick for in-flight ops
	fuClass      int   // index into fuFree; -1 if none held
}

type fetchedInst struct {
	inst      isa.Inst
	predicted bool
	readyTick int64
}

// fuClass indices.
const (
	fuIntAlu = iota
	fuIntMul
	fuFPAlu
	fuFPMul
	numFUClasses
)

// Stats collects per-core counters.
type Stats struct {
	Committed       int64
	StallTicks      int64 // DVFS transition stalls
	SleepCycles     int64 // cycles frozen by the sleep gate
	Mispredicts     int64
	WrongPathFetch  int64
	SerializeStalls int64 // ticks fetch was stalled on a serializing inst
	RMWCount        int64
}

// Core is one simulated out-of-order core.
type Core struct {
	id    int
	cfg   Config
	knobs Knobs

	meter *power.Meter
	tm    *power.TokenModel
	ptht  *power.PTHT
	mem   MemSystem
	sync  SyncEvaluator
	src   Source
	bp    *gshare

	// ROB ring buffer.
	rob     []robEntry
	head    int
	count   int
	headSeq int64
	nextSeq int64

	readyQ   []int64 // seqs ready to issue, ascending
	inflight []int64 // seqs executing on a FU with a doneTick

	fuFree [numFUClasses]int
	fuLat  [numFUClasses]int64

	lsqCount int
	storeBuf int

	// Fetch pipe: a fixed ring of fetchPipeCap entries so the steady state
	// never reslices or reallocates. fpHead is the oldest entry; fpLen the
	// occupancy.
	fpBuf        []fetchedInst
	fpHead       int
	fpLen        int
	fetchPipeCap int
	pendingInst  isa.Inst // instruction parked across an I-miss
	hasPending   bool
	curFetchLine uint64
	icacheBusy   bool
	fetchStalled bool // waiting for a serializing inst to commit
	wrongPath    bool // mispredicted branch outstanding
	wrongPathBuf int  // phantom instructions buffered this episode
	srcDone      bool

	tick       int64 // core-domain tick counter
	freqAcc    float64
	freq       float64
	stallTicks int64 // DVFS transition stall

	// fetchedTokens is the PTHT-based token estimate of the instructions
	// fetched in the current tick; tokenRate is its short moving average,
	// which spreads each instruction's lifetime cost over the cycles it is
	// actually in flight — together with the ROB occupancy term this is
	// the controllers' power signal.
	fetchedTokens int
	tokenRate     float64

	// storeDrain is the store-buffer release callback, built once at New so
	// commit doesn't allocate a closure per retiring store.
	storeDrain func()
	// fetchFill completes the single outstanding I-miss (fetch stalls while
	// icacheBusy, so one pending PC suffices); built once at New.
	fetchFill   func()
	fetchFillPC uint64
	// cbFree pools load/atomic completion callbacks; each record carries a
	// closure built once, so issuing memory operations never allocates in
	// the steady state.
	cbFree *memCB

	stats Stats
}

// memCB is a pooled completion callback for loads and atomics.
type memCB struct {
	c    *Core
	seq  int64
	rmw  bool
	fn   func()
	next *memCB
}

// memCallback leases a pooled callback bound to (seq, rmw).
func (c *Core) memCallback(seq int64, rmw bool) func() {
	cb := c.cbFree
	if cb != nil {
		c.cbFree = cb.next
		cb.next = nil
	} else {
		cb = &memCB{c: c}
		cb.fn = func() { cb.c.memDone(cb) }
	}
	cb.seq, cb.rmw = seq, rmw
	return cb.fn
}

// memDone returns the record to the pool, then completes the operation (in
// that order, so a completion that issues another memory op can reuse it).
func (c *Core) memDone(cb *memCB) {
	seq, rmw := cb.seq, cb.rmw
	cb.next = c.cbFree
	c.cbFree = cb
	if rmw {
		c.rmwDone(seq)
	} else {
		c.loadDone(seq)
	}
}

// New creates a core wired to its memory system, sync evaluator and
// instruction source.
func New(id int, cfg Config, meter *power.Meter, tm *power.TokenModel, mem MemSystem, sync SyncEvaluator, src Source) *Core {
	phtSize := cfg.PTHTSize
	if phtSize == 0 {
		phtSize = power.PTHTSize
	}
	c := &Core{
		id:    id,
		cfg:   cfg,
		meter: meter,
		tm:    tm,
		ptht:  power.NewPTHTSized(meter, id, phtSize),
		mem:   mem,
		sync:  sync,
		src:   src,
		bp:    newGshare(cfg.BpredBits, meter, id),
		rob:   make([]robEntry, cfg.ROBSize),
		freq:  1,
	}
	c.fuFree = [numFUClasses]int{cfg.NumIntAlu, cfg.NumIntMul, cfg.NumFPAlu, cfg.NumFPMul}
	c.fuLat = [numFUClasses]int64{int64(cfg.LatIntAlu), int64(cfg.LatIntMul), int64(cfg.LatFPAlu), int64(cfg.LatFPMul)}
	c.fetchPipeCap = cfg.FrontendDepth * cfg.FetchWidth
	c.fpBuf = make([]fetchedInst, c.fetchPipeCap)
	c.curFetchLine = ^uint64(0)
	c.storeDrain = func() { c.storeBuf-- }
	c.fetchFill = func() {
		c.icacheBusy = false
		c.curFetchLine = c.fetchFillPC &^ 63
	}
	return c
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// Stats returns a copy of the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// PTHT exposes the core's Power-Token History Table.
func (c *Core) PTHT() *power.PTHT { return c.ptht }

// Knobs returns a pointer to the live knob block for controllers.
func (c *Core) Knobs() *Knobs { return &c.knobs }

// SetSpeed changes the core's relative frequency, stalling the core for
// transitionTicks to model the regulator/PLL switch (Kim-style fast DVFS
// uses small values).
func (c *Core) SetSpeed(freq float64, transitionTicks int64) {
	if freq <= 0 {
		freq = 0.01
	}
	if c.freq != freq {
		c.stallTicks += transitionTicks
	}
	c.freq = freq
}

// Speed returns the current relative frequency.
func (c *Core) Speed() float64 { return c.freq }

// Done reports whether the thread finished and the pipeline fully drained.
func (c *Core) Done() bool {
	return c.srcDone && c.count == 0 && c.fpLen == 0 &&
		c.storeBuf == 0 && !c.hasPending
}

// FetchedTokens returns the PTHT token estimate of the instructions fetched
// on the most recent tick (the §III.B per-cycle power estimate).
func (c *Core) FetchedTokens() int { return c.fetchedTokens }

// TokenRate returns the smoothed per-cycle token consumption estimate: an
// 8-cycle moving average of the fetched-token stream. Fetch is bursty
// (0 or 4 instructions) while the energy of those instructions is spent
// across their pipeline lifetime; the short average is what tracks actual
// per-cycle power.
func (c *Core) TokenRate() float64 { return c.tokenRate }

// ROBOccupancy returns the current number of in-flight instructions, whose
// window-residency energy is part of the core's power.
func (c *Core) ROBOccupancy() int { return c.count }

// LSQOccupancy returns the number of memory operations currently holding
// load/store-queue entries.
func (c *Core) LSQOccupancy() int { return c.lsqCount }

// CheckOccupancy verifies the pipeline's structural occupancy bounds: the
// ROB, LSQ, store buffer and fetch pipe can never hold more entries than
// they have (nor a negative count — the signature of a double release).
// The invariant layer runs this every epoch; dispatch/commit bugs that
// would silently corrupt the window-residency power term (ROB occupancy ×
// token unit, §III.B) surface here instead.
func (c *Core) CheckOccupancy() error {
	switch {
	case c.count < 0 || c.count > c.cfg.ROBSize:
		return fmt.Errorf("cpu: core %d ROB occupancy %d outside [0, %d]", c.id, c.count, c.cfg.ROBSize)
	case c.lsqCount < 0 || c.lsqCount > c.cfg.LSQSize:
		return fmt.Errorf("cpu: core %d LSQ occupancy %d outside [0, %d]", c.id, c.lsqCount, c.cfg.LSQSize)
	case c.storeBuf < 0 || c.storeBuf > c.cfg.StoreBufSize:
		return fmt.Errorf("cpu: core %d store buffer %d outside [0, %d]", c.id, c.storeBuf, c.cfg.StoreBufSize)
	case c.fpLen < 0 || c.fpLen > c.fetchPipeCap:
		return fmt.Errorf("cpu: core %d fetch pipe %d over capacity %d", c.id, c.fpLen, c.fetchPipeCap)
	}
	return nil
}

// Tick advances the core by one *global* clock cycle. Under frequency
// scaling the pipeline steps only on a fraction of global cycles; skipped
// cycles consume no dynamic energy (leakage is charged by the caller per
// global cycle). It returns true if the pipeline stepped.
func (c *Core) Tick() bool {
	c.fetchedTokens = 0
	if c.Done() {
		c.tokenRate = 0
		return false
	}
	if c.knobs.SleepGate {
		c.tokenRate *= 7.0 / 8
		c.stats.SleepCycles++
		return false
	}
	c.freqAcc += c.freq
	if c.freqAcc < 1 {
		c.tokenRate *= 7.0 / 8
		return false
	}
	c.freqAcc--
	if c.stallTicks > 0 {
		c.stallTicks--
		c.stats.StallTicks++
		c.meter.Add(c.id, power.EvClockGated, 1)
		c.tokenRate += (float64(c.fetchedTokens) - c.tokenRate) / 8
		return false
	}
	c.step()
	c.tokenRate += (float64(c.fetchedTokens) - c.tokenRate) / 8
	return true
}

// step runs one core-domain pipeline cycle, back to front.
func (c *Core) step() {
	c.tick++

	committed := c.commit()
	c.completeExecution()
	issued := c.issue()
	dispatched := c.dispatch()
	fetched := c.fetch()

	// Clock tree: active when any stage moved, otherwise gated (Table 1
	// runs with clock gating enabled).
	if committed+issued+dispatched+fetched > 0 || len(c.inflight) > 0 {
		c.meter.Add(c.id, power.EvClockActive, 1)
	} else {
		c.meter.Add(c.id, power.EvClockGated, 1)
	}
	if c.count > 0 {
		c.meter.Add(c.id, power.EvROBOccupancy, c.count)
	}
}

// entry returns the ROB slot of an in-flight seq (headSeq <= seq <
// headSeq+count). Both head and the offset are below len(rob), so one
// conditional subtract is the ring's modulo.
func (c *Core) entry(seq int64) *robEntry {
	i := c.head + int(seq-c.headSeq)
	if i >= len(c.rob) {
		i -= len(c.rob)
	}
	return &c.rob[i]
}

func (c *Core) effWidth(knob, def int) int {
	if knob <= 0 || knob > def {
		return def
	}
	return knob
}
