package workload

import (
	"fmt"

	"ptbsim/internal/isa"
	"ptbsim/internal/syncprim"
	"ptbsim/internal/xrand"
)

// Address-space layout. Each thread owns a private region; the benchmark
// shares one region; code is shared; sync variables live above everything
// (syncprim.Region).
const (
	codeBase    uint64 = 0x0040_0000
	privateBase uint64 = 0x0100_0000
	privateSpan uint64 = 0x0100_0000 // 16MB per thread slot
	sharedBase  uint64 = 0x3000_0000
)

// genState is the generator's control state.
type genState uint8

const (
	gsBusy genState = iota
	gsLockTryWait
	gsLockSpinWait
	gsCrit
	gsUnlockWait
	gsBarrierArriveWait
	gsBarrierSpinWait
	gsDone
)

// Generator produces one thread's dynamic instruction stream. It implements
// cpu.Source: the core calls Next for instructions and Resolve with the
// outcomes of serializing instructions (lock test-and-sets, unlocks, barrier
// arrivals and spin loads), which drive the state machine.
type Generator struct {
	spec    *Spec
	table   *syncprim.Table
	thread  int
	threads int
	rng     *xrand.Rand

	state   genState
	quantum int
	// remaining busy/crit instructions in the current block.
	remaining int
	curLock   int32
	spinGen   int64

	// queue holds instructions synthesized ahead of Next; queue[qhead:]
	// are still pending. It is reset to empty once drained, so its backing
	// array is reused rather than resliced away.
	queue []isa.Inst
	qhead int

	// address cursors.
	privCursor   uint64
	sharedCursor uint64
	pcCursor     int
	// busyPC is pcCursor mod the busy code's instruction count, advanced
	// with it.
	busyPC  int
	busyLen int

	// mix is the cumulative instruction-mix table, one per program phase
	// (a single implicit phase when the spec defines none).
	mix        [][7]float64
	mixSum     []float64
	sharedFrac []float64
	phaseLen   []int
	phaseTotal int
	mixOps     [7]isa.Op
	privLen    uint64
	shLen      uint64

	// locality model (defaults applied in NewGenerator).
	hotFrac       float64
	hotLen        uint64
	hotCursor     uint64
	sliceAffinity float64

	// branchState gives each static branch a loop-like repeating outcome
	// pattern (taken period-1 times, then not taken once). Real branches
	// are predictable because they are *structured*, not because they are
	// biased coins; a pattern is what lets the gshare predictor reach
	// realistic accuracy. Branches only sit in the busy code, so the table
	// is indexed by busy-code slot, (pc-codeBase)/4.
	branchState []branchPattern

	// stats
	emitted      int64
	lockAcqs     int64
	spinIters    int64
	barrierWaits int64
}

// NewGenerator builds the generator for one thread of a benchmark run with
// the given total thread count.
func NewGenerator(spec *Spec, table *syncprim.Table, thread, threads int) *Generator {
	if threads < 1 {
		panic("workload: need at least one thread")
	}
	g := &Generator{
		spec:    spec,
		table:   table,
		thread:  thread,
		threads: threads,
		rng:     xrand.New(spec.Seed*0x9E3779B97F4A7C15 + uint64(thread)*0xBF58476D1CE4E5B9 + uint64(threads)),
		privLen: uint64(spec.PrivateKB) * 1024,
		shLen:   uint64(spec.SharedKB) * 1024,
		busyLen: spec.CodeLines * 16,
	}
	g.branchState = make([]branchPattern, g.busyLen)
	if g.privLen == 0 {
		g.privLen = 4096
	}
	if g.shLen == 0 {
		g.shLen = 4096
	}
	g.hotFrac = spec.HotFrac
	if g.hotFrac == 0 {
		g.hotFrac = 0.99
	}
	g.hotLen = uint64(spec.HotKB) * 1024
	if g.hotLen == 0 {
		g.hotLen = 16 * 1024
	}
	if g.hotLen > g.privLen {
		g.hotLen = g.privLen
	}
	g.sliceAffinity = spec.SliceAffinity
	if g.sliceAffinity == 0 {
		g.sliceAffinity = 0.8
	}
	g.mixOps = [7]isa.Op{isa.OpIntAlu, isa.OpIntMul, isa.OpFPAlu, isa.OpFPMul, isa.OpLoad, isa.OpStore, isa.OpBranch}
	phases := spec.Phases
	if len(phases) == 0 {
		phases = []Phase{{Name: "main", Quanta: 1, FPScale: 1, MemScale: 1, SharedScale: 1}}
	}
	for _, ph := range phases {
		w := [7]float64{spec.MixIntAlu, spec.MixIntMul, spec.MixFPAlu, spec.MixFPMul, spec.MixLoad, spec.MixStore, spec.MixBranch}
		fp, mem, sh := ph.FPScale, ph.MemScale, ph.SharedScale
		if fp == 0 {
			fp = 1
		}
		if mem == 0 {
			mem = 1
		}
		if sh == 0 {
			sh = 1
		}
		w[2] *= fp
		w[3] *= fp
		w[4] *= mem
		w[5] *= mem
		var cum [7]float64
		acc := 0.0
		for i, v := range w {
			acc += v
			cum[i] = acc
		}
		if acc <= 0 {
			panic(fmt.Sprintf("workload %s: empty instruction mix", spec.Name))
		}
		g.mix = append(g.mix, cum)
		g.mixSum = append(g.mixSum, acc)
		sf := spec.SharedFrac * sh
		if sf > 0.9 {
			sf = 0.9
		}
		g.sharedFrac = append(g.sharedFrac, sf)
		q := ph.Quanta
		if q < 1 {
			q = 1
		}
		g.phaseLen = append(g.phaseLen, q)
		g.phaseTotal += q
	}
	g.table.SetState(thread, isa.SyncBusy)
	g.startQuantum()
	return g
}

// Stats returns (emitted instructions, lock acquisitions, spin iterations,
// barrier waits).
func (g *Generator) Stats() (emitted, lockAcqs, spinIters, barrierWaits int64) {
	return g.emitted, g.lockAcqs, g.spinIters, g.barrierWaits
}

// quantumLen draws the (imbalanced) busy length of the current quantum.
func (g *Generator) quantumLen() int {
	base := float64(g.spec.QuantumInsts)
	// Deterministic per-(thread,quantum) jitter in [-1,1].
	h := xrand.New(g.spec.Seed ^ uint64(g.thread)<<32 ^ uint64(g.quantum)*0x94D049BB133111EB)
	jitter := 2*h.Float64() - 1
	n := int(base * (1 + g.spec.Imbalance*jitter))
	if n < 16 {
		n = 16
	}
	return n
}

func (g *Generator) startQuantum() {
	g.state = gsBusy
	g.remaining = g.quantumLen()
	g.table.SetState(g.thread, isa.SyncBusy)
}

// Next implements cpu.Source.
func (g *Generator) Next() (isa.Inst, bool) {
	if g.qhead < len(g.queue) {
		inst := g.queue[g.qhead]
		g.qhead++
		if g.qhead == len(g.queue) {
			g.queue, g.qhead = g.queue[:0], 0
		}
		g.emitted++
		return inst, true
	}
	switch g.state {
	case gsDone:
		return isa.Inst{}, false
	case gsBusy:
		if g.remaining > 0 {
			g.remaining--
			g.emitted++
			return g.busyInst(isa.SyncBusy), true
		}
		g.endOfQuantum()
		return g.Next()
	case gsCrit:
		if g.remaining > 0 {
			g.remaining--
			g.emitted++
			return g.critInst(), true
		}
		// Release the lock.
		g.state = gsUnlockWait
		g.table.SetState(g.thread, isa.SyncLockRel)
		g.emitted++
		return isa.Inst{
			PC: g.lockPC(2), Op: isa.OpAtomicRMW, Addr: g.table.LockAddr(g.curLock),
			Serialize: true, SyncOp: isa.SyncUnlock, SyncID: g.curLock,
			SyncClass: isa.SyncLockRel,
		}, true
	default:
		// Waiting states are driven by Resolve; the core never calls Next
		// while a serializing instruction is outstanding.
		panic(fmt.Sprintf("workload %s: Next in waiting state %d", g.spec.Name, g.state))
	}
}

// endOfQuantum decides what follows a finished busy block: a critical
// section, a barrier, the next quantum, or program end.
func (g *Generator) endOfQuantum() {
	if g.spec.LockProb > 0 && g.rng.Bool(g.spec.LockProb) {
		g.curLock = int32(g.rng.Intn(g.spec.NumLocks))
		g.state = gsLockTryWait
		g.table.SetState(g.thread, isa.SyncLockAcq)
		g.queue = append(g.queue, isa.Inst{
			PC: g.lockPC(0), Op: isa.OpAtomicRMW, Addr: g.table.LockAddr(g.curLock),
			Serialize: true, SyncOp: isa.SyncLockTry, SyncID: g.curLock,
			SyncClass: isa.SyncLockAcq,
		})
		return
	}
	g.advanceQuantum()
}

// advanceQuantum moves past the sync point at the end of a quantum.
func (g *Generator) advanceQuantum() {
	g.quantum++
	if g.quantum >= g.spec.QuantaPerThread {
		// Final barrier: all threads leave the parallel phase together.
		g.enterBarrier()
		return
	}
	if g.spec.BarrierEvery > 0 && g.quantum%g.spec.BarrierEvery == 0 {
		g.enterBarrier()
		return
	}
	g.startQuantum()
}

func (g *Generator) enterBarrier() {
	g.state = gsBarrierArriveWait
	g.table.SetState(g.thread, isa.SyncBarrier)
	g.queue = append(g.queue, isa.Inst{
		PC: g.barrierPC(0), Op: isa.OpAtomicRMW, Addr: g.table.BarrierCounterAddr(0),
		Serialize: true, SyncOp: isa.SyncBarrierArrive, SyncID: 0,
		SyncClass: isa.SyncBarrier,
	})
}

// Resolve implements cpu.Source: it receives the outcome of the last
// serializing instruction and advances the state machine.
func (g *Generator) Resolve(result int64) {
	switch g.state {
	case gsLockTryWait:
		if result == 1 {
			// Acquired: run the critical section.
			g.lockAcqs++
			g.state = gsCrit
			g.remaining = g.spec.CritInsts
			if g.remaining < 1 {
				g.remaining = 1
			}
			g.table.SetState(g.thread, isa.SyncBusy)
			return
		}
		// Contended: spin with test-and-test-and-set.
		g.state = gsLockSpinWait
		g.emitSpinIter(isa.SyncLockAcq)
	case gsLockSpinWait:
		g.spinIters++
		if result == 1 {
			// Lock observed free: retry the test-and-set. The spin-exit
			// branch is the usually-taken loop branch falling through,
			// which the predictor tends to mispredict — emitted not-taken.
			g.queue = append(g.queue,
				isa.Inst{PC: g.lockPC(5), Op: isa.OpBranch, Taken: false, Dep1: 1, SyncClass: isa.SyncLockAcq},
				isa.Inst{
					PC: g.lockPC(0), Op: isa.OpAtomicRMW, Addr: g.table.LockAddr(g.curLock),
					Serialize: true, SyncOp: isa.SyncLockTry, SyncID: g.curLock,
					SyncClass: isa.SyncLockAcq,
				})
			g.state = gsLockTryWait
			return
		}
		g.emitSpinIter(isa.SyncLockAcq)
	case gsUnlockWait:
		g.advanceQuantum()
	case gsBarrierArriveWait:
		last, gen := syncprim.DecodeArrive(result)
		if last {
			// Release the spinners by writing the flag line, then go on.
			g.queue = append(g.queue, isa.Inst{
				PC: g.barrierPC(1), Op: isa.OpStore, Addr: g.table.BarrierFlagAddr(0),
				SyncClass: isa.SyncBarrier,
			})
			g.leaveBarrier()
			return
		}
		g.spinGen = gen
		g.state = gsBarrierSpinWait
		g.emitBarrierSpin()
	case gsBarrierSpinWait:
		g.spinIters++
		if result == 1 {
			g.barrierWaits++
			g.queue = append(g.queue,
				isa.Inst{PC: g.barrierPC(5), Op: isa.OpBranch, Taken: false, Dep1: 1, SyncClass: isa.SyncBarrier})
			g.leaveBarrier()
			return
		}
		g.emitBarrierSpin()
	default:
		panic(fmt.Sprintf("workload %s: unexpected Resolve in state %d", g.spec.Name, g.state))
	}
}

// leaveBarrier continues after a barrier, or ends the program after the
// final one.
func (g *Generator) leaveBarrier() {
	if g.quantum >= g.spec.QuantaPerThread {
		g.state = gsDone
		g.table.SetState(g.thread, isa.SyncBusy)
		return
	}
	g.startQuantum()
}

// emitSpinIter queues one lock spin-loop iteration: test load (serializing),
// then the loop body the core fetches after the outcome is known.
func (g *Generator) emitSpinIter(class isa.SyncClass) {
	g.queue = append(g.queue,
		isa.Inst{PC: g.lockPC(3), Op: isa.OpIntAlu, Dep1: 1, SyncClass: class},
		isa.Inst{PC: g.lockPC(4), Op: isa.OpBranch, Taken: true, Dep1: 1, SyncClass: class},
		isa.Inst{
			PC: g.lockPC(1), Op: isa.OpLoad, Addr: g.table.LockAddr(g.curLock),
			Serialize: true, SyncOp: isa.SyncSpinLock, SyncID: g.curLock,
			SyncClass: class,
		})
}

// emitBarrierSpin queues one barrier spin-loop iteration.
func (g *Generator) emitBarrierSpin() {
	g.queue = append(g.queue,
		isa.Inst{PC: g.barrierPC(3), Op: isa.OpIntAlu, Dep1: 1, SyncClass: isa.SyncBarrier},
		isa.Inst{PC: g.barrierPC(4), Op: isa.OpBranch, Taken: true, Dep1: 1, SyncClass: isa.SyncBarrier},
		isa.Inst{
			PC: g.barrierPC(2), Op: isa.OpLoad, Addr: g.table.BarrierFlagAddr(0),
			Serialize: true, SyncOp: isa.SyncSpinBarrier, SyncID: 0, SyncArg: g.spinGen,
			SyncClass: isa.SyncBarrier,
		})
}

// lockPC/barrierPC return stable PCs for the synchronization code so the
// predictor and PTHT see realistic locality. Slots separate the individual
// static instructions of the lock/barrier routines.
func (g *Generator) lockPC(slot int) uint64 {
	return codeBase + uint64(g.spec.CodeLines)*64 + uint64(g.curLock)*64 + uint64(slot)*4
}

func (g *Generator) barrierPC(slot int) uint64 {
	return codeBase + uint64(g.spec.CodeLines)*64 + uint64(g.spec.NumLocks)*64 + uint64(slot)*4
}

// phaseIndex returns the current program phase from the quantum counter.
func (g *Generator) phaseIndex() int {
	if len(g.phaseLen) == 1 {
		return 0
	}
	pos := g.quantum % g.phaseTotal
	for i, q := range g.phaseLen {
		if pos < q {
			return i
		}
		pos -= q
	}
	return 0
}

// busyInst synthesizes one busy-phase instruction from the benchmark mix
// of the current program phase.
func (g *Generator) busyInst(class isa.SyncClass) isa.Inst {
	ph := g.phaseIndex()
	r := g.rng.Float64() * g.mixSum[ph]
	op := isa.OpIntAlu
	for i, c := range g.mix[ph] {
		if r <= c {
			op = g.mixOps[i]
			break
		}
	}

	slot := g.busyPC
	pc := codeBase + uint64(slot)*4
	g.advancePC()

	inst := isa.Inst{PC: pc, Op: op, SyncClass: class}
	inst.Dep1 = uint16(g.rng.Geometric(g.spec.DepMean))
	if g.rng.Bool(0.35) {
		inst.Dep2 = uint16(g.rng.Geometric(g.spec.DepMean * 1.5))
	}
	if op == isa.OpBranch {
		// Branches compare freshly computed values: they depend on a near
		// producer and resolve quickly once fetched. (A branch hanging off
		// a cold load would stall the front end for the full miss — real
		// codes do that rarely.)
		inst.Dep1 = uint16(1 + g.rng.Intn(3))
		inst.Dep2 = 0
	}

	switch op {
	case isa.OpIntMul, isa.OpFPMul:
		inst.LongLat = g.rng.Bool(g.spec.LongLatFrac)
	case isa.OpLoad, isa.OpStore:
		inst.Addr = g.dataAddr()
	case isa.OpBranch:
		inst.Taken = g.branchOutcome(slot)
	}
	return inst
}

// advancePC moves the code cursor on by one instruction.
func (g *Generator) advancePC() {
	g.pcCursor++
	g.busyPC++
	if g.busyPC == g.busyLen {
		g.busyPC = 0
	}
}

// branchPattern is one static branch's repeating loop structure. A zero
// period marks a slot whose branch has not executed yet.
type branchPattern struct {
	period uint8
	count  uint8
	hard   bool
}

// branchOutcome produces the next outcome of the static branch in busy-code
// slot: loop-patterned for most branches (learnable), random for the
// benchmark's HardBranchFrac share (data-dependent branches the predictor
// cannot learn).
func (g *Generator) branchOutcome(slot int) bool {
	st := &g.branchState[slot]
	if st.period == 0 {
		st.hard = g.rng.Bool(g.spec.HardBranchFrac)
		// Period derived from BranchTakenP: taken period-1 of period times
		// averages to the benchmark's taken rate.
		p := g.spec.BranchTakenP
		if p >= 0.99 {
			p = 0.99
		}
		period := int(1.0/(1.0-p) + 0.5)
		if period < 2 {
			period = 2
		}
		if period > 14 {
			// Keep loop periods within what 16 bits of gshare history can
			// learn.
			period = 14
		}
		st.period = uint8(period)
	}
	if st.hard {
		return g.rng.Bool(0.5)
	}
	st.count++
	if st.count >= st.period {
		st.count = 0
		return false
	}
	return true
}

// critInst synthesizes a critical-section instruction: mostly shared-data
// reads and writes, which is what makes critical sections migrate lines.
func (g *Generator) critInst() isa.Inst {
	pc := codeBase + uint64((g.spec.CodeLines+8)*16+g.pcCursor&63)*4
	g.advancePC()
	inst := isa.Inst{PC: pc, SyncClass: isa.SyncBusy}
	switch {
	case g.rng.Bool(0.40):
		inst.Op = isa.OpLoad
		inst.Addr = g.sharedAddr()
	case g.rng.Bool(0.45):
		inst.Op = isa.OpStore
		inst.Addr = g.sharedAddr()
	default:
		inst.Op = isa.OpIntAlu
		inst.Dep1 = 1
	}
	return inst
}

// dataAddr picks a load/store address per the benchmark's locality model:
// most private accesses reuse a hot subset (high L1 hit rates, as in real
// applications), the rest stream through the cold footprint and produce the
// cache misses that unbalance power across cores.
func (g *Generator) dataAddr() uint64 {
	if g.rng.Bool(g.sharedFrac[g.phaseIndex()]) {
		return g.sharedAddr()
	}
	base := privateBase + uint64(g.thread)*privateSpan
	if g.rng.Bool(g.hotFrac) {
		if g.rng.Bool(g.spec.SeqFrac) {
			g.hotCursor += 8
			if g.hotCursor >= g.hotLen {
				g.hotCursor = 0
			}
			return base + g.hotCursor
		}
		return base + uint64(g.rng.Intn(int(g.hotLen)))&^7
	}
	// Cold streaming walks line by line through the full footprint beyond
	// the hot region.
	g.privCursor += 64
	if g.privCursor >= g.privLen {
		g.privCursor = 0
	}
	return base + g.hotLen + g.privCursor
}

// sharedAddr models domain decomposition: threads mostly touch their own
// slice of the shared region and occasionally reach into others', which is
// what produces forwards and invalidations in the directory.
func (g *Generator) sharedAddr() uint64 {
	slice := uint64(g.thread)
	if !g.rng.Bool(g.sliceAffinity) {
		slice = uint64(g.rng.Intn(g.threads))
	}
	sliceLen := g.shLen / uint64(g.threads)
	if sliceLen < 256 {
		sliceLen = 256
	}
	base := sharedBase + slice*sliceLen
	// Shared data has temporal locality too: most accesses stay within a
	// hot window at the front of the slice.
	window := sliceLen / 4
	if window > 8*1024 {
		window = 8 * 1024
	}
	if window < 256 {
		window = 256
	}
	if g.rng.Bool(g.hotFrac) {
		if g.rng.Bool(g.spec.SeqFrac) {
			g.sharedCursor += 8
			if g.sharedCursor >= window {
				g.sharedCursor = 0
			}
			return base + g.sharedCursor
		}
		return base + uint64(g.rng.Intn(int(window)))&^7
	}
	return base + uint64(g.rng.Intn(int(sliceLen)))&^7
}
