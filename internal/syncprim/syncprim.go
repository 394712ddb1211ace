// Package syncprim holds the logical state of the locks and barriers the
// synthetic workloads synchronize on.
//
// Timing is emergent, not scripted: each lock and barrier owns dedicated
// cache lines in the shared address space, and the workload generators emit
// real atomic read-modify-writes and spin loads against those lines, so
// invalidation storms, line ping-pong and directory queueing are produced by
// the coherence protocol. This package only answers the *value* questions —
// "did the test-and-set win?", "has generation g completed?" — evaluated at
// the cycle the corresponding instruction executes.
//
// The value-vs-coherence approximation: a spinner may observe a value change
// one L1 hit before its stale copy is invalidated. The error is bounded by
// one spin iteration (tens of cycles) against synchronization waits of
// thousands, and is documented in DESIGN.md.
package syncprim

import (
	"ptbsim/internal/isa"
)

// Region is the base of the shared address region holding sync variables;
// workload data regions must stay below it.
const Region uint64 = 0x4000_0000

type lock struct {
	held   bool
	holder int
	// acquisitions counts successful TryLocks, for stats and tests.
	acquisitions int64
	contended    int64
}

type barrier struct {
	parties    int
	count      int
	generation int64
	episodes   int64
}

// Table is the chip-wide logical synchronization state plus the per-core
// activity classification used by the Fig. 3 breakdown and the §IV.B
// dynamic policy selector.
type Table struct {
	locks    []lock
	barriers []barrier
	state    []isa.SyncClass
}

// NewTable creates a table for nCores cores with the given number of locks
// and barriers. Barriers expect all nCores cores to arrive.
func NewTable(nCores, nLocks, nBarriers int) *Table {
	t := &Table{
		locks:    make([]lock, nLocks),
		barriers: make([]barrier, nBarriers),
		state:    make([]isa.SyncClass, nCores),
	}
	for i := range t.barriers {
		t.barriers[i].parties = nCores
	}
	return t
}

// NumLocks returns the number of locks.
func (t *Table) NumLocks() int { return len(t.locks) }

// NumBarriers returns the number of barriers.
func (t *Table) NumBarriers() int { return len(t.barriers) }

// LockAddr returns the byte address of a lock's cache line.
func (t *Table) LockAddr(id int32) uint64 {
	return Region + uint64(id)*isa.CacheLineSize
}

// BarrierCounterAddr returns the byte address of a barrier's arrival
// counter line.
func (t *Table) BarrierCounterAddr(id int32) uint64 {
	return Region + uint64(len(t.locks)+int(id)*2)*isa.CacheLineSize
}

// BarrierFlagAddr returns the byte address of a barrier's release flag
// line. Spinners wait on this line; the last arriver stores to it.
func (t *Table) BarrierFlagAddr(id int32) uint64 {
	return Region + uint64(len(t.locks)+int(id)*2+1)*isa.CacheLineSize
}

// SetState records what core is logically doing; the workload generators
// call it at phase transitions.
func (t *Table) SetState(core int, class isa.SyncClass) { t.state[core] = class }

// State returns the core's current activity class.
func (t *Table) State(core int) isa.SyncClass { return t.state[core] }

// barrierArriveEncode packs (lastArriver, generationAtArrival) into the
// int64 result of a SyncBarrierArrive: bit 62 marks the last arriver, the
// low bits carry the generation the arriver must wait past.
const barrierLastBit = int64(1) << 62

// EncodeArrive packs a barrier-arrival result.
func EncodeArrive(last bool, gen int64) int64 {
	if last {
		return gen | barrierLastBit
	}
	return gen
}

// DecodeArrive unpacks a barrier-arrival result.
func DecodeArrive(r int64) (last bool, gen int64) {
	return r&barrierLastBit != 0, r &^ barrierLastBit
}

// Eval evaluates a synchronization instruction's logical effect at the
// moment it executes and returns the value delivered to the workload
// generator via Source.Resolve.
func (t *Table) Eval(core int, inst isa.Inst) int64 {
	switch inst.SyncOp {
	case isa.SyncNone:
		return 0
	case isa.SyncLockTry:
		l := &t.locks[inst.SyncID]
		if l.held {
			l.contended++
			return 0
		}
		l.held = true
		l.holder = core
		l.acquisitions++
		return 1
	case isa.SyncUnlock:
		l := &t.locks[inst.SyncID]
		// Unlock by a non-holder indicates a generator bug; the logical
		// model tolerates it but the workload tests assert it never
		// happens.
		l.held = false
		return 0
	case isa.SyncBarrierArrive:
		b := &t.barriers[inst.SyncID]
		gen := b.generation
		b.count++
		if b.count >= b.parties {
			b.count = 0
			b.generation++
			b.episodes++
			return EncodeArrive(true, gen)
		}
		return EncodeArrive(false, gen)
	case isa.SyncSpinLock:
		if t.locks[inst.SyncID].held {
			return 0
		}
		return 1
	case isa.SyncSpinBarrier:
		if t.barriers[inst.SyncID].generation > inst.SyncArg {
			return 1
		}
		return 0
	}
	return 0
}

// LockHolder returns the core currently holding a lock, or -1.
func (t *Table) LockHolder(id int32) int {
	l := t.locks[id]
	if !l.held {
		return -1
	}
	return l.holder
}

// Acquisitions returns the number of successful acquisitions of a lock.
func (t *Table) Acquisitions(id int32) int64 { return t.locks[id].acquisitions }

// ContendedTries returns the number of failed test-and-sets on a lock.
func (t *Table) ContendedTries(id int32) int64 { return t.locks[id].contended }

// BarrierEpisodes returns the number of completed episodes of a barrier.
func (t *Table) BarrierEpisodes(id int32) int64 { return t.barriers[id].episodes }

// SpinBreakdown reports, over all cores, how many are currently in each
// activity class. The dynamic policy selector uses the lock/barrier split.
func (t *Table) SpinBreakdown() (lockSpin, barrierSpin, busy int) {
	for _, s := range t.state {
		switch s {
		case isa.SyncLockAcq, isa.SyncLockRel:
			lockSpin++
		case isa.SyncBarrier:
			barrierSpin++
		default:
			busy++
		}
	}
	return
}
