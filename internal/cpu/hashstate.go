package cpu

import (
	"ptbsim/internal/isa"
	"ptbsim/internal/statehash"
)

// HashState folds every mutable result-determining core field into h for
// state digests (DESIGN.md §14). Pools and prebuilt callbacks
// (cbFree, storeDrain, fetchFill) are excluded: recycled records carry no
// information once free. The field order is append-only.
func (c *Core) HashState(h *statehash.Hasher) {
	h.WriteInt(c.id)

	// ROB ring, oldest to youngest.
	h.WriteInt(c.count)
	h.WriteI64(c.headSeq)
	h.WriteI64(c.nextSeq)
	for i := 0; i < c.count; i++ {
		e := &c.rob[(c.head+i)%len(c.rob)]
		hashInst(h, e.inst)
		h.WriteI64(e.seq)
		h.WriteInt(int(e.state))
		h.WriteBool(e.predicted)
		h.WriteI64(e.result)
		h.WriteInt(e.pendingDeps)
		h.WriteInt(len(e.waiters))
		for _, w := range e.waiters {
			h.WriteI64(w)
		}
		h.WriteI64(e.dispatchTick)
		h.WriteI64(e.doneTick)
		h.WriteInt(e.fuClass)
	}

	h.WriteInt(len(c.readyQ))
	for _, s := range c.readyQ {
		h.WriteI64(s)
	}
	h.WriteInt(len(c.inflight))
	for _, s := range c.inflight {
		h.WriteI64(s)
	}
	for _, f := range c.fuFree {
		h.WriteInt(f)
	}
	h.WriteInt(c.lsqCount)
	h.WriteInt(c.storeBuf)

	// Fetch pipe ring, oldest to youngest.
	h.WriteInt(c.fpLen)
	for i := 0; i < c.fpLen; i++ {
		e := &c.fpBuf[(c.fpHead+i)%c.fetchPipeCap]
		hashInst(h, e.inst)
		h.WriteBool(e.predicted)
		h.WriteI64(e.readyTick)
	}
	hashInst(h, c.pendingInst)
	h.WriteBool(c.hasPending)
	h.WriteU64(c.curFetchLine)
	h.WriteBool(c.icacheBusy)
	h.WriteBool(c.fetchStalled)
	h.WriteBool(c.wrongPath)
	h.WriteInt(c.wrongPathBuf)
	h.WriteBool(c.srcDone)
	h.WriteU64(c.fetchFillPC)

	h.WriteI64(c.tick)
	h.WriteF64(c.freqAcc)
	h.WriteF64(c.freq)
	h.WriteI64(c.stallTicks)
	h.WriteInt(c.fetchedTokens)
	h.WriteF64(c.tokenRate)

	c.bp.hashState(h)
	c.ptht.HashState(h)

	h.WriteI64(c.stats.Committed)
	h.WriteI64(c.stats.Ticks)
	h.WriteI64(c.stats.StallTicks)
	h.WriteI64(c.stats.SleepCycles)
	h.WriteI64(c.stats.Branches)
	h.WriteI64(c.stats.Mispredicts)
	h.WriteI64(c.stats.WrongPathFetch)
	h.WriteI64(c.stats.SerializeStalls)
	h.WriteI64(c.stats.ROBOccupancySum)
	h.WriteI64(c.stats.LoadCount)
	h.WriteI64(c.stats.StoreCount)
	h.WriteI64(c.stats.RMWCount)
}

func hashInst(h *statehash.Hasher, in isa.Inst) {
	h.WriteU64(in.PC)
	h.WriteInt(int(in.Op))
	h.WriteU64(in.Addr)
	h.WriteBool(in.Taken)
	h.WriteU64(uint64(in.Dep1))
	h.WriteU64(uint64(in.Dep2))
	h.WriteBool(in.LongLat)
	h.WriteInt(int(in.SyncClass))
	h.WriteBool(in.Serialize)
}

// hashState writes the counters unpacked, one byte each: the pinned
// digests depend on that encoding.
func (b *gshare) hashState(h *statehash.Hasher) {
	h.WriteU64(b.history)
	h.WriteI64(b.lookups)
	h.WriteI64(b.correct)
	counters := make([]uint8, b.mask+1)
	for i := range counters {
		counters[i] = b.counter(uint64(i))
	}
	h.WriteBytes(counters)
}
