package workload

import "ptbsim/internal/statehash"

// HashState folds one generator thread's mutable state into h for
// state digests: the rng stream, the block machine, the address
// cursors, and every static branch's pattern position (in PC order).
// Spec-derived tables are static and excluded. The field order is
// append-only.
func (g *Generator) HashState(h *statehash.Hasher) {
	h.WriteInt(g.thread)
	h.WriteU64(g.rng.State())
	h.WriteInt(int(g.state))
	h.WriteInt(g.quantum)
	h.WriteInt(g.remaining)
	h.WriteI64(int64(g.curLock))
	h.WriteI64(g.spinGen)
	pending := g.queue[g.qhead:]
	h.WriteInt(len(pending))
	for i := range pending {
		in := &pending[i]
		h.WriteU64(in.PC)
		h.WriteInt(int(in.Op))
		h.WriteU64(in.Addr)
		h.WriteBool(in.Taken)
	}
	h.WriteU64(g.privCursor)
	h.WriteU64(g.sharedCursor)
	h.WriteInt(g.pcCursor)
	h.WriteU64(g.hotCursor)
	h.WriteInt(g.branches)
	for slot := range g.branchState {
		st := &g.branchState[slot]
		if st.period == 0 {
			continue
		}
		h.WriteU64(codeBase + uint64(slot)*4)
		h.WriteInt(int(st.period))
		h.WriteInt(int(st.count))
		h.WriteBool(st.hard)
	}
	h.WriteI64(g.emitted)
	h.WriteI64(g.lockAcqs)
	h.WriteI64(g.spinIters)
	h.WriteI64(g.barrierWaits)
}
