package cache

import "ptbsim/internal/statehash"

// HashState folds the whole memory system into h for state digests.
// Map-shaped state (MSHRs, writebacks, directory entries) is walked in
// sorted line order; waiter/retry callbacks are represented by their
// counts and flags (the closures themselves re-form deterministically on
// replay). The field order is append-only (DESIGN.md §14).
func (hr *Hierarchy) HashState(h *statehash.Hasher) {
	h.WriteInt(hr.N)
	for _, l1 := range hr.L1I {
		l1.hashState(h)
	}
	for _, l1 := range hr.L1D {
		l1.hashState(h)
	}
	for _, b := range hr.Banks {
		b.hashState(h)
	}
	hr.Mem.HashState(h)
}

func (c *L1) hashState(h *statehash.Hasher) {
	h.WriteInt(int(c.id))
	h.WriteU64(c.tick)
	for i := range c.lines {
		ln := &c.lines[i]
		h.WriteU64(ln.tag)
		h.WriteInt(int(ln.state))
		h.WriteBool(ln.dirty)
		h.WriteBool(ln.prefetched)
		h.WriteBool(ln.pinned)
		h.WriteU64(ln.lru)
	}
	h.WriteInt(len(c.mshrs))
	for _, line := range statehash.SortedKeys(c.mshrs) {
		m := c.mshrs[line]
		h.WriteU64(m.line)
		h.WriteBool(m.wantX)
		h.WriteInt(len(m.waiting))
		for i := range m.waiting {
			h.WriteBool(m.waiting[i].write)
		}
		h.WriteBool(m.prefetch)
		h.WriteBool(m.haveData)
		h.WriteBool(m.noData)
		h.WriteBool(m.excl)
		h.WriteBool(m.acksKnown)
		h.WriteInt(m.acksNeed)
		h.WriteInt(m.acksGot)
	}
	h.WriteInt(len(c.pending))
	for i := range c.pending {
		h.WriteU64(c.pending[i].addr)
		h.WriteBool(c.pending[i].write)
	}
	h.WriteInt(len(c.wb))
	for _, line := range statehash.SortedKeys(c.wb) {
		w := c.wb[line]
		h.WriteU64(w.line)
		h.WriteBool(w.dirty)
		h.WriteInt(len(w.retry))
		for i := range w.retry {
			h.WriteU64(w.retry[i].addr)
			h.WriteBool(w.retry[i].write)
		}
	}
	h.WriteI64(c.hits)
	h.WriteI64(c.misses)
	h.WriteI64(c.prefetchIssued)
	h.WriteI64(c.prefetchUseful)
}

func (b *HomeBank) hashState(h *statehash.Hasher) {
	h.WriteInt(b.node)
	h.WriteInt(len(b.lines))
	for _, line := range statehash.SortedKeys(b.lines) {
		e := b.lines[line]
		h.WriteU64(line)
		h.WriteInt(int(e.state))
		h.WriteInt(int(e.owner))
		for _, word := range e.sharers {
			h.WriteU64(word)
		}
		h.WriteBool(e.busy)
		h.WriteInt(len(e.queue))
	}
	b.data.hashState(h)
	h.WriteI64(b.getS)
	h.WriteI64(b.getX)
	h.WriteI64(b.puts)
	h.WriteI64(b.fwds)
	h.WriteI64(b.invs)
}

// hashState writes every set's ways in set/way order, tag, valid bit and
// LRU tick each, and zero ways for sets never filled. That is a dense tag
// array's encoding, which the pinned digests depend on
// (TestL2DataMatchesDense holds the two together).
func (d *l2Data) hashState(h *statehash.Hasher) {
	h.WriteU64(d.tick)
	var untouched l2Line
	for _, k := range d.slot {
		for w := 0; w < d.ways; w++ {
			l := &untouched
			if k != 0 {
				l = &d.lines[int(k)-1+w]
			}
			h.WriteU64(l.tag)
			h.WriteBool(l.valid())
			h.WriteU64(l.lru)
		}
	}
	h.WriteI64(d.hits)
	h.WriteI64(d.misses)
}
