package cache

// This file holds the L1 side of the coherence protocol: responses to the
// requester's own transactions (data, ack counting, completion and install)
// and reactions to remote transactions (invalidations and forwards).

func (c *L1) onData(m msgData) {
	h := c.mshrs[m.line]
	if h == nil {
		// A response for a squashed transaction cannot happen in this
		// protocol: MSHRs are only freed at completion.
		panic("cache: data response without MSHR")
	}
	h.haveData = true
	h.noData = m.noData
	h.excl = m.excl
	h.acksKnown = true
	h.acksNeed += m.acks
	c.tryComplete(h)
}

func (c *L1) onAckCount(m msgAckCount) {
	h := c.mshrs[m.line]
	if h == nil {
		panic("cache: ack count without MSHR")
	}
	h.acksKnown = true
	h.acksNeed += m.acks
	c.tryComplete(h)
}

func (c *L1) onOwnerData(m msgOwnerData) {
	h := c.mshrs[m.line]
	if h == nil {
		panic("cache: owner data without MSHR")
	}
	h.haveData = true
	if m.excl {
		h.excl = true
	}
	c.tryComplete(h)
}

func (c *L1) onInvAck(m msgInvAck) {
	h := c.mshrs[m.line]
	if h == nil {
		panic("cache: inv ack without MSHR")
	}
	h.acksGot++
	c.tryComplete(h)
}

// tryComplete finishes the transaction once the data and every expected
// acknowledgment have arrived.
func (c *L1) tryComplete(h *l1MSHR) {
	if !h.haveData {
		return
	}
	if h.wantX {
		if !h.acksKnown || h.acksGot < h.acksNeed {
			return
		}
	}

	line := h.line
	if h.noData {
		// Upgrade: the pinned S/O copy we already hold becomes exclusive.
		l := c.find(line)
		if l == nil {
			// The copy was invalidated while the upgrade waited; the
			// directory in that case always sends full data, so noData
			// with no resident line is a protocol violation.
			panic("cache: upgrade response without resident line")
		}
		l.state = l1M
		l.dirty = true
		l.pinned = false
		c.touch(l)
	} else {
		st := l1S
		if h.wantX {
			st = l1M
		} else if h.excl {
			st = l1E
		}
		c.install(line, st, h.wantX)
		if h.prefetch {
			if l := c.find(line); l != nil {
				l.prefetched = true
			}
		}
	}

	// Wake the waiting accesses. Write waiters that cannot be satisfied by
	// the granted state (a read grant) retry through the normal path.
	var retries []waiter
	for _, w := range h.waiting {
		if !w.write {
			c.q.After(c.hitLat, w.done)
			continue
		}
		l := c.find(line)
		if l != nil && (l.state == l1E || l.state == l1M) {
			l.state = l1M
			l.dirty = true
			c.q.After(c.hitLat, w.done)
			continue
		}
		retries = append(retries, w)
	}

	delete(c.mshrs, line)
	c.send(c.home(line), ctrlFlits, msgUnblock{req: c.id, line: line})

	for _, w := range retries {
		c.Access(line, true, w.done)
	}
	c.drainPending()
}

// drainPending re-issues queued requests that were blocked on a full MSHR
// file or on the pinned-ways limit. Each deferred request is retried at
// most once per drain: a retry may legitimately re-queue itself (the
// blocking condition can still hold), and re-processing it in the same
// drain would spin forever.
func (c *L1) drainPending() {
	pending := c.pending
	c.pending = nil
	for i, r := range pending {
		if len(c.mshrs) >= c.maxMSHR {
			c.pending = append(c.pending, pending[i:]...)
			return
		}
		c.Access(r.addr, r.write, r.done)
	}
}

// install writes a freshly arrived line into the set, evicting the
// least-recently-used unpinned way if necessary.
func (c *L1) install(line uint64, st l1State, dirty bool) {
	c.meter.Add(c.id.Core(), c.writeEv, 1)
	// In-place refresh: happens when a GetX was answered by an owner
	// forward while this cache still held an S copy under that owner
	// (OwnedShared with the requester among the sharers). The pin taken at
	// upgrade time must be released here.
	if l := c.find(line); l != nil {
		l.state = st
		l.dirty = dirty && st == l1M
		l.pinned = false
		c.touch(l)
		return
	}
	set := c.set(line)
	victim := -1
	for w := range set {
		if set[w].state == l1I {
			victim = w
			break
		}
	}
	if victim < 0 {
		for w := range set {
			if set[w].pinned {
				continue
			}
			if victim < 0 || set[w].lru < set[victim].lru {
				victim = w
			}
		}
		c.evict(&set[victim])
	}
	c.tick++
	set[victim] = l1Line{tag: line, state: st, dirty: dirty && st == l1M, lru: c.tick}
}

// evict removes a resident line, sending the appropriate Put. Owned lines
// (E/M/O) block in the writeback buffer until the directory acknowledges.
func (c *L1) evict(l *l1Line) {
	line := l.tag
	switch l.state {
	case l1S:
		c.send(c.home(line), ctrlFlits, msgPut{req: c.id, line: line, kind: putS})
	case l1E, l1M, l1O:
		e := &wbEntry{line: line, dirty: l.dirty}
		c.wb[line] = e
		if l.dirty {
			c.send(c.home(line), dataFlits, msgPut{req: c.id, line: line, kind: putM})
		} else {
			c.send(c.home(line), ctrlFlits, msgPut{req: c.id, line: line, kind: putE})
		}
	}
	l.state = l1I
}

func (c *L1) onPutAck(m msgPutAck) {
	e := c.wb[m.line]
	if e == nil {
		panic("cache: put ack without writeback entry")
	}
	delete(c.wb, m.line)
	for _, r := range e.retry {
		c.Access(r.addr, r.write, r.done)
	}
}

// onInv handles a remote invalidation: drop the copy (if still present) and
// acknowledge to the requester. The ack is sent even when the line is
// already gone (a concurrent eviction raced with the invalidation) because
// the requester counts acks from the directory's sharer snapshot.
func (c *L1) onInv(m msgInv) {
	if l := c.find(m.line); l != nil {
		l.state = l1I
		l.pinned = false
	}
	c.send(cacheNode(m.req), ctrlFlits, msgInvAck{line: m.line, dest: m.req})
}

// onFwdGetS serves a read request from the current owner: send the line and
// downgrade to O (stay the data provider; sharers now exist so stores need
// a directory transaction).
func (c *L1) onFwdGetS(m msgFwdGetS) {
	c.meter.Add(c.id.Core(), c.readEv, 1)
	if l := c.find(m.line); l != nil {
		l.state = l1O
		c.send(cacheNode(m.req), dataFlits, msgOwnerData{line: m.line, dest: m.req})
		return
	}
	if _, ok := c.wb[m.line]; ok {
		// Serve from the writeback buffer; the directory acks the
		// in-flight Put without taking its data.
		c.send(cacheNode(m.req), dataFlits, msgOwnerData{line: m.line, dest: m.req})
		return
	}
	panic("cache: forwarded GetS to non-owner")
}

// onFwdGetX transfers ownership: send the line to the requester and
// invalidate the local copy.
func (c *L1) onFwdGetX(m msgFwdGetX) {
	c.meter.Add(c.id.Core(), c.readEv, 1)
	if l := c.find(m.line); l != nil {
		l.state = l1I
		l.pinned = false
		c.send(cacheNode(m.req), dataFlits, msgOwnerData{line: m.line, dest: m.req, excl: true})
		return
	}
	if _, ok := c.wb[m.line]; ok {
		c.send(cacheNode(m.req), dataFlits, msgOwnerData{line: m.line, dest: m.req, excl: true})
		return
	}
	panic("cache: forwarded GetX to non-owner")
}
