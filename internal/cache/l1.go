package cache

import (
	"ptbsim/internal/eventq"
	"ptbsim/internal/mesh"
	"ptbsim/internal/power"
)

// l1State is the MOESI state of a line in an L1.
type l1State uint8

const (
	l1I l1State = iota // invalid
	l1S                // shared, read-only
	l1E                // exclusive clean (silent upgrade to M allowed)
	l1M                // exclusive dirty
	l1O                // owner with other sharers present; stores need GetX
)

// l1Line is one way of an L1 set.
type l1Line struct {
	tag   uint64
	state l1State
	dirty bool
	// prefetched marks a line brought in by the prefetcher and not yet
	// demanded (usefulness accounting).
	prefetched bool
	// pinned marks a resident line with an in-flight upgrade (GetX while
	// holding S/O). Pinned lines are never chosen as victims: the upgrade
	// response may carry no data and relies on the retained copy. At most
	// ways-1 lines per set may be pinned so installs always find a victim.
	pinned bool
	lru    uint64
}

type waiter struct {
	write bool
	done  func()
}

// l1MSHR tracks one outstanding miss.
type l1MSHR struct {
	line    uint64
	wantX   bool
	waiting []waiter
	// prefetch marks a speculative fill with no waiters.
	prefetch bool

	haveData  bool
	noData    bool // upgrade response: keep existing S copy
	excl      bool
	acksKnown bool
	acksNeed  int
	acksGot   int
}

// wbEntry is a blocking eviction awaiting PutAck. The entry can still serve
// forwarded requests, and accesses to the line while it drains are retried
// once the ack arrives.
type wbEntry struct {
	line  uint64
	dirty bool
	retry []retryReq
}

type retryReq struct {
	addr  uint64
	write bool
	done  func()
}

// DefaultMSHRs is the number of outstanding misses an L1 supports.
const DefaultMSHRs = 8

// FrontPort is the L1's gateway to the shared event queue and mesh. The
// concrete queue and mesh satisfy it directly (the default wiring); the
// intra-run partition layer substitutes per-core staging ports that spool
// tick-phase operations until the quantum boundary, which is what lets
// cores tick on separate goroutines without touching shared structures.
type FrontPort interface {
	// After schedules fn to run delay cycles from now.
	After(delay int64, fn func())
	// Send injects a message of the given flit count into the mesh.
	Send(src, dst, flits int, payload any)
}

// frontScheduler and frontSender are the two halves of FrontPort; the L1
// holds them separately so the default wiring can keep handing it the
// concrete queue and mesh.
type frontScheduler interface {
	After(delay int64, fn func())
}
type frontSender interface {
	Send(src, dst, flits int, payload any)
}

// L1 is one private first-level cache (instruction or data). All timing is
// driven by the shared event queue; completion is signalled through the
// callbacks passed to Access.
type L1 struct {
	id    CacheID
	q     frontScheduler
	meter *power.Meter
	net   frontSender
	// home maps a line to its home bank's mesh node.
	home func(line uint64) int

	geometry
	// lines is the set-major tag array (see geometry).
	lines   []l1Line
	tick    uint64
	hitLat  int64
	mshrs   map[uint64]*l1MSHR
	maxMSHR int
	pending []retryReq
	wb      map[uint64]*wbEntry

	readEv, writeEv power.EventKind

	// prefetch enables next-line prefetching on demand read misses.
	prefetch bool

	hits, misses int64
	// prefetchIssued counts prefetch requests; prefetchUseful counts
	// prefetched lines that were later demanded before eviction.
	prefetchIssued, prefetchUseful int64
}

// NewL1 builds a 64KB-class L1. isInst selects the energy events charged.
func NewL1(id CacheID, q *eventq.Queue, meter *power.Meter, net *mesh.Mesh, home func(uint64) int, sizeBytes, ways int, isInst bool) *L1 {
	g := newGeometry(sizeBytes, ways)
	c := &L1{
		id:       id,
		q:        q,
		meter:    meter,
		net:      net,
		home:     home,
		geometry: g,
		lines:    make([]l1Line, g.sets*g.ways),
		hitLat:   1,
		mshrs:    make(map[uint64]*l1MSHR),
		maxMSHR:  DefaultMSHRs,
		wb:       make(map[uint64]*wbEntry),
	}
	if isInst {
		c.readEv, c.writeEv = power.EvL1I, power.EvL1I
	} else {
		c.readEv, c.writeEv = power.EvL1DRead, power.EvL1DWrite
	}
	return c
}

// set returns the ways of line's set.
func (c *L1) set(line uint64) []l1Line {
	b := c.base(line)
	return c.lines[b : b+c.ways]
}

func (c *L1) find(line uint64) *l1Line {
	set := c.set(line)
	for w := range set {
		if l := &set[w]; l.state != l1I && l.tag == line {
			return l
		}
	}
	return nil
}

// Hits and Misses expose access counters.
func (c *L1) Hits() int64   { return c.hits }
func (c *L1) Misses() int64 { return c.misses }

// OutstandingMisses returns the number of MSHRs in use.
func (c *L1) OutstandingMisses() int { return len(c.mshrs) }

// EnablePrefetch turns on next-line prefetching for demand read misses
// (off by default; an optional substrate feature with its own ablation
// benchmark).
func (c *L1) EnablePrefetch(on bool) { c.prefetch = on }

// PrefetchStats returns (issued, useful) prefetch counts.
func (c *L1) PrefetchStats() (issued, useful int64) {
	return c.prefetchIssued, c.prefetchUseful
}

// Probe checks synchronously whether addr hits. On a hit it charges the
// access energy, refreshes LRU and returns true (the caller proceeds within
// its own pipeline). On a miss it returns false with no side effects; the
// caller follows up with Access to start the miss. Fetch pipelines use this
// so that instruction-cache hits do not cost asynchronous round trips.
func (c *L1) Probe(addr uint64) bool {
	line := addr &^ 63
	if _, ok := c.wb[line]; ok {
		return false
	}
	l := c.find(line)
	if l == nil {
		return false
	}
	c.meter.Add(c.id.Core(), c.readEv, 1)
	c.hits++
	c.touch(l)
	return true
}

// Access performs a load (write=false) or a store/atomic (write=true) at
// addr. done runs when the access completes: after the 1-cycle hit latency
// for hits, or at fill time for misses. Writes complete only once the cache
// holds the line in an exclusive state.
func (c *L1) Access(addr uint64, write bool, done func()) {
	line := addr &^ 63
	if write {
		c.meter.Add(c.id.Core(), c.writeEv, 1)
	} else {
		c.meter.Add(c.id.Core(), c.readEv, 1)
	}

	// A line draining through the writeback buffer is retried after its ack.
	if e, ok := c.wb[line]; ok {
		e.retry = append(e.retry, retryReq{addr, write, done})
		return
	}

	if l := c.find(line); l != nil {
		if l.prefetched {
			l.prefetched = false
			c.prefetchUseful++
		}
		if !write {
			c.hits++
			c.touch(l)
			c.q.After(c.hitLat, done)
			return
		}
		switch l.state {
		case l1E, l1M:
			// Silent E→M upgrade.
			c.hits++
			l.state = l1M
			l.dirty = true
			c.touch(l)
			c.q.After(c.hitLat, done)
			return
		case l1S, l1O:
			// Upgrade miss: invalidate the other copies. Pin the retained
			// copy so it survives until the permissions arrive; defer the
			// request if pinning would leave the set without victims.
			if !l.pinned && pinnedIn(c.set(line)) >= c.ways-1 {
				c.pending = append(c.pending, retryReq{addr, write, done})
				return
			}
			l.pinned = true
		}
	}

	c.misses++
	c.miss(line, write, done)
}

// pinnedIn counts the pinned resident lines among ls.
func pinnedIn(ls []l1Line) int {
	n := 0
	for i := range ls {
		if ls[i].state != l1I && ls[i].pinned {
			n++
		}
	}
	return n
}

func (c *L1) touch(l *l1Line) {
	c.tick++
	l.lru = c.tick
}

func (c *L1) miss(line uint64, write bool, done func()) {
	if m, ok := c.mshrs[line]; ok {
		// Merge into the outstanding miss; writes that cannot be satisfied
		// by its grant are retried on completion.
		m.waiting = append(m.waiting, waiter{write, done})
		return
	}
	if len(c.mshrs) >= c.maxMSHR {
		c.pending = append(c.pending, retryReq{line, write, done})
		return
	}
	m := &l1MSHR{line: line, wantX: write}
	m.waiting = append(m.waiting, waiter{write, done})
	c.mshrs[line] = m
	if write {
		c.send(c.home(line), ctrlFlits, msgGetX{req: c.id, line: line})
	} else {
		c.send(c.home(line), ctrlFlits, msgGetS{req: c.id, line: line})
		c.maybePrefetch(line + 64)
	}
}

// maybePrefetch issues a next-line prefetch (GetS with no waiters) if the
// line is absent, not already in flight, and an MSHR is free. Keeping one
// MSHR in reserve stops the prefetcher from starving demand misses.
func (c *L1) maybePrefetch(line uint64) {
	if !c.prefetch {
		return
	}
	if len(c.mshrs) >= c.maxMSHR-1 {
		return
	}
	if c.find(line) != nil {
		return
	}
	if _, ok := c.mshrs[line]; ok {
		return
	}
	if _, ok := c.wb[line]; ok {
		return
	}
	c.prefetchIssued++
	c.mshrs[line] = &l1MSHR{line: line, prefetch: true}
	c.send(c.home(line), ctrlFlits, msgGetS{req: c.id, line: line})
}

func (c *L1) send(dstNode, flits int, payload any) {
	c.net.Send(c.id.Core(), dstNode, flits, payload)
}

// SetPort redirects the L1's event scheduling and mesh injection through p.
// Installed once at system construction, before any access; the partition
// layer's ports pass straight through outside the tick phase, so protocol
// receives and end-of-run drains behave identically.
func (c *L1) SetPort(p FrontPort) {
	c.q = p
	c.net = p
}

// Receive dispatches a protocol message addressed to this cache.
func (c *L1) Receive(msg any) {
	switch m := msg.(type) {
	case msgData:
		c.onData(m)
	case msgAckCount:
		c.onAckCount(m)
	case msgOwnerData:
		c.onOwnerData(m)
	case msgInvAck:
		c.onInvAck(m)
	case msgInv:
		c.onInv(m)
	case msgFwdGetS:
		c.onFwdGetS(m)
	case msgFwdGetX:
		c.onFwdGetX(m)
	case msgPutAck:
		c.onPutAck(m)
	default:
		panic("cache: L1 received unknown message")
	}
}

// PendingLen returns the number of deferred requests (diagnostics).
func (c *L1) PendingLen() int { return len(c.pending) }

// WBLen returns the writeback-buffer occupancy (diagnostics).
func (c *L1) WBLen() int { return len(c.wb) }

// PinnedTotal counts pinned resident lines (diagnostics).
func (c *L1) PinnedTotal() int { return pinnedIn(c.lines) }
