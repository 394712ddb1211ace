package cache

import (
	"ptbsim/internal/eventq"
	"ptbsim/internal/mem"
	"ptbsim/internal/mesh"
	"ptbsim/internal/power"
)

// Directory timing: the directory lookup is part of the L2 tag pipeline.
const (
	dirLatency = 4
	l2Latency  = 12
)

// dirState is the home directory's view of a line. The protocol collapses
// E/M/O owner states into a single "owned" state: the owner cache is the
// data provider and tracks cleanliness itself (a clean owner writes back
// without data). This keeps the directory exact under silent E→M upgrades.
type dirState uint8

const (
	dirUncached dirState = iota // no L1 copies; data in L2/memory
	dirShared                   // read-only copies; data in L2/memory
	dirOwned                    // one owner (E/M/O), possibly plus sharers
)

// sharerMaskWords sizes the directory sharer bitset: 2 cache IDs per core
// (L1I and L1D interleaved), 64 IDs per word. Eight words cover a 256-core
// chip. A single uint64 — the original representation — silently dropped
// every sharer with CacheID ≥ 64, which capped correct coherence at 32
// cores; the fixed-size array keeps dirEntry a flat value with no
// per-entry allocation.
const sharerMaskWords = 8

// sharerMask is an exact bitset over CacheID.
type sharerMask [sharerMaskWords]uint64

func (m *sharerMask) add(c CacheID)      { m[uint(c)>>6] |= 1 << (uint(c) & 63) }
func (m *sharerMask) drop(c CacheID)     { m[uint(c)>>6] &^= 1 << (uint(c) & 63) }
func (m *sharerMask) has(c CacheID) bool { return m[uint(c)>>6]&(1<<(uint(c)&63)) != 0 }
func (m *sharerMask) clear()             { *m = sharerMask{} }

func (m *sharerMask) empty() bool {
	for _, w := range m {
		if w != 0 {
			return false
		}
	}
	return true
}

type dirEntry struct {
	line    uint64
	state   dirState
	owner   CacheID
	sharers sharerMask
	busy    bool
	queue   []any
}

func (e *dirEntry) addSharer(c CacheID)     { e.sharers.add(c) }
func (e *dirEntry) dropSharer(c CacheID)    { e.sharers.drop(c) }
func (e *dirEntry) isSharer(c CacheID) bool { return e.sharers.has(c) }

func (e *dirEntry) sharerList() []CacheID {
	var out []CacheID
	for w, word := range e.sharers {
		for m, i := word, 0; m != 0; m, i = m>>1, i+1 {
			if m&1 != 0 {
				out = append(out, CacheID(w*64+i))
			}
		}
	}
	return out
}

// HomeBank is one tile's slice of the distributed shared L2 together with
// its directory slice. It is the serialization point for all coherence
// transactions on the lines it homes.
type HomeBank struct {
	node  int
	q     *eventq.Queue
	meter *power.Meter
	net   *mesh.Mesh
	mem   *mem.Memory
	data  *l2Data

	lines map[uint64]*dirEntry
	// entries lists the directory entries in creation order (entries are
	// never removed), so walks over them are deterministic.
	entries []*dirEntry

	// Stats.
	getS, getX, puts, fwds, invs int64
}

// NewHomeBank creates the home bank at the given mesh node.
func NewHomeBank(node int, q *eventq.Queue, meter *power.Meter, net *mesh.Mesh, m *mem.Memory, l2SizeBytes, l2Ways int) *HomeBank {
	return &HomeBank{
		node:  node,
		q:     q,
		meter: meter,
		net:   net,
		mem:   m,
		data:  newL2Data(l2SizeBytes, l2Ways),
		lines: make(map[uint64]*dirEntry),
	}
}

func (h *HomeBank) entry(line uint64) *dirEntry {
	e, ok := h.lines[line]
	if !ok {
		e = &dirEntry{line: line, owner: -1}
		h.lines[line] = e
		h.entries = append(h.entries, e)
	}
	return e
}

// Receive dispatches a protocol message addressed to this home bank.
func (h *HomeBank) Receive(msg any) {
	h.meter.Add(h.node, power.EvDir, 1)
	switch m := msg.(type) {
	case msgGetS:
		h.startOrQueue(m.line, m)
	case msgGetX:
		h.startOrQueue(m.line, m)
	case msgPut:
		h.startOrQueue(m.line, m)
	case msgUnblock:
		e := h.entry(m.line)
		e.busy = false
		h.drainQueue(m.line, e)
	default:
		panic("cache: home bank received unknown message")
	}
}

// startOrQueue serializes transactions per line.
func (h *HomeBank) startOrQueue(line uint64, msg any) {
	e := h.entry(line)
	if e.busy {
		e.queue = append(e.queue, msg)
		return
	}
	h.process(line, e, msg)
}

// drainQueue runs queued requests in arrival order until one blocks the
// line again or the queue empties.
func (h *HomeBank) drainQueue(line uint64, e *dirEntry) {
	for len(e.queue) > 0 && !e.busy {
		msg := e.queue[0]
		e.queue = e.queue[1:]
		h.process(line, e, msg)
	}
}

func (h *HomeBank) process(line uint64, e *dirEntry, msg any) {
	switch m := msg.(type) {
	case msgGetS:
		h.getS++
		e.busy = true
		h.q.After(dirLatency, func() { h.handleGetS(line, e, m) })
	case msgGetX:
		h.getX++
		e.busy = true
		h.q.After(dirLatency, func() { h.handleGetX(line, e, m) })
	case msgPut:
		h.puts++
		// Puts are atomic at the directory: no transaction window needed.
		h.q.After(dirLatency, func() { h.handlePut(line, e, m) })
	default:
		panic("cache: unexpected queued message")
	}
}

func (h *HomeBank) handleGetS(line uint64, e *dirEntry, m msgGetS) {
	switch e.state {
	case dirUncached:
		// Grant exclusive-clean (the E optimization of MOESI).
		e.state = dirOwned
		e.owner = m.req
		e.sharers.clear()
		h.supplyData(line, m.req, true, 0, false)
	case dirShared:
		e.addSharer(m.req)
		h.supplyData(line, m.req, false, 0, false)
	case dirOwned:
		// Three-hop transfer: owner forwards and stays owner (data
		// provider); requester becomes a sharer.
		h.fwds++
		e.addSharer(m.req)
		h.send(cacheNode(e.owner), ctrlFlits, msgFwdGetS{line: line, owner: e.owner, req: m.req})
	}
}

func (h *HomeBank) handleGetX(line uint64, e *dirEntry, m msgGetX) {
	switch e.state {
	case dirUncached:
		e.state = dirOwned
		e.owner = m.req
		e.sharers.clear()
		h.supplyData(line, m.req, true, 0, false)
	case dirShared:
		acks := 0
		for _, s := range e.sharerList() {
			if s == m.req {
				continue
			}
			acks++
			h.invs++
			h.send(cacheNode(s), ctrlFlits, msgInv{line: line, sharer: s, req: m.req})
		}
		hadCopy := e.isSharer(m.req)
		e.state = dirOwned
		e.owner = m.req
		e.sharers.clear()
		h.supplyData(line, m.req, true, acks, hadCopy)
	case dirOwned:
		if e.owner == m.req {
			// Store to an owned-shared line: invalidate the sharers, no
			// data needed.
			acks := 0
			for _, s := range e.sharerList() {
				if s == m.req {
					continue
				}
				acks++
				h.invs++
				h.send(cacheNode(s), ctrlFlits, msgInv{line: line, sharer: s, req: m.req})
			}
			e.sharers.clear()
			h.send(cacheNode(m.req), ctrlFlits, msgData{line: line, dest: m.req, excl: true, acks: acks, noData: true})
			return
		}
		acks := 0
		for _, s := range e.sharerList() {
			if s == m.req {
				continue
			}
			acks++
			h.invs++
			h.send(cacheNode(s), ctrlFlits, msgInv{line: line, sharer: s, req: m.req})
		}
		h.fwds++
		h.send(cacheNode(e.owner), ctrlFlits, msgFwdGetX{line: line, owner: e.owner, req: m.req})
		h.send(cacheNode(m.req), ctrlFlits, msgAckCount{line: line, dest: m.req, acks: acks})
		e.owner = m.req
		e.sharers.clear()
	}
}

func (h *HomeBank) handlePut(line uint64, e *dirEntry, m msgPut) {
	switch m.kind {
	case putS:
		// Fire-and-forget sharer eviction.
		e.dropSharer(m.req)
		if e.state == dirShared && e.sharers.empty() {
			e.state = dirUncached
		}
	case putE, putM:
		if e.state != dirOwned || e.owner != m.req {
			// Ownership moved while the Put was in flight; the evictor
			// already served the forward from its writeback buffer.
			h.send(cacheNode(m.req), ctrlFlits, msgPutAck{line: line, dest: m.req})
			return
		}
		if m.kind == putM {
			// Dirty data lands in the L2.
			h.meter.Add(h.node, power.EvL2, 1)
			h.data.insert(line)
		}
		e.owner = -1
		if !e.sharers.empty() {
			e.state = dirShared
		} else {
			e.state = dirUncached
		}
		h.send(cacheNode(m.req), ctrlFlits, msgPutAck{line: line, dest: m.req})
	}
}

// supplyData sends the line (or a permissions-only response when noData) to
// the requester, fetching from memory if the L2 bank misses.
func (h *HomeBank) supplyData(line uint64, req CacheID, excl bool, acks int, noData bool) {
	if noData {
		h.send(cacheNode(req), ctrlFlits, msgData{line: line, dest: req, excl: excl, acks: acks, noData: true})
		return
	}
	h.meter.Add(h.node, power.EvL2, 1)
	if h.data.present(line) {
		h.q.After(l2Latency, func() {
			h.send(cacheNode(req), dataFlits, msgData{line: line, dest: req, excl: excl, acks: acks})
		})
		return
	}
	h.q.After(l2Latency, func() {
		h.mem.Access(line, h.node, func() {
			h.meter.Add(h.node, power.EvL2, 1)
			h.data.insert(line)
			h.send(cacheNode(req), dataFlits, msgData{line: line, dest: req, excl: excl, acks: acks})
		})
	})
}

func (h *HomeBank) send(dstNode, flits int, payload any) {
	h.net.Send(h.node, dstNode, flits, payload)
}

// cacheNode returns the mesh node hosting a cache.
func cacheNode(c CacheID) int { return c.Core() }

// Stats returns protocol counters: GetS, GetX, Put, forward and invalidate
// message counts plus the bank's L2 hits and misses.
func (h *HomeBank) Stats() (getS, getX, puts, fwds, invs, l2Hits, l2Misses int64) {
	return h.getS, h.getX, h.puts, h.fwds, h.invs, h.data.Hits(), h.data.Misses()
}
