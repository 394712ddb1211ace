package cache

import (
	"ptbsim/internal/eventq"
	"ptbsim/internal/mem"
	"ptbsim/internal/mesh"
	"ptbsim/internal/power"
)

// Config sizes the memory hierarchy. The zero value is replaced by the
// paper's Table-1 configuration.
type Config struct {
	L1SizeBytes int // per L1 (I and D each); default 64KB
	L1Ways      int // default 2
	L2SizeBytes int // per bank; default 1MB
	L2Ways      int // default 4
	// L1Prefetch enables next-line prefetching in the data caches
	// (optional substrate feature, off by default to match the paper's
	// Table-1 machine).
	L1Prefetch bool
}

// withDefaults fills zero fields from Table 1.
func (c Config) withDefaults() Config {
	if c.L1SizeBytes == 0 {
		c.L1SizeBytes = 64 << 10
	}
	if c.L1Ways == 0 {
		c.L1Ways = 2
	}
	if c.L2SizeBytes == 0 {
		c.L2SizeBytes = 1 << 20
	}
	if c.L2Ways == 0 {
		c.L2Ways = 4
	}
	return c
}

// Hierarchy assembles the per-tile caches, the distributed directory and the
// memory behind one mesh. It owns message dispatch: every mesh delivery at a
// node is routed to that node's L1I, L1D or home bank.
type Hierarchy struct {
	N     int
	L1I   []*L1
	L1D   []*L1
	Banks []*HomeBank
	Mem   *mem.Memory

	net *mesh.Mesh
}

// NewHierarchy builds the full memory system for n cores.
func NewHierarchy(n int, q *eventq.Queue, meter *power.Meter, net *mesh.Mesh, cfg Config) *Hierarchy {
	cfg = cfg.withDefaults()
	h := &Hierarchy{
		N:   n,
		net: net,
		Mem: mem.New(q, meter, n),
	}
	home := func(line uint64) int { return int((line / 64) % uint64(n)) }
	for i := 0; i < n; i++ {
		d := NewL1(DataCache(i), q, meter, net, home, cfg.L1SizeBytes, cfg.L1Ways, false)
		d.EnablePrefetch(cfg.L1Prefetch)
		h.L1D = append(h.L1D, d)
		h.L1I = append(h.L1I, NewL1(InstCache(i), q, meter, net, home, cfg.L1SizeBytes, cfg.L1Ways, true))
		h.Banks = append(h.Banks, NewHomeBank(i, q, meter, net, h.Mem, cfg.L2SizeBytes, cfg.L2Ways))
	}
	for i := 0; i < n; i++ {
		node := i
		net.SetHandler(node, func(payload any) { h.dispatch(node, payload) })
	}
	return h
}

// cacheAt returns the L1 identified by id (which must live at the given
// node).
func (h *Hierarchy) cacheAt(id CacheID) *L1 {
	if id.IsInst() {
		return h.L1I[id.Core()]
	}
	return h.L1D[id.Core()]
}

// dispatch routes a delivered message to the right component of the node.
func (h *Hierarchy) dispatch(node int, payload any) {
	switch m := payload.(type) {
	case msgGetS, msgGetX, msgPut, msgUnblock:
		h.Banks[node].Receive(m)
	case msgData:
		h.cacheAt(m.dest).Receive(m)
	case msgAckCount:
		h.cacheAt(m.dest).Receive(m)
	case msgPutAck:
		h.cacheAt(m.dest).Receive(m)
	case msgInv:
		h.cacheAt(m.sharer).Receive(m)
	case msgFwdGetS:
		h.cacheAt(m.owner).Receive(m)
	case msgFwdGetX:
		h.cacheAt(m.owner).Receive(m)
	case msgOwnerData:
		h.cacheAt(m.dest).Receive(m)
	case msgInvAck:
		h.cacheAt(m.dest).Receive(m)
	default:
		panic("cache: unroutable message")
	}
}

// Read issues a data load on core's L1D.
func (h *Hierarchy) Read(core int, addr uint64, done func()) {
	h.L1D[core].Access(addr, false, done)
}

// Write issues a data store (or the exclusive-ownership step of an atomic
// read-modify-write) on core's L1D.
func (h *Hierarchy) Write(core int, addr uint64, done func()) {
	h.L1D[core].Access(addr, true, done)
}

// Fetch issues an instruction-cache line read on core's L1I.
func (h *Hierarchy) Fetch(core int, addr uint64, done func()) {
	h.L1I[core].Access(addr, false, done)
}
