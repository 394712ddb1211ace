// Package cache implements the simulated memory hierarchy: private L1
// instruction and data caches per core and a distributed shared L2 whose
// banks double as directory home nodes for a MOESI coherence protocol
// (paper Table 1: MOESI, 64KB 2-way L1s at 1 cycle, 1MB/core 4-way unified
// L2 at 12 cycles, 300-cycle memory).
//
// The protocol is a three-hop directory protocol in the style of GEMS/Ruby:
// the home directory is the per-line serialization point (one transaction in
// flight per line; later requests queue), owners forward data directly to
// requesters, sharers acknowledge invalidations directly to the requester,
// and the requester unblocks the directory when its transaction completes.
// Evictions of owned lines are blocking (writeback buffer until PutAck) so
// forwarded requests always find data.
package cache

// CacheID identifies one L1 cache: core*2 for the data cache, core*2+1 for
// the instruction cache. Directory sharer sets are bitmasks over CacheIDs.
type CacheID int

// Core returns the core (tile/node) hosting the cache.
func (c CacheID) Core() int { return int(c) / 2 }

// IsInst reports whether the ID names an instruction cache.
func (c CacheID) IsInst() bool { return int(c)%2 == 1 }

// DataCache returns the data-cache ID of a core.
func DataCache(core int) CacheID { return CacheID(core * 2) }

// InstCache returns the instruction-cache ID of a core.
func InstCache(core int) CacheID { return CacheID(core*2 + 1) }

// Message flit sizes: a control message is header-only; a data message
// carries a 64-byte line.
const (
	ctrlFlits = 2
	dataFlits = 18
)

// putKind distinguishes eviction notices.
type putKind uint8

const (
	putS putKind = iota // sharer eviction, fire-and-forget
	putE                // exclusive clean eviction, blocking, no data
	putM                // dirty eviction (M or O), blocking, carries data
)

// Requests to the home directory.

type msgGetS struct {
	req  CacheID
	line uint64
}

type msgGetX struct {
	req  CacheID
	line uint64
}

type msgPut struct {
	req  CacheID
	line uint64
	kind putKind
}

type msgUnblock struct {
	req  CacheID
	line uint64
}

// Responses and forwards from the home directory.

// msgData carries the line to the requester from the home bank.
type msgData struct {
	line uint64
	dest CacheID
	// excl grants exclusive ownership (E for GetS on an uncached line, M
	// for GetX).
	excl bool
	// acks is the number of InvAcks the requester must collect before the
	// transaction completes.
	acks int
	// noData marks an upgrade response: the requester already holds the
	// line in S and only needed permissions.
	noData bool
}

// msgAckCount tells a GetX requester how many InvAcks to expect when the
// data itself comes from the previous owner (three-hop transfer).
type msgAckCount struct {
	line uint64
	dest CacheID
	acks int
}

// msgFwdGetS asks the current owner to send the line to req and downgrade.
type msgFwdGetS struct {
	line  uint64
	owner CacheID
	req   CacheID
}

// msgFwdGetX asks the current owner to send the line to req and invalidate.
type msgFwdGetX struct {
	line  uint64
	owner CacheID
	req   CacheID
}

// msgInv asks a sharer to invalidate and acknowledge to req.
type msgInv struct {
	line   uint64
	sharer CacheID
	req    CacheID
}

// msgPutAck completes a blocking eviction. The evictor drops its buffer
// whether or not the directory still considered it the owner.
type msgPutAck struct {
	line uint64
	dest CacheID
}

// Cache-to-cache messages.

// msgOwnerData carries the line from the previous owner to the requester.
type msgOwnerData struct {
	line uint64
	dest CacheID
	// excl: the requester becomes exclusive owner (FwdGetX path).
	excl bool
}

// msgInvAck acknowledges an invalidation to the requester.
type msgInvAck struct {
	line uint64
	dest CacheID
}
