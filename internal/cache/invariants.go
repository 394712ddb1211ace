package cache

import (
	"cmp"
	"fmt"
	"slices"
)

// CheckDirectoryEntries verifies the structural legality of every home
// directory entry without requiring quiescence, so the invariant layer can
// run it every epoch while coherence messages are in flight:
//
//   - the state is one of uncached/shared/owned;
//   - an owned entry names a valid owner cache, and the owner is never
//     simultaneously in its own sharer set;
//   - an uncached entry has no sharers (PutS collapses the sharer set);
//   - a non-busy entry has an empty transaction queue (the drain loop runs
//     queued requests whenever the line unblocks).
//
// The full MOESI cross-check against L1 contents (CheckInvariants) still
// needs a quiescent point and runs once at the end of an invariant-enabled
// run. Entries are walked bank by bank in creation order, so the error
// names the same line on every call.
func (h *Hierarchy) CheckDirectoryEntries() error {
	maxID := CacheID(2 * h.N)
	for node, bank := range h.Banks {
		for _, e := range bank.entries {
			line := e.line
			switch e.state {
			case dirUncached:
				if !e.sharers.empty() {
					return fmt.Errorf("bank %d line %#x: uncached but sharer set %v", node, line, e.sharerList())
				}
			case dirShared:
			case dirOwned:
				if e.owner < 0 || e.owner >= maxID {
					return fmt.Errorf("bank %d line %#x: owned by out-of-range cache %d", node, line, e.owner)
				}
				if e.isSharer(e.owner) {
					return fmt.Errorf("bank %d line %#x: owner %d also in its sharer set", node, line, e.owner)
				}
			default:
				return fmt.Errorf("bank %d line %#x: illegal directory state %d", node, line, e.state)
			}
			if !e.busy && len(e.queue) > 0 {
				return fmt.Errorf("bank %d line %#x: idle with %d queued transactions", node, line, len(e.queue))
			}
		}
	}
	return nil
}

// CheckInvariants walks every cache and directory entry and verifies the
// global MOESI invariants hold at a quiescent point (no messages in
// flight). It returns the first violation in ascending line order, or
// nil. Tests call it after draining the event queue; it is not part of
// the simulation loop.
//
// Checked invariants:
//
//  1. Single writer: at most one L1 holds a line in E or M.
//  2. Writer exclusion: if any L1 holds E/M, no other L1 holds any copy.
//  3. Directory owner accuracy: the directory's owned state names an L1
//     that actually holds the line in an owner state (E/M/O), and every
//     L1 owner is known to the directory.
//  4. Sharer soundness: every L1 holding S appears in its home
//     directory's sharer set (the reverse may transiently not hold only
//     through in-flight Puts, which quiescence excludes).
func (h *Hierarchy) CheckInvariants() error {
	type holder struct {
		line uint64
		id   CacheID
		st   l1State
	}
	var holders []holder
	collect := func(c *L1) {
		for i := range c.lines {
			if l := &c.lines[i]; l.state != l1I {
				holders = append(holders, holder{l.tag, c.id, l.state})
			}
		}
	}
	for i := 0; i < h.N; i++ {
		collect(h.L1D[i])
		collect(h.L1I[i])
	}
	// Group by line in ascending order, keeping collection order within a
	// line.
	slices.SortStableFunc(holders, func(a, b holder) int { return cmp.Compare(a.line, b.line) })

	for len(holders) > 0 {
		line := holders[0].line
		n := 1
		for n < len(holders) && holders[n].line == line {
			n++
		}
		hs := holders[:n]
		holders = holders[n:]
		excl := 0
		owners := 0
		for _, x := range hs {
			switch x.st {
			case l1E, l1M:
				excl++
				owners++
			case l1O:
				owners++
			}
		}
		if excl > 1 {
			return fmt.Errorf("line %#x: %d exclusive holders", line, excl)
		}
		if excl == 1 && len(hs) > 1 {
			return fmt.Errorf("line %#x: exclusive holder coexists with %d other copies", line, len(hs)-1)
		}
		if owners > 1 {
			return fmt.Errorf("line %#x: %d owners", line, owners)
		}

		home := h.Banks[int((line/64)%uint64(h.N))]
		e, ok := home.lines[line]
		if !ok {
			return fmt.Errorf("line %#x: cached but unknown to its home directory", line)
		}
		var dirOwnerHolds bool
		for _, x := range hs {
			if e.state == dirOwned && x.id == e.owner {
				switch x.st {
				case l1E, l1M, l1O:
					dirOwnerHolds = true
				}
			}
			if x.st == l1S && !e.isSharer(x.id) && !(e.state == dirOwned && e.owner == x.id) {
				return fmt.Errorf("line %#x: cache %d holds S but is not a directory sharer", line, x.id)
			}
		}
		if owners == 1 && e.state != dirOwned {
			return fmt.Errorf("line %#x: an L1 owns it but directory state is %v", line, e.state)
		}
		if e.state == dirOwned && !dirOwnerHolds {
			return fmt.Errorf("line %#x: directory owner %d holds no owner-state copy", line, e.owner)
		}
	}
	return nil
}
