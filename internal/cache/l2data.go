package cache

// geometry is the shape of a set-associative array. An L1 is stored
// set-major in one flat slice, way w of set s at index s*ways+w; an L2
// bank keeps each set's ways contiguous, in first-touch order.
type geometry struct {
	sets, ways int
	// mask is sets-1 when sets is a power of two (and above one), else 0.
	mask uint64
}

// newGeometry shapes an array of sizeBytes with 64-byte lines.
func newGeometry(sizeBytes, ways int) geometry {
	g := geometry{sets: sizeBytes / (ways * 64), ways: ways}
	if g.sets > 1 && g.sets&(g.sets-1) == 0 {
		g.mask = uint64(g.sets - 1)
	}
	return g
}

// set returns line's set, (line/64) mod sets. For a power-of-two set
// count the mask is that same remainder, so the common geometry pays no
// division.
func (g geometry) set(line uint64) int {
	n := line >> 6
	if g.mask != 0 {
		return int(n & g.mask)
	}
	return int(n % uint64(g.sets))
}

// base returns the flat index of way 0 of line's set.
func (g geometry) base(line uint64) int { return g.set(line) * g.ways }

// l2Data is the data array of one L2 bank: a set-associative tag store used
// to decide whether the home bank can supply a line locally (12-cycle L2
// access) or must fetch it from memory (300 cycles). Only presence is
// tracked; line contents are immaterial to the simulation.
//
// A run touches a few percent of a Table-1 bank's sets, so ways are
// allocated on a set's first insert rather than for every set up front:
// slot maps a set to its ways in lines, which grows in first-touch order.
// A set that was never filled reads as all ways invalid, as it would in a
// dense array.
type l2Data struct {
	geometry
	// slot[s] is 0 while set s was never filled, else 1 + the index in
	// lines of the set's way 0.
	slot  []int32
	lines []l2Line
	tick  uint64

	hits, misses int64
}

// l2Line is one way. lru provides cheap LRU (higher = more recent); it is
// 0 only for a way never filled, which is what marks the way invalid.
type l2Line struct {
	tag, lru uint64
}

func (l *l2Line) valid() bool { return l.lru != 0 }

// newL2Data builds a bank of sizeBytes with the given associativity and
// 64-byte lines.
func newL2Data(sizeBytes, ways int) *l2Data {
	g := newGeometry(sizeBytes, ways)
	return &l2Data{geometry: g, slot: make([]int32, g.sets)}
}

// setWays returns the ways of line's set, or nil when the set was never filled.
func (d *l2Data) setWays(line uint64) []l2Line {
	k := int(d.slot[d.set(line)])
	if k == 0 {
		return nil
	}
	return d.lines[k-1 : k-1+d.ways]
}

// present probes the bank for a line, updating LRU and hit/miss counters.
func (d *l2Data) present(line uint64) bool {
	if w := findWay(d.setWays(line), line); w != nil {
		d.tick++
		w.lru = d.tick
		d.hits++
		return true
	}
	d.misses++
	return false
}

// findWay returns line's way in set, or nil when it is absent.
func findWay(set []l2Line, line uint64) *l2Line {
	for i := range set {
		if set[i].valid() && set[i].tag == line {
			return &set[i]
		}
	}
	return nil
}

// insert installs a line, evicting the LRU way if needed. L2 evictions are
// silent from the protocol's perspective: the directory keeps coherence
// state separately, and clean data remains available in memory. (Dirty data
// written back into the L2 by a PutM conceptually propagates to memory on
// eviction; only timing matters here and that write is absorbed by the
// memory model's bank occupancy.)
func (d *l2Data) insert(line uint64) {
	set := d.setWays(line)
	if set == nil {
		s := d.set(line)
		d.slot[s] = int32(len(d.lines)) + 1
		d.lines = append(d.lines, make([]l2Line, d.ways)...)
		set = d.lines[len(d.lines)-d.ways:]
	}
	// Already present: refresh.
	if w := findWay(set, line); w != nil {
		d.tick++
		w.lru = d.tick
		return
	}
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid() {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	d.tick++
	set[victim] = l2Line{tag: line, lru: d.tick}
}

// Hits and Misses expose the bank-local counters.
func (d *l2Data) Hits() int64   { return d.hits }
func (d *l2Data) Misses() int64 { return d.misses }
