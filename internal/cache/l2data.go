package cache

// geometry is the shape of a set-associative array. Arrays are stored
// set-major in one flat slice: way w of set s sits at index s*ways+w.
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

// base returns the flat index of way 0 of line's set, (line/64) mod sets.
// For a power-of-two set count the mask is that same remainder, so the
// common geometry pays no division.
func (g geometry) base(line uint64) int {
	n := line >> 6
	if g.mask != 0 {
		return int(n&g.mask) * g.ways
	}
	return int(n%uint64(g.sets)) * g.ways
}

// l2Data is the data array of one L2 bank: a set-associative tag store used
// to decide whether the home bank can supply a line locally (12-cycle L2
// access) or must fetch it from memory (300 cycles). Only presence is
// tracked; line contents are immaterial to the simulation.
type l2Data struct {
	geometry
	// tags, valid and lruTick are set-major arrays of sets*ways entries.
	tags  []uint64
	valid []bool
	// lruTick provides cheap LRU: higher = more recent.
	lruTick []uint64
	tick    uint64

	hits, misses int64
}

// newL2Data builds a bank of sizeBytes with the given associativity and
// 64-byte lines.
func newL2Data(sizeBytes, ways int) *l2Data {
	g := newGeometry(sizeBytes, ways)
	n := g.sets * g.ways
	return &l2Data{
		geometry: g,
		tags:     make([]uint64, n),
		valid:    make([]bool, n),
		lruTick:  make([]uint64, n),
	}
}

// present probes the bank for a line, updating LRU and hit/miss counters.
func (d *l2Data) present(line uint64) bool {
	if i := d.find(line); i >= 0 {
		d.tick++
		d.lruTick[i] = d.tick
		d.hits++
		return true
	}
	d.misses++
	return false
}

// find returns the flat index of line's way, or -1 when it is absent.
func (d *l2Data) find(line uint64) int {
	b := d.base(line)
	for i := b; i < b+d.ways; i++ {
		if d.valid[i] && d.tags[i] == line {
			return i
		}
	}
	return -1
}

// insert installs a line, evicting the LRU way if needed. L2 evictions are
// silent from the protocol's perspective: the directory keeps coherence
// state separately, and clean data remains available in memory. (Dirty data
// written back into the L2 by a PutM conceptually propagates to memory on
// eviction; only timing matters here and that write is absorbed by the
// memory model's bank occupancy.)
func (d *l2Data) insert(line uint64) {
	// Already present: refresh.
	if i := d.find(line); i >= 0 {
		d.tick++
		d.lruTick[i] = d.tick
		return
	}
	b := d.base(line)
	victim := b
	for i := b + 1; i < b+d.ways; i++ {
		if !d.valid[i] {
			victim = i
			break
		}
		if d.lruTick[i] < d.lruTick[victim] {
			victim = i
		}
	}
	d.tick++
	d.tags[victim] = line
	d.valid[victim] = true
	d.lruTick[victim] = d.tick
}

// Hits and Misses expose the bank-local counters.
func (d *l2Data) Hits() int64   { return d.hits }
func (d *l2Data) Misses() int64 { return d.misses }
