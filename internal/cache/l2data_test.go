package cache

import (
	"fmt"
	"testing"

	"ptbsim/internal/xrand"
)

func TestL2DataPresence(t *testing.T) {
	d := newL2Data(1<<20, 4)
	if d.present(0x1000) {
		t.Fatal("cold hit")
	}
	d.insert(0x1000)
	if !d.present(0x1000) {
		t.Fatal("miss after insert")
	}
	if d.Hits() != 1 || d.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", d.Hits(), d.Misses())
	}
}

func TestL2DataLRUEviction(t *testing.T) {
	// Tiny bank: 2 sets × 2 ways.
	d := newL2Data(2*2*64, 2)
	set0 := func(i int) uint64 { return uint64(i) * 2 * 64 } // even line index → set 0
	d.insert(set0(0))
	d.insert(set0(1))
	// Touch line 0 so line 1 is LRU.
	if !d.present(set0(0)) {
		t.Fatal("line 0 missing")
	}
	d.insert(set0(2)) // evicts line 1
	if !d.present(set0(0)) {
		t.Fatal("LRU evicted the recently used line")
	}
	if d.present(set0(1)) {
		t.Fatal("LRU kept the stale line")
	}
	if !d.present(set0(2)) {
		t.Fatal("new line missing")
	}
}

func TestL2DataReinsertRefreshes(t *testing.T) {
	d := newL2Data(2*2*64, 2)
	a, b, c := uint64(0), uint64(2*64), uint64(4*64) // all set 0
	d.insert(a)
	d.insert(b)
	d.insert(a) // refresh a: b becomes LRU
	d.insert(c)
	if !d.present(a) || d.present(b) {
		t.Fatal("re-insert did not refresh LRU position")
	}
}

// denseL2 is the L2 tag store as a dense set-major array, every set
// allocated up front: the reference the first-touch l2Data must match.
type denseL2 struct {
	geometry
	tags         []uint64
	valid        []bool
	lruTick      []uint64
	tick         uint64
	hits, misses int64
}

func newDenseL2(sizeBytes, ways int) *denseL2 {
	g := newGeometry(sizeBytes, ways)
	n := g.sets * g.ways
	return &denseL2{geometry: g, tags: make([]uint64, n), valid: make([]bool, n), lruTick: make([]uint64, n)}
}

func (d *denseL2) find(line uint64) int {
	b := d.base(line)
	for i := b; i < b+d.ways; i++ {
		if d.valid[i] && d.tags[i] == line {
			return i
		}
	}
	return -1
}

func (d *denseL2) present(line uint64) bool {
	if i := d.find(line); i >= 0 {
		d.tick++
		d.lruTick[i] = d.tick
		d.hits++
		return true
	}
	d.misses++
	return false
}

func (d *denseL2) insert(line uint64) {
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

// sameState names the first difference between d and the dense reference:
// the bank's tick, or a way's tag, valid bit or LRU tick. An untouched set
// of d reads as all-zero ways, as the dense array holds there.
func (d *l2Data) sameState(ref *denseL2) error {
	if d.tick != ref.tick {
		return fmt.Errorf("tick %d, dense %d", d.tick, ref.tick)
	}
	var untouched l2Line
	for s, k := range d.slot {
		for w := 0; w < d.ways; w++ {
			l := &untouched
			if k != 0 {
				l = &d.lines[int(k)-1+w]
			}
			i := s*d.ways + w
			if l.tag != ref.tags[i] || l.valid() != ref.valid[i] || l.lru != ref.lruTick[i] {
				return fmt.Errorf("set %d way %d: tag %#x valid %v lru %d, dense %#x %v %d",
					s, w, l.tag, l.valid(), l.lru, ref.tags[i], ref.valid[i], ref.lruTick[i])
			}
		}
	}
	return nil
}

// TestL2DataMatchesDense drives the first-touch tag store and the dense
// reference with one seeded line stream, on a power-of-two (4,096-set) and
// a non-power-of-two (3,072-set) bank. Most lines fall in a few hot sets,
// six to eight candidates each, so ways conflict and evict; the rest are
// scattered cold lines. Every probe must agree, and so must the hit and
// miss counts and every way's tag, valid bit and LRU tick, checked along
// the way and at the end.
func TestL2DataMatchesDense(t *testing.T) {
	for _, size := range []int{1 << 20, 768 << 10} {
		got, want := newL2Data(size, 4), newDenseL2(size, 4)
		sets := uint64(got.sets)
		rng := xrand.New(uint64(size))
		hot := make([]uint64, 12)
		for i := range hot {
			hot[i] = uint64(rng.Intn(int(sets)))
		}
		for i := 0; i < 200_000; i++ {
			var line uint64
			if rng.Bool(0.9) {
				set := hot[rng.Intn(len(hot))]
				line = (set + uint64(rng.Intn(8))*sets) * 64
			} else {
				line = rng.Uint64() &^ 63
			}
			if g, w := got.present(line), want.present(line); g != w {
				t.Fatalf("%d sets, op %d: present(%#x) = %v, dense %v", sets, i, line, g, w)
			}
			if rng.Bool(0.6) {
				got.insert(line)
				want.insert(line)
			}
			if i%50_000 == 0 || i == 199_999 {
				if got.Hits() != want.hits || got.Misses() != want.misses {
					t.Fatalf("%d sets, op %d: hits/misses %d/%d, dense %d/%d",
						sets, i, got.Hits(), got.Misses(), want.hits, want.misses)
				}
				if err := got.sameState(want); err != nil {
					t.Fatalf("%d sets, op %d: %v", sets, i, err)
				}
			}
		}
		if got.Hits() == 0 || got.Misses() == 0 {
			t.Fatalf("%d sets: stream gave %d hits, %d misses; want both", sets, got.Hits(), got.Misses())
		}
		if touched := len(got.lines) / got.ways; touched >= got.sets {
			t.Fatalf("%d sets: %d touched, want a fraction", sets, touched)
		}
	}
}
