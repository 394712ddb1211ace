package cache

import "testing"

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
