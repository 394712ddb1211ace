package statehash

import "testing"

func TestHasherDeterministicAndSensitive(t *testing.T) {
	fill := func(h *Hasher) {
		h.WriteU64(1)
		h.WriteI64(-5)
		h.WriteF64(3.14)
		h.WriteBool(true)
		h.WriteInt(42)
		h.WriteBytes([]byte("abc"))
		h.WriteString("def")
	}
	a, b := NewHasher(), NewHasher()
	fill(a)
	fill(b)
	if a.Sum() != b.Sum() {
		t.Fatal("hasher is not deterministic")
	}
	c := NewHasher()
	fill(c)
	c.WriteU64(0)
	if a.Sum() == c.Sum() {
		t.Fatal("hasher misses an appended value")
	}
	// Length prefixes keep concatenations unambiguous.
	x, y := NewHasher(), NewHasher()
	x.WriteString("ab")
	x.WriteString("c")
	y.WriteString("a")
	y.WriteString("bc")
	if x.Sum() == y.Sum() {
		t.Fatal("string framing is ambiguous")
	}
}

func TestHasherLargeWrites(t *testing.T) {
	// Writes larger than the internal buffer must chunk correctly.
	big := make([]byte, 3*4096+17)
	for i := range big {
		big[i] = byte(i)
	}
	a := NewHasher()
	a.WriteBytes(big)
	b := NewHasher()
	b.WriteBytes(big)
	if a.Sum() != b.Sum() {
		t.Fatal("large write not deterministic")
	}
	c := NewHasher()
	big[5000] ^= 1
	c.WriteBytes(big)
	if a.Sum() == c.Sum() {
		t.Fatal("large write misses a flipped byte")
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[uint64]int{5: 0, 1: 0, 9: 0, 3: 0}
	got := SortedKeys(m)
	want := []uint64{1, 3, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedKeys = %v, want %v", got, want)
		}
	}
}
