package xrand

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestZeroSeed(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck generator")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 100; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(99)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Property(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(3)
	const n = 200000
	sum := 0
	for i := 0; i < n; i++ {
		v := r.Geometric(8)
		if v < 1 {
			t.Fatalf("Geometric returned %d < 1", v)
		}
		sum += v
	}
	mean := float64(sum) / n
	if mean < 6.5 || mean > 9.5 {
		t.Fatalf("Geometric(8) empirical mean %.2f, want ~8", mean)
	}
}

func TestGeometricDegenerate(t *testing.T) {
	r := New(3)
	if v := r.Geometric(0.5); v != 1 {
		t.Fatalf("Geometric(0.5) = %d, want 1", v)
	}
}

func TestPerm(t *testing.T) {
	r := New(11)
	p := make([]int, 32)
	r.Perm(p)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(5)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams overlap: %d/100 identical draws", same)
	}
}

func TestBoolBias(t *testing.T) {
	r := New(17)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.23 || frac > 0.27 {
		t.Fatalf("Bool(0.25) frequency %.3f", frac)
	}
}

func TestUint32NotConstant(t *testing.T) {
	r := New(23)
	first := r.Uint32()
	for i := 0; i < 10; i++ {
		if r.Uint32() != first {
			return
		}
	}
	t.Fatal("Uint32 appears constant")
}

// TestIntnPowerOfTwoMatchesModulo checks the masked power-of-two path of
// Intn against Uint64()%n on one seeded stream.
func TestIntnPowerOfTwoMatchesModulo(t *testing.T) {
	a, b := New(2024), New(2024)
	for i := 0; i < 64*200; i++ {
		n := 1 << (i % 63)
		if got, want := a.Intn(n), int(b.Uint64()%uint64(n)); got != want {
			t.Fatalf("draw %d: Intn(%d) = %d, want %d", i, n, got, want)
		}
	}
}
