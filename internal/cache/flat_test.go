package cache

import (
	"testing"

	"ptbsim/internal/eventq"
	"ptbsim/internal/mesh"
	"ptbsim/internal/power"
	"ptbsim/internal/xrand"
)

// TestSetIndexMatchesModulo checks the flat arrays' set index against the
// (line/64) mod sets it replaces, for the power-of-two geometries (taken
// by mask) and for others (taken by division).
func TestSetIndexMatchesModulo(t *testing.T) {
	rng := xrand.New(11)
	for _, c := range []struct{ size, ways int }{
		{64 << 10, 2}, {1 << 20, 4}, {2 * 2 * 64, 2}, {64, 1}, // powers of two
		{48 << 10, 2}, {768 << 10, 4}, {3 * 64, 1}, {96 << 10, 3}, // others
	} {
		g := newGeometry(c.size, c.ways)
		for i := 0; i < 20000; i++ {
			line := rng.Uint64() &^ 63
			if i < 1000 {
				line = uint64(i) * 64 // the first sets, across the wrap
			}
			want := int((line/64)%uint64(g.sets)) * g.ways
			if got := g.base(line); got != want {
				t.Fatalf("%d bytes %d-way: base(%#x) = %d, want %d", c.size, c.ways, line, got, want)
			}
		}
	}
}

// TestNonPowerOfTwoGeometryRuns drives coherence traffic with conflict
// evictions through a hierarchy whose L1 and L2 set counts are not powers
// of two (384 and 3072 sets): every access completes and the MOESI
// invariants hold at quiescence.
func TestNonPowerOfTwoGeometryRuns(t *testing.T) {
	const n = 4
	q := &eventq.Queue{}
	m := power.NewMeter(n)
	net := mesh.New(n, q, m)
	h := NewHierarchy(n, q, m, net, Config{L1SizeBytes: 48 << 10, L2SizeBytes: 768 << 10})
	if h.L1D[0].sets != 384 || h.Banks[0].data.sets != 3072 {
		t.Fatalf("sets L1=%d L2=%d, want 384 and 3072", h.L1D[0].sets, h.Banks[0].data.sets)
	}
	r := &rig{q: q, m: m, h: h}
	rng := xrand.New(5)
	const stride = 384 * 64 // lines this far apart share an L1 set
	issued, completed := 0, 0
	for i := 0; i < 400; i++ {
		line := uint64(0x10000 + rng.Intn(6)*stride + rng.Intn(4)*64)
		issued++
		if rng.Bool(0.4) {
			h.Write(rng.Intn(n), line, func() { completed++ })
		} else {
			h.Read(rng.Intn(n), line, func() { completed++ })
		}
		if rng.Bool(0.3) {
			q.RunUntil(q.Now() + int64(rng.Intn(300)))
		}
	}
	r.run(t, 2_000_000)
	if completed != issued {
		t.Fatalf("%d of %d accesses completed", completed, issued)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var l2Hits int64
	for _, b := range h.Banks {
		l2Hits += b.data.Hits()
	}
	if l2Hits == 0 {
		t.Fatal("no L2 hits: the bank tag arrays were never consulted")
	}
}

// TestCheckErrorsDeterministic corrupts two lines homed at one bank and
// expects both checks to name the same line on every call: the directory
// walk runs in entry creation order and the holder walk in line order,
// never in map order.
func TestCheckErrorsDeterministic(t *testing.T) {
	r := newRig(4)
	a, b := uint64(0x8000), uint64(0x8000+4*64*16) // both homed at bank 0
	for _, line := range []uint64{a, b} {
		r.h.Read(0, line, func() {})
		r.h.Read(1, line, func() {})
	}
	r.run(t, 100000)
	bank := r.h.Banks[0]
	for _, line := range []uint64{a, b} {
		e, ok := bank.lines[line]
		if !ok {
			t.Fatalf("line %#x missing from bank 0", line)
		}
		e.state = dirState(42)
		r.h.L1D[0].find(line).state = l1M
	}
	for name, check := range map[string]func() error{
		"CheckDirectoryEntries": r.h.CheckDirectoryEntries,
		"CheckInvariants":       r.h.CheckInvariants,
	} {
		first := check()
		if first == nil {
			t.Fatalf("%s: corruption went undetected", name)
		}
		for i := 0; i < 50; i++ {
			if err := check(); err == nil || err.Error() != first.Error() {
				t.Fatalf("%s call %d: %v, first call: %v", name, i, err, first)
			}
		}
	}
}
