package sim

import (
	"encoding/hex"
	"runtime"
	"testing"

	"ptbsim/internal/core"
	"ptbsim/internal/statehash"
)

// TestNewSystemAllocs bounds the heap allocations of building a 4-core
// Table-1 system. The cache tag arrays are flat (one allocation per array,
// not one per set), so construction cost no longer scales with the set
// count; a per-set layout made 53,476 allocations here.
func TestNewSystemAllocs(t *testing.T) {
	cfg := tiny("ocean", 4, TechPTB, core.PolicyToAll)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := NewSystem(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("NewSystem: %.0f allocations", allocs)
	if allocs > 1000 {
		t.Fatalf("NewSystem made %.0f allocations, want <= 1000", allocs)
	}
}

// TestNewSystemBytes bounds the heap bytes building a system allocates,
// for a 4-core PTB chip and a 64-core chip under the clustered balancer.
// L2 sets get their ways on first touch and the gshare counters are packed
// four to a byte; dense Table-1 tag stores and byte-per-counter tables
// would allocate 1.78 MB and 28.4 MB here.
func TestNewSystemBytes(t *testing.T) {
	big := tiny("ocean", 64, TechPTB, core.PolicyDynamic)
	big.PTBClusterSize = 16
	for _, c := range []struct {
		name string
		cfg  Config
		max  uint64
	}{
		{"4-core PTB", tiny("ocean", 4, TechPTB, core.PolicyToAll), 800_000},
		{"64-core clustered PTB", big, 12_000_000},
	} {
		// The least of a few builds: other goroutines' allocations only
		// ever add to the delta.
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := NewSystem(c.cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s: NewSystem allocates %.2f MB", c.name, float64(least)/1e6)
		if least > c.max {
			t.Errorf("%s: NewSystem allocates %d bytes, want <= %d", c.name, least, c.max)
		}
	}
}

// TestMidRunHashStatePinned pins the state digests of the workload
// generators, of the memory hierarchy (L1 lines, MSHRs, directory, L2
// tag arrays) and of the whole system, stopped mid-run. The values were
// recorded before the tag arrays and branch tables were flattened. They
// protect the per-epoch digest trail (ROADMAP item 4): a trail recorded
// by one build is compared against another, so the encodings may not
// move unless the change is justified and the trail re-recorded.
func TestMidRunHashStatePinned(t *testing.T) {
	cfg := tiny("raytrace", 4, TechPTB, core.PolicyToAll)
	cfg.WorkloadScale = 0.5
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.RunCycles(100_000) {
		t.Fatal("workload finished before the snapshot cycle")
	}
	gen := statehash.NewHasher()
	for _, g := range s.gens {
		g.HashState(gen)
	}
	hier := statehash.NewHasher()
	s.hier.HashState(hier)
	for _, c := range []struct {
		name string
		sum  [32]byte
		want string
	}{
		{"generators", gen.Sum(), "fcbe0e0450d1093239f0fe4c29b9dd1c02870cb3deae655fa73fc8c737bc45c1"},
		{"hierarchy", hier.Sum(), "e78ce6b8451c07faac2d24803c4ede249fd196d2ea9c41bb98a8be8c1414724f"},
		{"system", s.StateHash(), "7237f5629a15a1e34781c593e807324d649f7a6539f8deaff4b1c1627bf4634f"},
	} {
		if got := hex.EncodeToString(c.sum[:]); got != c.want {
			t.Errorf("%s HashState = %s, want %s", c.name, got, c.want)
		}
	}
}
