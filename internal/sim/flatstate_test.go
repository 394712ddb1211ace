package sim

import (
	"runtime"
	"testing"

	"ptbsim/internal/core"
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
