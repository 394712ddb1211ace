package workload

import (
	"testing"

	"ptbsim/internal/syncprim"
)

// nextAllocs warms a single-thread generator up, then reports the heap
// allocations of 20,000 further instructions, resolving every serializing
// instruction with result (so a lock-try or spin load always finds the
// lock taken). The count is a total, not a per-call average, which
// AllocsPerRun would round down to zero for one allocation every few
// instructions.
func nextAllocs(t *testing.T, spec *Spec, result int64) float64 {
	t.Helper()
	table := syncprim.NewTable(1, spec.NumLocks, 1)
	g := NewGenerator(spec, table, 0, 1)
	step := func() {
		inst, ok := g.Next()
		if !ok {
			t.Fatal("generator finished")
		}
		if inst.Serialize {
			g.Resolve(result)
		}
	}
	for i := 0; i < 200000; i++ {
		step()
	}
	return testing.AllocsPerRun(3, func() {
		for i := 0; i < 20000; i++ {
			step()
		}
	})
}

// TestNextZeroAllocs checks that after warm-up Next allocates nothing per
// instruction, both in a busy block (the branch table is dense and
// preallocated) and in a lock spin loop (the instruction queue is reused
// once drained, not resliced and regrown).
func TestNextZeroAllocs(t *testing.T) {
	base, _ := ByName("raytrace")

	busy := *base
	busy.LockProb = 0
	busy.BarrierEvery = 0
	busy.QuantumInsts = 1 << 30
	busy.Imbalance = 0
	if a := nextAllocs(t, &busy, 0); a != 0 {
		t.Errorf("busy-only spec: %.2f allocations in 20,000 instructions, want 0", a)
	}

	spin := *base
	spin.LockProb = 1
	spin.QuantumInsts = 16
	spin.Imbalance = 0
	if a := nextAllocs(t, &spin, 0); a != 0 {
		t.Errorf("lock-spin spec: %.2f allocations in 20,000 instructions, want 0", a)
	}
}
