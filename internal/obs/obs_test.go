package obs

import (
	"testing"
)

// fillCounters fabricates a deterministic simulation state: cumulative
// per-core energy grows by core+1 pJ per cycle, the counters by fixed
// increments per cycle.
func fillCounters(cycle *int64) FillFunc {
	return func(s *Sample) {
		c := float64(*cycle)
		var chip float64
		for i := range s.CorePJ {
			s.CorePJ[i] = float64(i + 1)
			chip += s.CorePJ[i]
			s.TokensPJ[i] = float64(i + 1)
			s.EpochPJ[i] = c * float64(i+1) // cumulative
			s.Classes[i] = i % 2
			s.Modes[i] = i % 3
		}
		s.ChipPJ = chip
		s.ClassCycles[0] = *cycle * 2 // cumulative
		s.NoCMessages = *cycle * 3
		s.NoCFlits = *cycle * 5
		s.L1Hits = *cycle * 7
		s.L1Misses = *cycle
		s.L2Hits = *cycle * 11
		s.L2Misses = *cycle * 13
	}
}

func TestRecorderEpochDeltas(t *testing.T) {
	var cycle int64
	r := NewRecorder(Config{Every: 10, Ring: 8}, 2, fillCounters(&cycle))
	r.SetRun("ocean", 2, "ptb", "Dynamic", 123.5)
	for cycle = 1; cycle <= 35; cycle++ {
		r.Tick(cycle)
	}
	cycle = 35
	r.Finalize(35)

	got := r.Samples()
	if len(got) != 4 {
		t.Fatalf("samples = %d, want 4 (3 full epochs + 1 partial)", len(got))
	}
	for i, s := range got {
		if s.Epoch != int64(i) {
			t.Errorf("sample %d: epoch = %d", i, s.Epoch)
		}
		if s.Bench != "ocean" || s.Cores != 2 || s.Tech != "ptb" || s.Policy != "Dynamic" || s.BudgetPJ != 123.5 {
			t.Errorf("sample %d: run tags not stamped: %+v", i, s)
		}
	}
	// Full epochs cover 10 cycles; deltas must match the per-cycle rates.
	for i, s := range got[:3] {
		if s.Cycles != 10 || s.Partial {
			t.Errorf("sample %d: cycles=%d partial=%v, want full 10-cycle epoch", i, s.Cycles, s.Partial)
		}
		if s.EpochPJ[0] != 10 || s.EpochPJ[1] != 20 {
			t.Errorf("sample %d: EpochPJ = %v, want [10 20]", i, s.EpochPJ)
		}
		if s.ClassCycles[0] != 20 || s.NoCMessages != 30 || s.NoCFlits != 50 ||
			s.L1Hits != 70 || s.L1Misses != 10 || s.L2Hits != 110 || s.L2Misses != 130 {
			t.Errorf("sample %d: counter deltas wrong: %+v", i, s)
		}
	}
	last := got[3]
	if !last.Partial || last.Cycles != 5 || last.Cycle != 35 {
		t.Fatalf("tail sample: %+v, want partial 5-cycle flush at cycle 35", last)
	}
	if last.EpochPJ[0] != 5 || last.EpochPJ[1] != 10 {
		t.Errorf("tail EpochPJ = %v, want [5 10]", last.EpochPJ)
	}

	// Finalize on an exact boundary must not double-sample.
	var c2 int64
	r2 := NewRecorder(Config{Every: 10, Ring: 8}, 1, fillCounters(&c2))
	for c2 = 1; c2 <= 30; c2++ {
		r2.Tick(c2)
	}
	c2 = 30
	r2.Finalize(30)
	if r2.Taken() != 3 {
		t.Fatalf("boundary finalize: taken = %d, want 3", r2.Taken())
	}
}

func TestRecorderRingWrap(t *testing.T) {
	var cycle int64
	r := NewRecorder(Config{Every: 1, Ring: 4}, 1, fillCounters(&cycle))
	for cycle = 1; cycle <= 10; cycle++ {
		r.Tick(cycle)
	}
	if r.Taken() != 10 || r.Dropped() != 6 {
		t.Fatalf("taken=%d dropped=%d, want 10/6", r.Taken(), r.Dropped())
	}
	got := r.Samples()
	if len(got) != 4 {
		t.Fatalf("retained = %d, want ring size 4", len(got))
	}
	for i, s := range got {
		if want := int64(6 + i); s.Epoch != want {
			t.Errorf("retained[%d].Epoch = %d, want %d (chronological tail)", i, s.Epoch, want)
		}
	}
}

func TestRecorderSinkSeesEverySample(t *testing.T) {
	var cycle int64
	var seen []int64
	sink := sinkFunc(func(s *Sample) { seen = append(seen, s.Epoch) })
	r := NewRecorder(Config{Every: 1, Ring: 2, Sink: sink}, 1, fillCounters(&cycle))
	for cycle = 1; cycle <= 6; cycle++ {
		r.Tick(cycle)
	}
	if len(seen) != 6 {
		t.Fatalf("sink saw %d samples, want all 6 despite ring size 2", len(seen))
	}
}

type sinkFunc func(*Sample)

func (f sinkFunc) Observe(s *Sample) { f(s) }

func TestCheckEnergy(t *testing.T) {
	var cycle int64
	r := NewRecorder(Config{Every: 10, Ring: 4}, 2, fillCounters(&cycle))
	for cycle = 1; cycle <= 57; cycle++ {
		r.Tick(cycle)
	}
	cycle = 57
	// Mid-run (no Finalize): the ledger plus the unsampled tail must match
	// the cumulative meter readout.
	total := func(core int) float64 { return 57 * float64(core+1) }
	if err := r.CheckEnergy(total); err != nil {
		t.Fatalf("CheckEnergy mid-run: %v", err)
	}
	r.Finalize(57)
	if err := r.CheckEnergy(total); err != nil {
		t.Fatalf("CheckEnergy after finalize: %v", err)
	}
	// A corrupted ledger must be detected.
	r.observedPJ[0] += 1
	if err := r.CheckEnergy(total); err == nil {
		t.Fatal("CheckEnergy accepted a corrupted ledger")
	}
}

func TestRecorderTickZeroAlloc(t *testing.T) {
	var cycle int64
	r := NewRecorder(Config{Every: 1, Ring: 16}, 4, fillCounters(&cycle))
	cycle = 1
	allocs := testing.AllocsPerRun(1000, func() {
		r.Tick(cycle)
		cycle++
	})
	if allocs != 0 {
		t.Fatalf("Tick allocates %.1f per epoch with a nil sink, want 0", allocs)
	}
}
