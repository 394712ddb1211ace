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

// collect is a Sink that retains a clone of every sample.
type collect []Sample

func (c *collect) Observe(s *Sample) { *c = append(*c, s.Clone()) }

func TestRecorderEpochDeltas(t *testing.T) {
	var cycle int64
	var got collect
	r := NewRecorder(Config{Every: 10, Sink: &got}, 2, fillCounters(&cycle))
	r.SetRun("ocean", 2, "ptb", "Dynamic", 123.5)
	for cycle = 1; cycle <= 35; cycle++ {
		r.Tick(cycle)
	}
	cycle = 35
	r.Finalize(35)

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
	r2 := NewRecorder(Config{Every: 10}, 1, fillCounters(&c2))
	for c2 = 1; c2 <= 30; c2++ {
		r2.Tick(c2)
	}
	c2 = 30
	r2.Finalize(30)
	if r2.Taken() != 3 {
		t.Fatalf("boundary finalize: taken = %d, want 3", r2.Taken())
	}
}

func TestRecorderSinkSeesEverySample(t *testing.T) {
	var cycle int64
	var seen []int64
	var ptrs []*Sample
	sink := sinkFunc(func(s *Sample) { seen, ptrs = append(seen, s.Epoch), append(ptrs, s) })
	r := NewRecorder(Config{Every: 1, Sink: sink}, 1, fillCounters(&cycle))
	for cycle = 1; cycle <= 6; cycle++ {
		r.Tick(cycle)
	}
	if len(seen) != 6 || r.Taken() != 6 {
		t.Fatalf("sink saw %d samples, taken %d, want 6 each", len(seen), r.Taken())
	}
	for i, e := range seen {
		if e != int64(i) {
			t.Errorf("sample %d: epoch = %d, want %d", i, e, i)
		}
		if ptrs[i] != ptrs[0] {
			t.Errorf("sample %d handed to the sink in a new Sample, want the one reused sample", i)
		}
	}
}

type sinkFunc func(*Sample)

func (f sinkFunc) Observe(s *Sample) { f(s) }

func TestCheckEnergy(t *testing.T) {
	var cycle int64
	r := NewRecorder(Config{Every: 10}, 2, fillCounters(&cycle))
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
	r := NewRecorder(Config{Every: 1}, 4, fillCounters(&cycle))
	cycle = 1
	allocs := testing.AllocsPerRun(1000, func() {
		r.Tick(cycle)
		cycle++
	})
	if allocs != 0 {
		t.Fatalf("Tick allocates %.1f per epoch with a nil sink, want 0", allocs)
	}
}

// TestTickSamplesOnModuloBoundaries checks the recorder's next-boundary
// gate against cycle%every == 0 on consecutive cycles, forward jumps,
// repeats and rewinds.
func TestTickSamplesOnModuloBoundaries(t *testing.T) {
	var cs []int64
	for c := int64(-250); c <= 1000; c++ {
		cs = append(cs, c)
	}
	cs = append(cs, 1000, 1000, 1337, 1400, 1400, 1401, 5, 6, 7, 0, -7, -100, 99, 100, 101, 4096, 4095, 4097, 1<<40, 1<<40+1)
	for _, every := range []int64{1, 3, 7, 64, 100} {
		var cycle int64
		r := NewRecorder(Config{Every: every}, 1, fillCounters(&cycle))
		for _, cycle = range cs {
			before := r.taken
			r.Tick(cycle)
			if fired, want := r.taken != before, cycle%every == 0; fired != want {
				t.Fatalf("every %d cycle %d: sampled=%v, want %v", every, cycle, fired, want)
			}
		}
	}
}
