package cpu

import (
	"testing"

	"ptbsim/internal/isa"
	"ptbsim/internal/power"
)

func TestSleepGateFreezesCore(t *testing.T) {
	r := newTestRig(aluStream(400, 0))
	r.core.Knobs().SleepGate = true
	dst := make([]float64, 1)
	for cyc := int64(1); cyc <= 200; cyc++ {
		r.q.RunUntil(cyc)
		r.core.Tick()
	}
	r.m.EndCycle(dst)
	if got := r.core.Stats().Committed; got != 0 {
		t.Fatalf("sleeping core committed %d instructions", got)
	}
	if r.core.Stats().SleepCycles != 200 {
		t.Fatalf("sleep cycles = %d, want 200", r.core.Stats().SleepCycles)
	}
	// No clock energy while asleep.
	if r.m.Count(0, power.EvClockActive) != 0 || r.m.Count(0, power.EvClockGated) != 0 {
		t.Fatal("sleeping core consumed clock energy")
	}
	// Wake up: progress resumes and the program completes.
	r.core.Knobs().SleepGate = false
	r.runUntilDone(t, 20000)
	if got := r.core.Stats().Committed; got != 400 {
		t.Fatalf("committed %d after waking, want 400", got)
	}
}

func TestSleepDoesNotLoseMemoryResponses(t *testing.T) {
	// A load issued before sleep completes while the core is frozen; the
	// result must be consumed after wake-up.
	insts := []isa.Inst{
		{PC: 0x100, Op: isa.OpLoad, Addr: 0x1000},
		{PC: 0x104, Op: isa.OpIntAlu, Dep1: 1},
	}
	r := newTestRig(insts)
	r.mem.loadLat = 50
	// Run until the load has issued.
	for cyc := int64(1); cyc <= 20; cyc++ {
		r.q.RunUntil(cyc)
		r.core.Tick()
	}
	if r.mem.reads != 1 {
		t.Fatal("load not issued in warmup window")
	}
	r.core.Knobs().SleepGate = true
	for cyc := int64(21); cyc <= 100; cyc++ {
		r.q.RunUntil(cyc)
		r.core.Tick()
	}
	r.core.Knobs().SleepGate = false
	r.runUntilDone(t, 10000)
	if got := r.core.Stats().Committed; got != 2 {
		t.Fatalf("committed %d, want 2", got)
	}
}

func TestRMWWaitsForROBHead(t *testing.T) {
	// A long-latency FP op ahead of the RMW delays the RMW's issue until
	// it reaches the head.
	insts := []isa.Inst{
		{PC: 0x200, Op: isa.OpFPMul, LongLat: true},
		{PC: 0x204, Op: isa.OpAtomicRMW, Addr: 0x2000, Serialize: true, SyncOp: isa.SyncLockTry},
	}
	r := newTestRig(insts)
	issuedAt := int64(-1)
	origWrites := 0
	for cyc := int64(1); cyc <= 5000; cyc++ {
		r.q.RunUntil(cyc)
		r.core.Tick()
		if r.mem.writes > origWrites && issuedAt < 0 {
			issuedAt = cyc
		}
		if r.core.Done() {
			break
		}
	}
	if issuedAt < 0 {
		t.Fatal("RMW never issued")
	}
	// The FPMul needs ~LatLong cycles after dispatch; the RMW cannot have
	// gone to memory before the front-end depth + that latency.
	min := int64(DefaultConfig().FrontendDepth + DefaultConfig().LatLong)
	if issuedAt < min {
		t.Fatalf("RMW issued at %d, before the older op could retire (min %d)", issuedAt, min)
	}
}

func TestMidRunSpeedChange(t *testing.T) {
	r := newTestRig(aluStream(2000, 0))
	for cyc := int64(1); cyc <= 200; cyc++ {
		r.q.RunUntil(cyc)
		r.core.Tick()
	}
	before := r.core.Stats().Committed
	r.core.SetSpeed(0.5, 0)
	for cyc := int64(201); cyc <= 400; cyc++ {
		r.q.RunUntil(cyc)
		r.core.Tick()
	}
	slowRate := float64(r.core.Stats().Committed-before) / 200
	r.core.SetSpeed(1.0, 0)
	mid := r.core.Stats().Committed
	for cyc := int64(401); cyc <= 600; cyc++ {
		r.q.RunUntil(cyc)
		r.core.Tick()
	}
	fastRate := float64(r.core.Stats().Committed-mid) / 200
	if fastRate < 1.5*slowRate {
		t.Fatalf("speed change ineffective: slow %.2f fast %.2f IPC", slowRate, fastRate)
	}
}

func TestTokenRateTracksActivity(t *testing.T) {
	r := newTestRig(aluStream(3000, 0))
	for cyc := int64(1); cyc <= 300; cyc++ {
		r.q.RunUntil(cyc)
		r.core.Tick()
	}
	busyRate := r.core.TokenRate()
	if busyRate <= 0 {
		t.Fatal("token rate zero while busy")
	}
	r.runUntilDone(t, 100000)
	// After the program drains, the rate decays toward zero.
	end := r.q.Now() + 200
	for cyc := r.q.Now() + 1; cyc <= end; cyc++ {
		r.q.RunUntil(cyc)
		r.core.Tick()
	}
	if r.core.TokenRate() > busyRate/4 {
		t.Fatalf("token rate did not decay: %.1f -> %.1f", busyRate, r.core.TokenRate())
	}
}

func TestCustomPTHTSize(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PTHTSize = 256
	m := power.NewMeter(1)
	c := New(0, cfg, m, power.NewTokenModel(), &fakeMem{icached: true}, fixedSync{0}, &sliceSource{})
	// Entries 256 apart in index space alias in a 256-entry table.
	c.PTHT().Update(0x1000, 17)
	if got := c.PTHT().Lookup(0x1000+256*4, 0); got != 17 {
		t.Fatalf("256-entry table did not alias: %d", got)
	}
}

func TestROBOccupancyAccessor(t *testing.T) {
	r := newTestRig(aluStream(500, 1))
	for cyc := int64(1); cyc <= 50; cyc++ {
		r.q.RunUntil(cyc)
		r.core.Tick()
	}
	if r.core.ROBOccupancy() == 0 {
		t.Fatal("ROB empty mid-run on a dependency chain")
	}
	if r.core.ROBOccupancy() > DefaultConfig().ROBSize {
		t.Fatal("ROB over capacity")
	}
}

func TestWrongPathEnergyBounded(t *testing.T) {
	// One mispredicted branch stuck behind a slow load: phantom fetch must
	// stop once the fetch-queue capacity worth of wrong-path instructions
	// has been charged, not accrue for the whole miss latency.
	insts := []isa.Inst{
		{PC: 0x100, Op: isa.OpLoad, Addr: 0x1000},
		// Branch with an unpredictable outcome: the 2-bit counters start
		// weakly taken, so Taken=false mispredicts on first sight.
		{PC: 0x104, Op: isa.OpBranch, Taken: false, Dep1: 1},
		{PC: 0x108, Op: isa.OpIntAlu},
	}
	r := newTestRig(insts)
	r.mem.loadLat = 2000 // branch resolves long after fetch
	r.runUntilDone(t, 50000)
	if r.core.Stats().Mispredicts != 1 {
		t.Fatalf("mispredicts = %d, want 1", r.core.Stats().Mispredicts)
	}
	cap := int64(DefaultConfig().FrontendDepth * DefaultConfig().FetchWidth)
	if got := r.core.Stats().WrongPathFetch; got > cap {
		t.Fatalf("wrong-path fetches %d exceed the fetch-queue bound %d", got, cap)
	}
}

func TestBpredAliasingIsHarmless(t *testing.T) {
	// Two branches aliasing to nearby gshare entries with opposite biases
	// still train (accuracy above chance).
	g := newGshare(8, nil, 0) // tiny table to force aliasing
	correct, total := 0, 0
	for i := 0; i < 4000; i++ {
		pc := uint64(0x100 + (i%2)*4)
		taken := i%2 == 0 // pc A always taken, pc B never
		p := g.predict(pc)
		if p == taken {
			correct++
		}
		total++
		g.update(pc, taken, p)
	}
	if acc := float64(correct) / float64(total); acc < 0.6 {
		t.Fatalf("aliased accuracy %.2f below chance-ish threshold", acc)
	}
}

// TestEntryMatchesModuloAcrossWrap checks the ROB ring's conditional
// subtract against the modulo it replaces for every in-flight seq, on
// every cycle of a run long enough to wrap the ring many times.
func TestEntryMatchesModuloAcrossWrap(t *testing.T) {
	r := newTestRig(aluStream(20*DefaultConfig().ROBSize, 2))
	wraps := 0
	for cyc := int64(1); !r.core.Done(); cyc++ {
		if cyc > 200000 {
			t.Fatal("core did not finish")
		}
		r.q.RunUntil(cyc)
		head := r.core.head
		r.core.Tick()
		if r.core.head < head {
			wraps++
		}
		c := r.core
		for off := 0; off < c.count; off++ {
			seq := c.headSeq + int64(off)
			want := &c.rob[(c.head+off)%len(c.rob)]
			if got := c.entry(seq); got != want || got.seq != seq {
				t.Fatalf("cycle %d: entry(%d) holds seq %d, the modulo slot seq %d", cyc, seq, got.seq, want.seq)
			}
		}
	}
	if wraps < 10 {
		t.Fatalf("ROB head wrapped %d times, want at least 10", wraps)
	}
}
