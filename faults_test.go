package ptbsim_test

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"testing"

	"ptbsim"
)

// zeroRateSpec is a fault spec that injects nothing but carries a non-zero
// seed and non-default parameters: the hardest version of the zero-rate
// identity, since every knob except the rates is turned.
func zeroRateSpec() ptbsim.FaultSpec {
	return ptbsim.FaultSpec{
		Seed:             12345,
		TokenDelayCycles: 32,
		StaleTimeout:     128,
		MaxRetries:       5,
		RetryBackoff:     4,
		LinkStallCycles:  8,
	}
}

// aggressiveSpec turns every fault domain on at rates high enough that each
// injector demonstrably fires within a scale-0.05 run.
func aggressiveSpec() ptbsim.FaultSpec {
	return ptbsim.FaultSpec{
		Seed:        7,
		TokenDrop:   0.3,
		TokenDelay:  0.2,
		TokenDup:    0.1,
		LinkStall:   0.05,
		FlitCorrupt: 0.05,
		SensorNoise: 0.05,
		SensorDrift: 0.02,
		DVFSGlitch:  0.2,
	}
}

// TestZeroRateFaultsIdentity is the fast half of the zero-rate property:
// a run under a zero-rate spec (non-zero seed, non-default parameters) must
// produce the byte-identical digest of a run with no spec at all, across
// techniques that exercise the balancer, the NoC, the sensors and DVFS.
func TestZeroRateFaultsIdentity(t *testing.T) {
	cfgs := []ptbsim.Config{
		{Benchmark: "ocean", Cores: 4, Technique: ptbsim.PTB, Policy: ptbsim.Dynamic},
		{Benchmark: "raytrace", Cores: 4, Technique: ptbsim.DVFS},
		{Benchmark: "fft", Cores: 8, Technique: ptbsim.TwoLevel},
	}
	digests := func(opts ...ptbsim.Option) []string {
		opts = append([]ptbsim.Option{ptbsim.WithScale(0.05), ptbsim.WithInvariants()}, opts...)
		e := ptbsim.NewExperiment(opts...)
		results, err := e.RunAll(context.Background(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(results))
		for i, r := range results {
			out[i] = r.Digest()
			if r.Degraded || r.FaultsInjected != 0 {
				t.Fatalf("config %d: zero-rate run reports faults: degraded=%t injected=%d",
					i, r.Degraded, r.FaultsInjected)
			}
		}
		return out
	}
	ideal := digests()
	zero := digests(ptbsim.WithFaults(zeroRateSpec()))
	for i := range ideal {
		if ideal[i] != zero[i] {
			t.Errorf("config %d: zero-rate digest diverged:\n ideal %s\n zero  %s", i, ideal[i], zero[i])
		}
	}
}

// TestZeroRateFaultsGoldenIdentity is the full property test from the issue:
// the entire golden matrix, run with a zero-rate fault spec wired through
// every injection point, must reproduce testdata/golden/matrix_scale025.txt
// byte for byte — proving the fault machinery is the identity when no rate
// is set, with the invariant layer watching every run.
func TestZeroRateFaultsGoldenIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix (98 runs) skipped in -short")
	}
	want := readGoldenMatrix(t)
	e := ptbsim.NewExperiment(
		ptbsim.WithScale(0.25),
		ptbsim.WithParallelism(8),
		ptbsim.WithInvariants(),
		ptbsim.WithFaults(zeroRateSpec()),
	)
	results, err := e.RunSweep(context.Background(), goldenMatrixSweep(t))
	if err != nil {
		t.Fatalf("zero-rate golden matrix failed: %v", err)
	}
	if len(results) != len(want) {
		t.Fatalf("matrix has %d runs, golden file has %d digests", len(results), len(want))
	}
	for i, r := range results {
		if got := r.Digest(); got != want[i] {
			t.Errorf("zero-rate digest drift at line %d:\n got  %s\n want %s", i+1, got, want[i])
		}
	}
}

// TestFaultedRunsPassInvariants turns every fault domain on under the full
// runtime invariant layer: injection perturbs what the controllers observe,
// never the conservation ledgers, so no invariant may trip. The PTB run
// must come back Degraded (tokens were provably lost at drop=0.3) with the
// degradation telemetry populated, and the whole thing must be
// reproducible: a second experiment yields the bit-identical digest.
func TestFaultedRunsPassInvariants(t *testing.T) {
	cfg := ptbsim.Config{Benchmark: "ocean", Cores: 4, Technique: ptbsim.PTB, Policy: ptbsim.Dynamic}
	run := func() *ptbsim.Result {
		e := ptbsim.NewExperiment(
			ptbsim.WithScale(0.05),
			ptbsim.WithInvariants(),
			ptbsim.WithFaults(aggressiveSpec()),
		)
		r, err := e.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("faulted run tripped an invariant: %v", err)
		}
		return r
	}
	r := run()
	if !r.Degraded {
		t.Fatal("PTB at drop=0.3 must lose token batches and report Degraded")
	}
	if r.FaultsInjected == 0 {
		t.Fatal("aggressive spec injected nothing")
	}
	if r.TokenLostPJ <= 0 || r.TokenRetries == 0 || r.TokenReportsLost == 0 {
		t.Fatalf("token telemetry empty: lost=%v retries=%d reportsLost=%d",
			r.TokenLostPJ, r.TokenRetries, r.TokenReportsLost)
	}
	if r.NoCStallCycles == 0 || r.NoCRetransmits == 0 {
		t.Fatalf("NoC telemetry empty: stalls=%d retransmits=%d", r.NoCStallCycles, r.NoCRetransmits)
	}

	if d1, d2 := r.Digest(), run().Digest(); d1 != d2 {
		t.Fatalf("faulted run not reproducible:\n first  %s\n second %s", d1, d2)
	}
}

// TestFaultedDVFSGlitches exercises the DVFS-glitch domain, which the PTB
// configuration never reaches (PTB has no mode transitions to glitch).
func TestFaultedDVFSGlitches(t *testing.T) {
	e := ptbsim.NewExperiment(
		ptbsim.WithScale(0.05),
		ptbsim.WithInvariants(),
		ptbsim.WithFaults(ptbsim.FaultSpec{Seed: 11, DVFSGlitch: 0.5}),
	)
	r, err := e.Run(context.Background(), ptbsim.Config{
		Benchmark: "ocean", Cores: 4, Technique: ptbsim.DVFS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.DVFSGlitches == 0 {
		t.Fatal("glitch=0.5 glitched no DVFS transition")
	}
	if r.Degraded {
		t.Fatal("DVFS glitches are absorbed (stall paid, mode held) and must not mark the run Degraded")
	}
}

// TestSweepPartialResults checks the partial-result contract of RunAll: a
// failing configuration does not stop the others, the error is a typed
// *SweepError indexing each failure, and errors.Is still dispatches on the
// underlying sentinel through the aggregate.
func TestSweepPartialResults(t *testing.T) {
	cfgs := []ptbsim.Config{
		{Benchmark: "ocean", Cores: 4, Technique: ptbsim.PTB, Policy: ptbsim.Dynamic},
		{Benchmark: "nosuchbench", Cores: 4, Technique: ptbsim.PTB},
		{Benchmark: "fft", Cores: 4, Technique: ptbsim.None},
	}
	e := ptbsim.NewExperiment(ptbsim.WithScale(0.05))
	results, err := e.RunAll(context.Background(), cfgs)
	if err == nil {
		t.Fatal("sweep with an invalid config returned no error")
	}
	var sweepErr *ptbsim.SweepError
	if !errors.As(err, &sweepErr) {
		t.Fatalf("error %T is not a *SweepError: %v", err, err)
	}
	if sweepErr.Total != 3 || len(sweepErr.Failures) != 1 {
		t.Fatalf("SweepError{Total: %d, Failures: %d}, want {3, 1}", sweepErr.Total, len(sweepErr.Failures))
	}
	if sweepErr.Failures[0].Index != 1 {
		t.Fatalf("failure index %d, want 1", sweepErr.Failures[0].Index)
	}
	if !errors.Is(err, ptbsim.ErrUnknownBenchmark) {
		t.Fatalf("SweepError does not unwrap to ErrUnknownBenchmark: %v", err)
	}
	if len(results) != 3 || results[0] == nil || results[2] == nil {
		t.Fatalf("valid slots must hold results: %v", results)
	}
	if results[1] != nil {
		t.Fatal("failed slot must be nil")
	}
}

// TestFaultSpecRoundTrip pins the public spec syntax: String() output
// reparses to the identical spec, the zero spec renders empty, and
// validation failures wrap ErrBadFaultSpec.
func TestFaultSpecRoundTrip(t *testing.T) {
	full := ptbsim.FaultSpec{
		Seed: 42, TokenDrop: 0.25, TokenDelay: 0.1, TokenDup: 0.05,
		TokenDelayCycles: 24, StaleTimeout: 100, MaxRetries: 2, RetryBackoff: 16,
		LinkStall: 0.02, LinkStallCycles: 8, FlitCorrupt: 0.01,
		SensorNoise: 0.05, SensorDrift: 0.02, DVFSGlitch: 0.1,
	}
	back, err := ptbsim.ParseFaultSpec(full.String())
	if err != nil {
		t.Fatalf("String() %q does not reparse: %v", full.String(), err)
	}
	if back != full {
		t.Fatalf("round trip lost fields:\n in  %+v\n out %+v", full, back)
	}

	if s, err := ptbsim.ParseFaultSpec(""); err != nil || !s.Zero() || s.String() != "" {
		t.Fatalf("empty spec: (%+v, %v)", s, err)
	}
	if !(ptbsim.FaultSpec{Seed: 9, StaleTimeout: -1}).Zero() {
		t.Fatal("parameters alone must not make a spec non-zero")
	}

	for _, bad := range []string{"drop=2", "noise=-0.1", "bogus=1", "drop=0.1,drop=0.2", "drop"} {
		if _, err := ptbsim.ParseFaultSpec(bad); !errors.Is(err, ptbsim.ErrBadFaultSpec) {
			t.Errorf("ParseFaultSpec(%q) error %v does not wrap ErrBadFaultSpec", bad, err)
		}
	}
	if err := (ptbsim.FaultSpec{TokenDrop: 1.5}).Validate(); !errors.Is(err, ptbsim.ErrBadFaultSpec) {
		t.Fatalf("Validate(drop=1.5) error %v does not wrap ErrBadFaultSpec", err)
	}

	// An invalid spec attached to a Config must fail Config.Validate too.
	cfg := ptbsim.Config{Benchmark: "ocean", Cores: 4, Technique: ptbsim.PTB,
		Faults: &ptbsim.FaultSpec{TokenDrop: -1}}
	if err := cfg.Validate(); !errors.Is(err, ptbsim.ErrBadFaultSpec) {
		t.Fatalf("Config.Validate with a bad spec: %v", err)
	}
}

// faultLedger renders every fault-telemetry field Digest leaves out, floats
// in exact hexadecimal, so a pinned literal catches last-ULP drift.
func faultLedger(r *ptbsim.Result) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	return fmt.Sprintf("degraded=%t injected=%d lost=%s dup=%s retries=%d reports_lost=%d stale=%d stalls=%d retransmits=%d glitches=%d",
		r.Degraded, r.FaultsInjected, f(r.TokenLostPJ), f(r.TokenDupPJ), r.TokenRetries,
		r.TokenReportsLost, r.StaleFallbackCycles, r.NoCStallCycles, r.NoCRetransmits, r.DVFSGlitches)
}

// TestFaultLedgerPinned pins the digest and the fault ledger of four
// faulted cells: clustered PTB (the one path that sums the ledger over
// several balancers), the spin gate, chip-wide PTB and DVFS (the governor
// glitch path). No golden file carries these fields, so without this test
// a change in how the ledger is gathered would go unseen.
func TestFaultLedgerPinned(t *testing.T) {
	spec, err := ptbsim.ParseFaultSpec("seed=9,stall=0.01,corrupt=0.01,noise=0.02,drop=0.3,dup=0.05,glitch=0.1")
	if err != nil {
		t.Fatal(err)
	}
	cells := []struct {
		cfg            ptbsim.Config
		digest, ledger string
	}{
		{
			cfg:    ptbsim.Config{Benchmark: "ocean", Cores: 8, Technique: ptbsim.PTB, Policy: ptbsim.Dynamic, PTBClusterSize: 4},
			digest: "ocean/8/ptb/Dynamic cycles=95498 committed=69127 energy=0x1.c6b868de7f1a5p-13 aopb=0x1.915efd2db6829p-19 tokens=0x1.44d76923d6fefp+22/0x1.4484c40bf24a4p+22/0x1.ba83faaaaaa8ap+17 rounds=22405 coh=4294/1111/801/2074/144 noc=20296/250134 sha=b63eef2af671",
			ledger: "degraded=true injected=1004565 lost=0x1.489058bf258bep+15 dup=0x1.0129b6eeeeee9p+18 retries=9439 reports_lost=229141 stale=0 stalls=6112 retransmits=349 glitches=3",
		},
		{
			cfg:    ptbsim.Config{Benchmark: "ocean", Cores: 8, Technique: ptbsim.PTBSpinGate, Policy: ptbsim.Dynamic},
			digest: "ocean/8/ptbgate/Dynamic cycles=98757 committed=69742 energy=0x1.b30ad42494039p-13 aopb=0x1.734cf18a41f3dp-19 tokens=0x1.b8e9463bbbb9bp+22/0x1.8c4e2b2aaad83p+22/0x1.f2e4999999982p+19 rounds=14499 coh=4284/1114/793/2073/141 noc=20252/248562 sha=30ff8f61423a",
			ledger: "degraded=true injected=1034850 lost=0x1.0b968a3d70a3dp+16 dup=0x1.5efd24b17e4b5p+18 retries=6166 reports_lost=237079 stale=0 stalls=6096 retransmits=349 glitches=3",
		},
		{
			cfg:    ptbsim.Config{Benchmark: "ocean", Cores: 4, Technique: ptbsim.PTB, Policy: ptbsim.Dynamic},
			digest: "ocean/4/ptb/Dynamic cycles=87527 committed=32987 energy=0x1.ac9f22fc319aep-14 aopb=0x1.1e1ee0b0cc656p-18 tokens=0x1.64fb1cfc962bp+21/0x1.6d3892e4b1761p+21/0x1.f82f2b851eb3fp+15 rounds=10577 coh=2180/555/396/913/59 noc=10086/73534 sha=5966ba1ad701",
			ledger: "degraded=true injected=460367 lost=0x1.f5eaa3d70a3dap+14 dup=0x1.40a07dddddddap+17 retries=4595 reports_lost=104790 stale=0 stalls=1712 retransmits=104 glitches=1",
		},
		{
			cfg:    ptbsim.Config{Benchmark: "ocean", Cores: 4, Technique: ptbsim.DVFS},
			digest: "ocean/4/dvfs cycles=86954 committed=33104 energy=0x1.94b4946975856p-14 aopb=0x1.1978622a551ebp-18 tokens=0x0p+00/0x0p+00/0x0p+00 rounds=0 coh=2187/553/396/918/63 noc=10115/73672 sha=2b125d9818fa",
			ledger: "degraded=false injected=348028 lost=0x0p+00 dup=0x0p+00 retries=0 reports_lost=0 stale=0 stalls=1712 retransmits=104 glitches=1",
		},
	}
	cfgs := make([]ptbsim.Config, len(cells))
	for i, c := range cells {
		cfgs[i] = c.cfg
	}
	e := ptbsim.NewExperiment(ptbsim.WithScale(0.05), ptbsim.WithInvariants(), ptbsim.WithFaults(spec))
	results, err := e.RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if got := r.Digest(); got != cells[i].digest {
			t.Errorf("cell %d digest:\n got  %s\n want %s", i, got, cells[i].digest)
		}
		if got := faultLedger(r); got != cells[i].ledger {
			t.Errorf("cell %d fault ledger:\n got  %s\n want %s", i, got, cells[i].ledger)
		}
	}
}
