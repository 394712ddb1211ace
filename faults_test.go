package ptbsim_test

import (
	"context"
	"errors"
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
