package sim

import (
	"testing"

	"ptbsim/internal/core"
	"ptbsim/internal/obs"
	"ptbsim/internal/workload"
)

// benchSteps measures the per-cycle cost of System.Step on a live 4-core
// ocean run. The variants differ only in cfg.Invariants / cfg.Observe, so
// comparing their ns/op isolates what each opt-in layer costs when
// disabled (one nil check per cycle, DESIGN.md §8 and §11) and when
// enabled (epoch-gated sweeps / sampling). Compare them within one
// session, never against numbers from another run:
//
//	go test -run '^$' -bench 'BenchmarkSimStep(Invariants|Telemetry)?$' -count 10 ./internal/sim/
//
// On a 2-vCPU Xeon VM BenchmarkSimStep alone ranged over 943–1193 ns/op in
// one session, so an enabled cost of a few percent is inside the spread.
func benchSteps(b *testing.B, check bool, observe *obs.Config) {
	spec, ok := workload.ByName("ocean")
	if !ok {
		b.Fatal("ocean missing from catalog")
	}
	cfg := Config{
		Benchmark:     spec,
		Cores:         4,
		Technique:     TechNone,
		WorkloadScale: 1.0,
		Invariants:    check,
		Observe:       observe,
	}
	s, err := NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.RunCycles(1) {
			// Workload drained; restart on a fresh system off the clock.
			b.StopTimer()
			if s, err = NewSystem(cfg); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

func BenchmarkSimStep(b *testing.B)           { benchSteps(b, false, nil) }
func BenchmarkSimStepInvariants(b *testing.B) { benchSteps(b, true, nil) }

// BenchmarkSimStepTelemetry runs the same loop with the observability
// recorder sampling at the default epoch, so the enabled-path cost (one
// counter compare per cycle plus an O(cores) fill every epoch) is
// measurable against BenchmarkSimStep in the same session.
func BenchmarkSimStepTelemetry(b *testing.B) {
	benchSteps(b, false, &obs.Config{Every: obs.DefaultEvery})
}

// BenchmarkSimStepBigChip is the per-cycle cost of a live 64-core PTB
// chip, the big-chip counterpart of BenchmarkSimStep.
func BenchmarkSimStepBigChip(b *testing.B) {
	spec, ok := workload.ByName("ocean")
	if !ok {
		b.Fatal("ocean missing from catalog")
	}
	cfg := Config{
		Benchmark:     spec,
		Cores:         64,
		Technique:     TechPTB,
		Policy:        core.PolicyDynamic,
		WorkloadScale: 0.05,
	}
	s, err := NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.RunCycles(1) {
			b.StopTimer()
			if s, err = NewSystem(cfg); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}
