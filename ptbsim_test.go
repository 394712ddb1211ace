package ptbsim

import (
	"context"
	"testing"
)

func TestFacadeRun(t *testing.T) {
	base, err := RunContext(context.Background(), Config{Benchmark: "cholesky", Cores: 2, WorkloadScale: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	if base.Cycles == 0 || base.EnergyJ <= 0 {
		t.Fatalf("empty result %+v", base)
	}
	ptb, err := RunContext(context.Background(), Config{Benchmark: "cholesky", Cores: 2, Technique: PTB, Policy: Dynamic, WorkloadScale: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	if NormalizedAoPBPct(ptb, base) >= 100 {
		t.Fatalf("PTB did not improve accuracy: %.1f%%", NormalizedAoPBPct(ptb, base))
	}
	if ptb.Technique != PTB || ptb.Policy != "Dynamic" {
		t.Fatalf("labels wrong: %+v", ptb)
	}
}

func TestFacadeUnknownBenchmark(t *testing.T) {
	if _, err := RunContext(context.Background(), Config{Benchmark: "doom"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestFacadeBenchmarks(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 14 {
		t.Fatalf("%d benchmarks, want 14", len(bs))
	}
	for _, b := range bs {
		if b.Name == "" || b.Suite == "" || b.InputSize == "" {
			t.Fatalf("incomplete info %+v", b)
		}
	}
}

func TestFacadeTrace(t *testing.T) {
	var mem MemoryObserver
	res, err := RunContext(context.Background(), Config{Benchmark: "fft", Cores: 2, WorkloadScale: 0.05,
		Observe: &Telemetry{Every: 100, Observer: &mem}})
	if err != nil {
		t.Fatal(err)
	}
	samples := mem.Samples()
	if len(samples) == 0 || samples[0].ChipPJ <= 0 || len(samples[0].CorePJ) != 2 {
		t.Fatal("traces empty")
	}
	if res.BudgetPJ <= 0 || samples[0].BudgetPJ != res.BudgetPJ {
		t.Fatal("budget missing")
	}
}

func TestFacadeBreakdownFields(t *testing.T) {
	r, err := RunContext(context.Background(), Config{Benchmark: "fluidanimate", Cores: 4, WorkloadScale: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	sum := r.BusyFrac + r.LockAcqFrac + r.LockRelFrac + r.BarrierFrac
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("breakdown sums to %v", sum)
	}
	if r.LockAcqFrac == 0 {
		t.Fatal("fluidanimate shows no lock time")
	}
}

func TestFacadePTBLatency(t *testing.T) {
	s, p, r := PTBLatency(16)
	if s+p+r != 10 {
		t.Fatalf("16-core latency %d+%d+%d, want total 10", s, p, r)
	}
}

func TestFacadePessimisticLatency(t *testing.T) {
	r, err := RunContext(context.Background(), Config{Benchmark: "ocean", Cores: 4, Technique: PTB,
		WorkloadScale: 0.05, PessimisticPTBLatency: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 {
		t.Fatal("pessimistic run failed")
	}
}

func TestFacadePolicyStrings(t *testing.T) {
	if ToAll.String() != "ToAll" || ToOne.String() != "ToOne" || Dynamic.String() != "Dynamic" {
		t.Fatal("policy names wrong")
	}
}

func TestFacadeClusteredPTB(t *testing.T) {
	r, err := RunContext(context.Background(), Config{Benchmark: "fft", Cores: 8, Technique: PTB,
		PTBClusterSize: 4, WorkloadScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed == 0 {
		t.Fatal("clustered run made no progress")
	}
}

func TestFacadeMaxBIPS(t *testing.T) {
	r, err := RunContext(context.Background(), Config{Benchmark: "fft", Cores: 2, Technique: MaxBIPS, WorkloadScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if r.Technique != MaxBIPS || r.Committed == 0 {
		t.Fatalf("maxbips run broken: %+v", r)
	}
}

func TestFacadeEDP(t *testing.T) {
	r := &Result{EnergyJ: 3, Cycles: 3_000_000_000}
	if d := r.EDP() - 3; d > 1e-9 || d < -1e-9 {
		t.Fatalf("EDP = %v", r.EDP())
	}
	if d := r.ED2P() - 3; d > 1e-9 || d < -1e-9 {
		t.Fatalf("ED2P = %v", r.ED2P())
	}
}

func TestFacadeComponents(t *testing.T) {
	r, err := RunContext(context.Background(), Config{Benchmark: "fft", Cores: 2, WorkloadScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ComponentJ) == 0 || r.ComponentJ["execute"] <= 0 {
		t.Fatalf("component breakdown missing: %v", r.ComponentJ)
	}
}

func TestFacadeSpinGate(t *testing.T) {
	r, err := RunContext(context.Background(), Config{Benchmark: "fluidanimate", Cores: 4,
		Technique: PTBSpinGate, Policy: Dynamic, WorkloadScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed == 0 {
		t.Fatal("spin-gated run made no progress")
	}
}
