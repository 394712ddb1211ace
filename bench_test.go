// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, regenerating the corresponding rows at a reduced
// workload scale. Each benchmark reports its figure's headline metric
// (e.g. avg-normalized AoPB%) through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// doubles as a compact reproduction record. The table and figure
// benchmarks built on internal/figures live in figures_bench_test.go; the
// full-size tables come from cmd/ptbsweep (see EXPERIMENTS.md for
// paper-vs-measured values).
package ptbsim

import (
	"context"
	"testing"

	"ptbsim/internal/budget"
	"ptbsim/internal/core"
	"ptbsim/internal/cpu"
	"ptbsim/internal/isa"
	"ptbsim/internal/power"
)

// benchScale keeps every trace benchmark in the seconds range.
const benchScale = 0.06

// benchTrace runs cfg on the 4-core no-control chip with a telemetry
// observer sampling every `every` cycles, the way cmd/ptbtrace draws the
// Fig. 5/6 traces, and reports the full-period sample count.
func benchTrace(b *testing.B, bench string, every int64) {
	var n int
	for i := 0; i < b.N; i++ {
		mo := &MemoryObserver{}
		res, err := RunContext(context.Background(), Config{
			Benchmark:     bench,
			Cores:         4,
			Technique:     None,
			WorkloadScale: benchScale,
			MaxCycles:     20_000_000,
			Observe:       &Telemetry{Every: every, Observer: mo},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.BudgetPJ <= 0 {
			b.Fatal("no budget")
		}
		n = 0
		for _, s := range mo.Samples() {
			if !s.Partial {
				n++
			}
		}
	}
	b.ReportMetric(float64(n), "samples")
}

func BenchmarkFig5MotivationTrace(b *testing.B) { benchTrace(b, "ocean", 50) }

func BenchmarkFig6SpinTrace(b *testing.B) { benchTrace(b, "raytrace", 10) }

// BenchmarkFig7BalancerThroughput exercises the worked-example machinery:
// the PTB balancer redistributing tokens cycle by cycle (the Fig. 7 flow),
// measured in balancing rounds per second.
func BenchmarkFig7BalancerThroughput(b *testing.B) {
	const n = 4
	m := power.NewMeter(n)
	tm := power.NewTokenModel()
	cores := make([]*cpu.Core, n)
	for i := range cores {
		cores[i] = cpu.New(i, cpu.DefaultConfig(), m, tm, benchNullMem{}, benchNullSync{}, benchNullSrc{})
	}
	st := budget.NewChipState(cores, m, nil, 4000)
	bal := core.NewBalancer(n, core.PolicyToAll, budget.None{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Cycle = int64(i)
		st.ChipEstPJ = 0
		for c := 0; c < n; c++ {
			if c < 2 {
				st.EstPJ[c] = 400
			} else {
				st.EstPJ[c] = 1800
			}
			st.ChipEstPJ += st.EstPJ[c]
			st.ExtraPJ[c] = 0
		}
		bal.Tick(st)
	}
}

func BenchmarkSimulatorSpeed(b *testing.B) {
	var cycles int64
	for i := 0; i < b.N; i++ {
		out, err := RunContext(context.Background(), Config{Benchmark: "fft", Cores: 4, WorkloadScale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		cycles = out.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// Interface stubs for the balancer micro-benchmark.
type benchNullMem struct{}

func (benchNullMem) Read(int, uint64, func())      {}
func (benchNullMem) Write(int, uint64, func())     {}
func (benchNullMem) FetchProbe(int, uint64) bool   { return true }
func (benchNullMem) FetchMiss(int, uint64, func()) {}

type benchNullSrc struct{}

func (benchNullSrc) Next() (isa.Inst, bool) { return isa.Inst{}, false }
func (benchNullSrc) Resolve(int64)          {}

type benchNullSync struct{}

func (benchNullSync) Eval(int, isa.Inst) int64 { return 0 }
