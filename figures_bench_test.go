package ptbsim_test

import (
	"context"
	"strconv"
	"testing"

	"ptbsim"
	"ptbsim/internal/figures"
)

// The table and figure benchmarks of the harness in bench_test.go. They
// live in the external test package because internal/figures builds on
// ptbsim, which an in-package test cannot import.

// figureScale keeps every figure benchmark in the seconds range.
const figureScale = 0.06

// figureSubset is a representative slice of the 14 workloads: one
// barrier-bound, one lock-bound, one synchronization-free.
var figureSubset = []string{"ocean", "unstructured", "blackscholes"}

// newBenchExperiment is a fresh serial experiment, so every iteration
// simulates its figure from scratch on one worker.
func newBenchExperiment() *ptbsim.Experiment {
	return ptbsim.NewExperiment(ptbsim.WithScale(figureScale),
		ptbsim.WithMaxCycles(20_000_000), ptbsim.WithParallelism(1))
}

// built fails the benchmark on a builder error.
func built(b *testing.B, t *figures.Table, err error) *figures.Table {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	return t
}

func avgColumn(t *figures.Table, col int) float64 {
	// Average row is last; parse its column.
	row := t.Rows[len(t.Rows)-1]
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		return 0
	}
	return v
}

func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(figures.Table1().Rows) < 15 {
			b.Fatal("config table incomplete")
		}
	}
}

func BenchmarkTable2Catalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(figures.Table2().Rows) != 14 {
			b.Fatal("catalog incomplete")
		}
	}
}

func BenchmarkFig2NaiveSplit(b *testing.B) {
	var aopb float64
	for i := 0; i < b.N; i++ {
		t, err := figures.Fig2(context.Background(), newBenchExperiment(), figureSubset, 8)
		aopb = avgColumn(built(b, t, err), 4) // A.dvfs%
	}
	b.ReportMetric(aopb, "dvfs-AoPB%")
}

func BenchmarkFig3Breakdown(b *testing.B) {
	var barrier16 float64
	for i := 0; i < b.N; i++ {
		t, err := figures.Fig3(context.Background(), newBenchExperiment(), []string{"ocean"}, []int{2, 8})
		t = built(b, t, err)
		barrier16, _ = strconv.ParseFloat(t.Rows[len(t.Rows)-1][4], 64)
	}
	b.ReportMetric(barrier16, "ocean-8c-barrier%")
}

func BenchmarkFig4SpinPower(b *testing.B) {
	var spin float64
	for i := 0; i < b.N; i++ {
		t, err := figures.Fig4(context.Background(), newBenchExperiment(), []string{"unstructured", "ocean"}, []int{2, 8})
		spin = avgColumn(built(b, t, err), 2) // 8-core column of the Avg row
	}
	b.ReportMetric(spin, "avg-spin-power%")
}

func BenchmarkFig8LatencyTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(figures.Fig8().Rows) != 4 {
			b.Fatal("latency table incomplete")
		}
	}
}

func BenchmarkFig9PolicySweep(b *testing.B) {
	var ptbAoPB float64
	for i := 0; i < b.N; i++ {
		t, err := figures.Fig9(context.Background(), newBenchExperiment(), []string{"ocean", "blackscholes"}, []int{2, 8})
		t = built(b, t, err)
		ptbAoPB, _ = strconv.ParseFloat(t.Rows[len(t.Rows)-1][8], 64) // A.ptb% of 8-core ToAll
	}
	b.ReportMetric(ptbAoPB, "ptb-AoPB%")
}

func benchDetail(b *testing.B, id string, pol ptbsim.Policy) {
	var ptbAoPB float64
	for i := 0; i < b.N; i++ {
		t, err := figures.FigDetail(context.Background(), newBenchExperiment(), id, figureSubset, 8, pol)
		ptbAoPB = avgColumn(built(b, t, err), 8)
	}
	b.ReportMetric(ptbAoPB, "ptb-AoPB%")
}

func BenchmarkFig10ToAll(b *testing.B)   { benchDetail(b, "Figure 10", ptbsim.ToAll) }
func BenchmarkFig11ToOne(b *testing.B)   { benchDetail(b, "Figure 11", ptbsim.ToOne) }
func BenchmarkFig12Dynamic(b *testing.B) { benchDetail(b, "Figure 12", ptbsim.Dynamic) }

func BenchmarkFig13Performance(b *testing.B) {
	var slow float64
	for i := 0; i < b.N; i++ {
		t, err := figures.Fig13(context.Background(), newBenchExperiment(), figureSubset, 8)
		slow = avgColumn(built(b, t, err), 4) // ptb slowdown
	}
	b.ReportMetric(slow, "ptb-slowdown%")
}

func BenchmarkFig14Relaxed(b *testing.B) {
	var dE float64
	for i := 0; i < b.N; i++ {
		t, err := figures.Fig14(context.Background(), newBenchExperiment(), []string{"ocean", "blackscholes"}, []int{8}, 0.20)
		t = built(b, t, err)
		strict, _ := strconv.ParseFloat(t.Rows[len(t.Rows)-1][1], 64)
		relaxed, _ := strconv.ParseFloat(t.Rows[len(t.Rows)-1][2], 64)
		dE = relaxed - strict
	}
	b.ReportMetric(dE, "relax-energy-delta%")
}

func BenchmarkSec4DTDP(b *testing.B) {
	var cores float64
	for i := 0; i < b.N; i++ {
		t, err := figures.Sec4D(context.Background(), newBenchExperiment(), []string{"ocean", "blackscholes"}, 8)
		// PTB row's cores-at-TDP column.
		cores, _ = strconv.ParseFloat(built(b, t, err).Rows[2][3], 64)
	}
	b.ReportMetric(cores, "ptb-cores@TDP")
}
