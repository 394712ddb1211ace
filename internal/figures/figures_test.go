package figures

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"ptbsim"
)

func testExperiment(opts ...ptbsim.Option) *ptbsim.Experiment {
	return ptbsim.NewExperiment(append([]ptbsim.Option{
		ptbsim.WithScale(0.05), ptbsim.WithMaxCycles(10_000_000),
	}, opts...)...)
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:     "Test",
		Title:  "render check",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"x", "1"}, {"yyyy", "2"}},
	}
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "Test — render check") {
		t.Fatalf("missing title: %q", out)
	}
	if !strings.Contains(out, "long-header") || !strings.Contains(out, "yyyy") {
		t.Fatalf("missing cells: %q", out)
	}
}

func TestRenderMarkdown(t *testing.T) {
	tab := &Table{ID: "Figure X", Title: "md check", Header: []string{"a", "b"},
		Rows: [][]string{{"1", "2"}}}
	var sb strings.Builder
	tab.RenderMarkdown(&sb)
	out := sb.String()
	for _, want := range []string{"### Figure X — md check", "| a | b |", "| --- | --- |", "| 1 | 2 |"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q in %q", want, out)
		}
	}
}

func TestRenderCSV(t *testing.T) {
	tab := &Table{ID: "Figure X", Title: "csv check", Header: []string{"a", "b"},
		Rows: [][]string{{"1", "2"}}}
	var sb strings.Builder
	tab.RenderCSV(&sb)
	out := sb.String()
	for _, want := range []string{"# Figure X — csv check", "a,b", "1,2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("csv missing %q in %q", want, out)
		}
	}
}

func TestTable1Contents(t *testing.T) {
	joined := ""
	for _, row := range Table1().Rows {
		joined += strings.Join(row, " ") + "\n"
	}
	for _, want := range []string{"MOESI", "128 entries + 64", "64KB, 16 bit Gshare",
		"2D mesh", "300 cycles", "1MB/core"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("Table 1 missing %q", want)
		}
	}
}

func TestTable2Contents(t *testing.T) {
	tab := Table2()
	if len(tab.Rows) != 14 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	if tab.Rows[0][1] != "barnes" || tab.Rows[13][1] != "x264" {
		t.Fatal("paper order broken")
	}
}

func TestFig2Shape(t *testing.T) {
	tab, err := Fig2(context.Background(), testExperiment(), []string{"fft", "swaptions"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 { // 2 benches + Avg
		t.Fatalf("%d rows", len(tab.Rows))
	}
	if tab.Rows[2][0] != "Avg." {
		t.Fatal("missing average row")
	}
	if len(tab.Header) != 7 {
		t.Fatalf("%d columns", len(tab.Header))
	}
	// Values parse as floats.
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			if _, err := strconv.ParseFloat(cell, 64); err != nil {
				t.Fatalf("unparseable cell %q", cell)
			}
		}
	}
}

func TestFig3Shape(t *testing.T) {
	tab, err := Fig3(context.Background(), testExperiment(), []string{"ocean"}, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Breakdown fractions sum to ~100.
	for _, row := range tab.Rows {
		sum := 0.0
		for _, cell := range row[2:] {
			v, _ := strconv.ParseFloat(cell, 64)
			sum += v
		}
		if sum < 99 || sum > 101 {
			t.Fatalf("breakdown sums to %v", sum)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	tab, err := Fig9(context.Background(), testExperiment(), []string{"fft"}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 { // 2 policies × 1 core count
		t.Fatalf("%d rows", len(tab.Rows))
	}
	if !strings.Contains(tab.Rows[0][0], "ToOne") || !strings.Contains(tab.Rows[1][0], "ToAll") {
		t.Fatalf("policy labels wrong: %v %v", tab.Rows[0][0], tab.Rows[1][0])
	}
}

func TestFigDetailShape(t *testing.T) {
	tab, err := FigDetail(context.Background(), testExperiment(), "Figure 10", []string{"fft", "ocean"}, 2, ptbsim.ToAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	if len(tab.Header) != 9 {
		t.Fatalf("%d cols", len(tab.Header))
	}
}

func TestFig13Shape(t *testing.T) {
	tab, err := Fig13(context.Background(), testExperiment(), []string{"fft"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
}

func TestFig14Shape(t *testing.T) {
	tab, err := Fig14(context.Background(), testExperiment(), []string{"fft"}, []int{2}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
}

func TestSec4DShape(t *testing.T) {
	tab, err := Sec4D(context.Background(), testExperiment(), []string{"fft"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 { // 3 techniques + ideal
		t.Fatalf("%d rows", len(tab.Rows))
	}
	if tab.Rows[3][0] != "ideal" || tab.Rows[3][3] != "32" {
		t.Fatalf("ideal row wrong: %v", tab.Rows[3])
	}
	// Cores-at-TDP must not exceed the ideal 32.
	for _, row := range tab.Rows[:3] {
		v, _ := strconv.ParseFloat(row[3], 64)
		if v > 32 || v < 1 {
			t.Fatalf("implausible cores-at-TDP %v", row)
		}
	}
}

func TestFig8Static(t *testing.T) {
	tab := Fig8()
	if tab.Rows[3][4] != "10" {
		t.Fatalf("16-core total latency %v, want 10", tab.Rows[3][4])
	}
}

// TestWarmFillsCache pins Params.Configs to the builders: after one
// warm RunAll, building every artifact must simulate nothing new.
func TestWarmFillsCache(t *testing.T) {
	ctx := context.Background()
	var fresh atomic.Int64
	e := testExperiment(ptbsim.WithParallelism(3), ptbsim.WithProgress(func(p ptbsim.Progress) {
		if p.Err == nil && !p.Cached {
			fresh.Add(1)
		}
	}))
	p := Params{Benches: []string{"fft"}, CoreCounts: []int{2}, BigCores: 4, Relax: 0.2, LockBound: []string{"fft"}}
	if _, err := e.RunAll(ctx, p.Configs()); err != nil {
		t.Fatal(err)
	}
	warmed := fresh.Load()
	if warmed == 0 {
		t.Fatal("warm simulated nothing")
	}
	for _, id := range IDs {
		if _, err := Build(ctx, e, id, p); err != nil {
			t.Fatal(err)
		}
	}
	if n := fresh.Load() - warmed; n != 0 {
		t.Fatalf("building the tables after warm simulated %d more runs", n)
	}
}

func TestWarmMatchesSequential(t *testing.T) {
	ctx := context.Background()
	cfg := ptb(ptbsim.Dynamic).config("fft", 2)
	seq, err := testExperiment(ptbsim.WithParallelism(1)).Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par := testExperiment(ptbsim.WithParallelism(4))
	p := Params{Benches: []string{"fft"}, CoreCounts: []int{2}, BigCores: 2}
	if _, err := par.RunAll(ctx, p.Configs()); err != nil {
		t.Fatal(err)
	}
	got, err := par.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != seq.Digest() {
		t.Fatalf("parallel warm produced a different result:\n%s\n%s", got.Digest(), seq.Digest())
	}
}

func TestBuildRejectsUnknownID(t *testing.T) {
	if _, err := Build(context.Background(), testExperiment(), "fig99", Params{}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestNewParams(t *testing.T) {
	p, err := NewParams("fft, radix", " 2, 4", "0.5,0", 4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(p.Benches, ",") != "fft,radix" || len(p.CoreCounts) != 2 || p.CoreCounts[1] != 4 || len(p.Rates) != 2 {
		t.Fatalf("params %+v", p)
	}
	for _, tc := range []struct {
		benches, cores, rates string
		big                   int
	}{
		{"fft,nosuch", "", "0", 4},
		{"fft,", "", "0", 4},
		{"", "2,0", "0", 4},
		{"", "2,257", "0", 4},
		{"", "", "0", 0},
		{"", "", "NaN", 4},
		{"", "", "0,1.5", 4},
		{"", "", "-0.1", 4},
		{"", "", "", 4},
	} {
		if _, err := NewParams(tc.benches, tc.cores, tc.rates, tc.big, 0.2); err == nil {
			t.Errorf("NewParams(%q, %q, %q, %d) accepted", tc.benches, tc.cores, tc.rates, tc.big)
		}
	}
}

// TestFigTraces checks the Fig. 5/6 traces the telemetry observer
// produces: both non-empty under a positive budget, and the spinning
// core's trace not flat (activity peaks over the spin floor).
func TestFigTraces(t *testing.T) {
	base := ptbsim.Config{WorkloadScale: 0.05}
	fig5, err := PowerTrace(context.Background(), "fig5", base)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig5.Rows) == 0 || fig5.plot.budget <= 0 {
		t.Fatalf("fig5: %d samples, budget %v", len(fig5.Rows), fig5.plot.budget)
	}
	fig6, err := PowerTrace(context.Background(), "fig6", base)
	if err != nil {
		t.Fatal(err)
	}
	ct := fig6.plot.trace
	if len(ct) == 0 || fig6.plot.budget <= 0 {
		t.Fatalf("fig6: %d samples, budget %v", len(ct), fig6.plot.budget)
	}
	minV, maxV := ct[0], ct[0]
	for _, v := range ct {
		minV, maxV = min(minV, v), max(maxV, v)
	}
	if maxV <= minV {
		t.Fatal("fig6 trace is flat")
	}
	var sb strings.Builder
	fig5.Render(&sb)
	if !strings.HasPrefix(sb.String(), "Figure 5 — per-cycle CMP power") || !strings.Contains(sb.String(), "budget = ") {
		t.Fatalf("fig5 does not render as a chart:\n%.300s", sb.String())
	}
	if _, err := PowerTrace(context.Background(), "fig7", base); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("fig7: %v, want ErrUnknownID", err)
	}
}
