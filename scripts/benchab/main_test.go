package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testBench mirrors the end-to-end metrics of the repository's
// BENCHMARK.json.
var testBench = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// side is one A/B side: a result line per pair.
type side struct {
	correct bool
	failed  int
	metrics map[string]float64
}

// ok is a correct run with no failed ops and every metric present.
func ok(setup, cpu, rss float64) side {
	return side{true, 0, map[string]float64{"setup_s": setup, "cpu_ms_per_op": cpu, "peak_rss_mb": rss}}
}

// writeRun lays out a BENCHMARK.json and an A/B directory the way
// scripts/bench_ab.sh does, and returns their paths.
func writeRun(t *testing.T, base, change []side) (bench, dir string) {
	t.Helper()
	root := t.TempDir()
	write := func(path string, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bench = filepath.Join(root, "BENCHMARK.json")
	write(bench, map[string]any{"end_to_end": testBench})
	for name, sides := range map[string][]side{"base": base, "change": change} {
		for i, s := range sides {
			ms := map[string]any{}
			for k, v := range s.metrics {
				ms[k] = map[string]float64{"value": v}
			}
			write(filepath.Join(root, fmt.Sprintf("%s-%d.json", name, i+1)), map[string]any{
				"correct": s.correct, "attempted": 98, "failed": s.failed, "metrics": ms,
			})
		}
	}
	return bench, root
}

func TestMissingMetricIsAnError(t *testing.T) {
	noCPU := side{true, 0, map[string]float64{"setup_s": 0.2, "peak_rss_mb": 13}}
	bench, dir := writeRun(t, []side{ok(0.2, 100, 13), ok(0.2, 100, 13)}, []side{ok(0.2, 100, 13), noCPU})
	var out strings.Builder
	err := run(bench, dir, &out)
	if err == nil || !strings.Contains(err.Error(), "change-2.json") || !strings.Contains(err.Error(), "cpu_ms_per_op") {
		t.Fatalf("err = %v, want one naming change-2.json and cpu_ms_per_op", err)
	}
	if out.Len() != 0 {
		t.Fatalf("printed a summary from incomplete results:\n%s", out.String())
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4, method="exclusive"). Python before 3.13
// rejects a single point; 3.13 returns it as every cut point.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{7.5}, [3]float64{7.5, 7.5, 7.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{2, 9, 4}, [3]float64{2, 4, 9}},
		{[]float64{10.3, 2.1, 7.7, 5.0, 1.9, 8.8, 6.4, 3.3, 9.1, 4.6}, [3]float64{2.9999999999999996, 5.7, 8.875}},
	} {
		var got [3]float64
		got[0], got[1], got[2] = quartiles(c.xs)
		if got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdicts(t *testing.T) {
	lower := metric{Name: "cpu_ms_per_op", Better: "lower", Bound: 0.25}
	higher := metric{Name: "ops_per_s", Better: "higher", Bound: 0.25}
	xs := func(v ...float64) []float64 { return v }
	for _, c := range []struct {
		name string
		m    metric
		b, c []float64
		want string
	}{
		{"gain", lower, xs(100, 101, 99, 100, 102, 100, 98, 101, 100, 99), xs(90, 91, 89, 90, 92, 90, 88, 91, 90, 101), "gain"},
		{"gain needs nine tenths", lower, xs(100, 101, 99, 100, 102, 100, 98, 101, 100, 99), xs(90, 91, 89, 90, 92, 90, 88, 91, 103, 101), "within bound"},
		{"within bound", lower, xs(100, 102, 98), xs(110, 95, 101), "within bound"},
		{"unresolved spread", lower, xs(60, 100, 140), xs(61, 101, 141), "unresolved: base spread above bound"},
		{"unresolved some pairs", lower, xs(100, 100, 100), xs(130, 130, 110), "unresolved: worse beyond bound in 2/3 pairs"},
		{"worse every pair", lower, xs(100, 100, 100), xs(130, 126, 140), worseEveryPair},
		{"worse every pair, higher is better", higher, xs(100, 100, 100), xs(70, 74, 60), worseEveryPair},
		{"higher is better gain", higher, xs(100, 100, 101), xs(120, 121, 119), "gain"},
	} {
		if got := compare(c.m, c.b, c.c).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestGateExitStatus(t *testing.T) {
	base := []side{ok(0.2, 100, 13), ok(0.2, 100, 13), ok(0.2, 100, 13)}
	for _, c := range []struct {
		name   string
		change []side
		fail   string // "" when the gate must pass
	}{
		{"same", []side{ok(0.2, 100, 13), ok(0.2, 101, 13), ok(0.2, 99, 13)}, ""},
		{"one pair of three within bound", []side{ok(0.2, 130, 13), ok(0.2, 130, 13), ok(0.2, 110, 13)}, ""},
		{"worse beyond bound in every pair", []side{ok(0.2, 130, 13), ok(0.2, 126, 13), ok(0.2, 140, 13)}, "cpu_ms_per_op is " + worseEveryPair},
		{"incorrect change run", []side{ok(0.2, 100, 13), side{false, 0, ok(0.2, 100, 13).metrics}, ok(0.2, 100, 13)}, "change-2.json is incorrect"},
		{"more failed ops", []side{ok(0.2, 100, 13), ok(0.2, 100, 13), side{true, 1, ok(0.2, 100, 13).metrics}}, "change-3.json failed 1 ops, its base run 0"},
	} {
		bench, dir := writeRun(t, base, c.change)
		var out strings.Builder
		err := run(bench, dir, &out)
		switch {
		case c.fail == "" && err != nil:
			t.Errorf("%s: gate failed: %v", c.name, err)
		case c.fail != "" && (err == nil || !strings.Contains(err.Error(), c.fail)):
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.fail)
		}
		// The whole summary prints before the gate's verdict.
		if !strings.Contains(out.String(), "| peak_rss_mb (MB) |") {
			t.Errorf("%s: summary incomplete:\n%s", c.name, out.String())
		}
	}
}
