package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptbsim"
)

// smallSweep is Fig. 2 for one benchmark on a 4-core chip: four cells
// (the base case, DVFS, DFS and 2level), each a few tens of thousands of
// cycles.
var smallSweep = []string{"-exp", "fig2", "-benches", "fft", "-bigcores", "4", "-scale", "0.05", "-par", "2"}

// sweep runs ptbsweep in-process and returns its stdout, the number of
// cells it simulated (its "ran" progress lines) and its exit status.
func sweep(t *testing.T, extra ...string) (out string, fresh, code int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code = run(context.Background(), append(append([]string(nil), smallSweep...), extra...), &stdout, &stderr)
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "ran ") {
			fresh++
		}
	}
	return stdout.String(), fresh, code
}

func cellFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestSweepCellResume pins cell-level resume through the -resume store:
// finished cells are served from disk on a rerun, a damaged or foreign
// cell file is quarantined and recomputed, and the output never changes.
func TestSweepCellResume(t *testing.T) {
	want, fresh, code := sweep(t)
	if code != 0 || fresh != 4 || !strings.Contains(want, "Figure 2") {
		t.Fatalf("reference sweep: exit %d, %d fresh cells, output %q", code, fresh, want)
	}
	dir := t.TempDir()
	check := func(step string, wantFresh int) {
		t.Helper()
		out, fresh, code := sweep(t, "-resume", dir)
		if code != 0 {
			t.Fatalf("%s: exit %d", step, code)
		}
		if out != want {
			t.Fatalf("%s: output differs from an uninterrupted sweep:\n%s\nwant:\n%s", step, out, want)
		}
		if fresh != wantFresh {
			t.Fatalf("%s: simulated %d cells, want %d", step, fresh, wantFresh)
		}
	}

	check("first run", 4)
	cells := cellFiles(t, dir)
	if len(cells) != 4 {
		t.Fatalf("store holds %d cell files, want 4", len(cells))
	}
	check("rerun", 0)

	// A damaged cell is quarantined, not served, and recomputed.
	data, err := os.ReadFile(cells[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cells[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	check("rerun after corruption", 1)
	for _, suffix := range []string{".corrupt", ".corrupt.reason"} {
		if _, err := os.Stat(cells[0] + suffix); err != nil {
			t.Errorf("corrupt cell not quarantined: %v", err)
		}
	}

	// A cell file left by the retired per-sweep cell store (no digest,
	// Go field names, *.run.json) must never be served.
	old := filepath.Join(dir, strings.TrimSuffix(filepath.Base(cells[1]), ".json")+".run.json")
	if err := os.Rename(cells[1], old); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, []byte(`{"key":"s0.05/m80000000/fft/4/none/ToAll/0.00","result":{"Benchmark":"fft","Cores":4,"Cycles":1,"EnergyJ":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	check("rerun over an old-format cell", 1)
	if _, err := os.Stat(old + ".corrupt"); err != nil {
		t.Errorf("old-format cell not quarantined: %v", err)
	}
}

// wantUsageError runs each argument list and expects exit 2 with nothing
// on stdout: a usage error is found before any output.
func wantUsageError(t *testing.T, cases [][]string) {
	t.Helper()
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
		if stdout.Len() > 0 {
			t.Errorf("%q: wrote %d bytes to stdout before the usage error", args, stdout.Len())
		}
	}
}

func TestSweepUsageErrors(t *testing.T) {
	wantUsageError(t, [][]string{
		{"-exp", "fig99", "-q"},
		{"-exp", "table1,fig99", "-q"},
		{"-cores", "two"},
		{"-exp", "table1", "-format", "json"},
		// Sizes and names are checked before any run.
		{"-exp", "fig2", "-benches", "fft", "-bigcores", "0", "-scale", "0.02", "-q"},
		{"-exp", "fig3", "-benches", "fft", "-cores", "2,0", "-scale", "0.02", "-q"},
		{"-exp", "fig3", "-benches", "fft", "-cores", "2,999", "-scale", "0.02", "-q"},
		{"-exp", "fig2", "-benches", "fft, nosuch", "-bigcores", "2", "-scale", "0.02", "-q"},
	})
}

// TestReportUsageErrors covers the markdown report (-exp all -format md):
// a bad core list, and an -o that cannot be opened, which is found
// before any simulation.
func TestReportUsageErrors(t *testing.T) {
	wantUsageError(t, [][]string{
		{"-exp", "all", "-format", "md", "-cores", "two"},
		{"-exp", "all", "-format", "md", "-o", filepath.Join(t.TempDir(), "missing", "report.md")},
	})
}

// TestTraceUsageErrors covers the power traces of Figs. 5 and 6: an
// unknown trace and a bad -faults spec.
func TestTraceUsageErrors(t *testing.T) {
	wantUsageError(t, [][]string{
		{"-exp", "fig7"},
		{"-exp", "fig5", "-faults", "drop=2"},
	})
}

// TestChaosUsageErrors covers the chaos table: drop rates outside [0, 1]
// (NaN included), a bad core list, and -faults, which the table sets
// itself.
func TestChaosUsageErrors(t *testing.T) {
	wantUsageError(t, [][]string{
		{"-exp", "chaos", "-rates", "0,2"},
		{"-exp", "chaos", "-rates", "NaN"},
		{"-exp", "chaos", "-cores", "two"},
		{"-exp", "chaos", "-benches", "ocean", "-faults", "drop=0.5"},
	})
}

// TestChaosNotMonotoneFails drives the chaos table's monotonicity check:
// at drop rate 1 every token batch dies before it is sent, so the
// accounting error falls back to 0 after rate 0.9. The run must exit 1
// with its table and telemetry feed both written out whole.
func TestChaosNotMonotoneFails(t *testing.T) {
	dir := t.TempDir()
	feed := filepath.Join(dir, "feed.jsonl")
	table := filepath.Join(dir, "table.txt")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-exp", "chaos", "-benches", "ocean", "-scale", "0.02", "-cores", "2", "-rates", "0.9,1", "-par", "1", "-q",
		"-telemetry", "every=1024,out=" + feed, "-o", table,
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "not monotone") {
		t.Errorf("stderr lacks the monotonicity failure: %q", stderr.String())
	}
	out, err := os.ReadFile(table)
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(string(out), "\n  ocean "); rows != 3 || !strings.Contains(string(out), "NON-MONOTONE") {
		t.Errorf("table does not hold 3 rows with the non-monotone one marked:\n%s", out)
	}
	f, err := os.Open(feed)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := ptbsim.ReadTelemetry(f)
	if err != nil {
		t.Fatalf("feed does not parse: %v", err)
	}
	if len(samples) == 0 {
		t.Fatal("feed holds no samples")
	}
}

// TestTraceNeverCached pins that a power trace is simulated every time:
// served from a cache or a -resume store, its run would record no
// samples and the chart would come out empty.
func TestTraceNeverCached(t *testing.T) {
	dir := t.TempDir()
	var first string
	for i := 0; i < 2; i++ {
		var stdout, stderr bytes.Buffer
		args := []string{"-exp", "fig5,fig5", "-scale", "0.03", "-resume", dir, "-q"}
		if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("run %d: exit %d (stderr %q)", i, code, stderr.String())
		}
		charts := strings.SplitAfter(stdout.String(), "\n\n")
		if len(charts) != 3 || charts[2] != "" {
			t.Fatalf("run %d: want two charts, got:\n%s", i, stdout.String())
		}
		for _, c := range charts[:2] {
			if !strings.Contains(c, "#") || strings.Contains(c, "(empty trace)") {
				t.Fatalf("run %d: empty chart:\n%s", i, c)
			}
			if first == "" {
				first = c
			}
			if c != first {
				t.Fatalf("run %d: chart differs from the first:\n%s\nwant:\n%s", i, c, first)
			}
		}
	}
}

// TestRenderTelemetry renders the feed of a small sweep: one table per
// run, read back through ReadTelemetry.
func TestRenderTelemetry(t *testing.T) {
	feed := filepath.Join(t.TempDir(), "feed.jsonl")
	var stdout, stderr bytes.Buffer
	args := []string{"-scale", "0.05", "-benches", "fft", "-cores", "2", "-bigcores", "2", "-par", "2", "-q",
		"-telemetry", "every=4096,out=" + feed, "-format", "md", "-o", filepath.Join(t.TempDir(), "report.md")}
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("report: exit %d (stderr %q)", code, stderr.String())
	}
	stdout.Reset()
	if code := run(context.Background(), []string{"-render-telemetry", feed}, &stdout, &stderr); code != 0 {
		t.Fatalf("render: exit %d (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "## Telemetry: fft on 2 cores") {
		t.Fatalf("rendered feed lacks the fft tables:\n%.500s", stdout.String())
	}
}

func TestSweepInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	if code := run(ctx, smallSweep, &stdout, &stderr); code != 130 {
		t.Fatalf("cancelled sweep: exit %d, want 130 (stderr %q)", code, stderr.String())
	}
}
