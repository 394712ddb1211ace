package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestSweepCrashDrill runs the stop=K drill: every cell aborts after its
// first snapshot (exit 3), and rerunning the same command resumes them
// to the output of an uninterrupted sweep.
func TestSweepCrashDrill(t *testing.T) {
	want, _, code := sweep(t)
	if code != 0 {
		t.Fatalf("reference sweep: exit %d", code)
	}
	ck := "every=20000,dir=" + t.TempDir() + ",stop=1"
	if _, _, code := sweep(t, "-checkpoint", ck); code != 3 {
		t.Fatalf("drill run: exit %d, want 3", code)
	}
	out, _, code := sweep(t, "-checkpoint", ck)
	if code != 0 {
		t.Fatalf("resumed run: exit %d", code)
	}
	if out != want {
		t.Fatalf("resumed output differs from an uninterrupted sweep:\n%s\nwant:\n%s", out, want)
	}
}

func TestSweepUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-exp", "fig99", "-q"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown experiment: exit %d, want 2", code)
	}
	if code := run(context.Background(), []string{"-cores", "two"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad -cores: exit %d, want 2", code)
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
