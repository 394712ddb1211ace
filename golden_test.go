package ptbsim_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"ptbsim"
)

// goldenMatrixSweep is the configuration grid committed under
// testdata/golden/matrix_scale025.txt: every benchmark × every technique at
// 4 cores, the PTB family under its headline Dynamic policy. It must match
// cmd/ptbgolden exactly — the test and the generator describe the same
// matrix.
func goldenMatrixSweep(t *testing.T) ptbsim.Sweep {
	t.Helper()
	var techs []ptbsim.Technique
	for _, name := range ptbsim.TechniqueNames() {
		tech, err := ptbsim.ParseTechnique(name)
		if err != nil {
			t.Fatalf("ParseTechnique(%q): %v", name, err)
		}
		techs = append(techs, tech)
	}
	return ptbsim.Sweep{
		CoreCounts: []int{4},
		Techniques: techs,
		Policies:   []ptbsim.Policy{ptbsim.Dynamic},
	}
}

// readGoldenMatrix loads the committed digest lines from
// testdata/golden/matrix_scale025.txt, skipping comments and blanks. Shared
// by the golden regression gate and the zero-rate fault identity test.
func readGoldenMatrix(t *testing.T) []string {
	t.Helper()
	return readGoldenFile(t, "testdata/golden/matrix_scale025.txt")
}

// readGoldenFile loads the digest lines of any committed golden file,
// skipping comments and blanks.
func readGoldenFile(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with `go generate ./...`): %v", err)
	}
	var want []string
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		want = append(want, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenMatrixDigests reruns the full golden matrix — with the runtime
// invariant layer enabled and 8-way sweep parallelism — and compares every
// digest byte-for-byte against testdata/golden/matrix_scale025.txt. It is
// the whole-simulator regression gate: any behavioral change anywhere in
// the pipeline, caches, NoC, power model or controllers moves at least one
// digest. Regenerate intentionally changed baselines with `go generate
// ./...` (or `make golden`).
func TestGoldenMatrixDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix (98 runs) skipped in -short")
	}
	// One subtest per committed golden file keeps the file in the test name.
	t.Run("matrix_scale025", func(t *testing.T) {
		want := readGoldenMatrix(t)
		e := ptbsim.NewExperiment(
			ptbsim.WithScale(0.25),
			ptbsim.WithParallelism(8),
			ptbsim.WithInvariants(),
		)
		results, err := e.RunSweep(context.Background(), goldenMatrixSweep(t))
		if err != nil {
			t.Fatalf("golden matrix run failed (invariant violation?): %v", err)
		}
		if len(results) != len(want) {
			t.Fatalf("golden matrix has %d runs, golden file has %d digests", len(results), len(want))
		}
		for i, r := range results {
			if got := r.Digest(); got != want[i] {
				t.Errorf("digest drift at line %d:\n got  %s\n want %s", i+1, got, want[i])
			}
		}
	})
}

// TestGoldenMatrixBigChip reruns the committed 64- and 256-core mini-matrix
// (testdata/golden/matrix_bigchip.txt) and compares digests byte-for-byte,
// keeping the post-paper chip sizes pinned. The grid must match the
// go:generate ptbgolden invocation in ptbsim.go.
func TestGoldenMatrixBigChip(t *testing.T) {
	if testing.Short() {
		t.Skip("big-chip matrix (8 runs up to 256 cores) skipped in -short")
	}
	want := readGoldenFile(t, "testdata/golden/matrix_bigchip.txt")

	sweep := ptbsim.Sweep{
		Benchmarks: []string{"ocean", "fft"},
		CoreCounts: []int{64, 256},
		Techniques: []ptbsim.Technique{ptbsim.None, ptbsim.PTB},
		Policies:   []ptbsim.Policy{ptbsim.Dynamic},
	}
	cfgs := sweep.Configs()
	for i := range cfgs {
		if cfgs[i].Technique == ptbsim.PTB {
			cfgs[i].PTBClusterSize = 16
		}
	}
	e := ptbsim.NewExperiment(
		ptbsim.WithScale(0.01),
		ptbsim.WithInvariants(),
	)
	results, err := e.RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatalf("big-chip matrix run failed (invariant violation?): %v", err)
	}
	if len(results) != len(want) {
		t.Fatalf("big-chip matrix has %d runs, golden file has %d digests", len(results), len(want))
	}
	for i, r := range results {
		if got := r.Digest(); got != want[i] {
			t.Errorf("big-chip digest drift at line %d:\n got  %s\n want %s", i+1, got, want[i])
		}
	}
}

// TestDigestParallelismIndependence runs the same configurations through a
// serial and an 8-way-parallel experiment and demands byte-identical
// digests: sweep parallelism may never leak into results.
func TestDigestParallelismIndependence(t *testing.T) {
	cfgs := []ptbsim.Config{
		{Benchmark: "ocean", Cores: 4, Technique: ptbsim.None},
		{Benchmark: "ocean", Cores: 4, Technique: ptbsim.PTB, Policy: ptbsim.Dynamic},
		{Benchmark: "raytrace", Cores: 4, Technique: ptbsim.PTB, Policy: ptbsim.ToOne},
		{Benchmark: "fft", Cores: 2, Technique: ptbsim.PTB, Policy: ptbsim.Dynamic},
		{Benchmark: "fft", Cores: 4, Technique: ptbsim.TwoLevel},
	}
	digests := func(par int) []string {
		e := ptbsim.NewExperiment(
			ptbsim.WithScale(0.05),
			ptbsim.WithParallelism(par),
			ptbsim.WithInvariants(),
		)
		results, err := e.RunAll(context.Background(), cfgs)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		out := make([]string, len(results))
		for i, r := range results {
			out[i] = r.Digest()
		}
		return out
	}
	serial := digests(1)
	parallel := digests(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("config %d: digest depends on parallelism:\n par=1 %s\n par=8 %s",
				i, serial[i], parallel[i])
		}
	}
}

// TestDigestCoversTokenFlow pins the digest format itself: distinct results
// must yield distinct digests, and the sha fragment must match the line it
// annotates.
func TestDigestCoversTokenFlow(t *testing.T) {
	a := &ptbsim.Result{Benchmark: "ocean", Cores: 4, Technique: ptbsim.PTB, Policy: "Dynamic",
		Cycles: 100, Committed: 50, EnergyJ: 1.5, TokenDonatedPJ: 10}
	b := *a
	b.TokenDonatedPJ = 10.0000000001
	da, db := a.Digest(), b.Digest()
	if da == db {
		t.Fatalf("digest misses a last-ULP token-flow change: %s", da)
	}
	for _, d := range []string{da, db} {
		if !strings.Contains(d, " sha=") {
			t.Fatalf("digest %q lacks the sha fragment", d)
		}
	}
	if fmt.Sprint(a.Digest()) != da {
		t.Fatal("Digest is not deterministic for identical results")
	}
}
