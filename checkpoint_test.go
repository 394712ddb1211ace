package ptbsim_test

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ptbsim"
)

// ckptOf globs the single snapshot file a crash drill left in dir.
func ckptOf(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("snapshot files in %s = %v, want exactly 1", dir, names)
	}
	return names[0]
}

// drill runs cfg until the first snapshot (aborting with ErrRunStopped)
// and returns the snapshot path. cfg's Checkpoint field is overwritten.
func drill(t *testing.T, cfg ptbsim.Config, dir string, every int64) string {
	t.Helper()
	cfg.Checkpoint = &ptbsim.Checkpoint{Every: every, Dir: dir, StopAfter: 1}
	_, err := ptbsim.RunContext(context.Background(), cfg)
	if !errors.Is(err, ptbsim.ErrRunStopped) {
		t.Fatalf("crash drill: err = %v, want ErrRunStopped", err)
	}
	return ckptOf(t, dir)
}

func TestParseCheckpointSpec(t *testing.T) {
	good := map[string]ptbsim.CheckpointSpec{
		"dir=ckpt":                     {Dir: "ckpt"},
		"every=500000,dir=/var/ckpt":   {Every: 500000, Dir: "/var/ckpt"},
		"every=2000, dir=ckpt, stop=3": {Every: 2000, Dir: "ckpt", Stop: 3},
		"STOP=1,dir=d":                 {Dir: "d", Stop: 1},
		"dir=with=equals,every=1":      {Every: 1, Dir: "with=equals"},
	}
	for in, want := range good {
		got, err := ptbsim.ParseCheckpointSpec(in)
		if err != nil || got != want {
			t.Errorf("ParseCheckpointSpec(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	bad := []string{
		"",               // empty
		"every=1000",     // no dir
		"dir=a,dir=b",    // repeated key
		"every=0,dir=d",  // non-positive cadence
		"every=x,dir=d",  // malformed number
		"stop=-1,dir=d",  // negative stop
		"speed=9,dir=d",  // unknown key
		"dir=d,,every=1", // empty clause
		"justadirname",   // not key=value
	}
	for _, in := range bad {
		if _, err := ptbsim.ParseCheckpointSpec(in); !errors.Is(err, ptbsim.ErrBadCheckpointSpec) {
			t.Errorf("ParseCheckpointSpec(%q) err = %v, want ErrBadCheckpointSpec", in, err)
		}
	}

	// The flag round-trips through String.
	s, err := ptbsim.ParseCheckpointSpec("every=2000,dir=ckpt,stop=3")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ptbsim.ParseCheckpointSpec(s.String())
	if err != nil || back != s {
		t.Fatalf("String round-trip: %+v -> %q -> %+v (%v)", s, s.String(), back, err)
	}
	if ck := s.Checkpoint(); ck.Every != 2000 || ck.Dir != "ckpt" || ck.StopAfter != 3 {
		t.Fatalf("Checkpoint() = %+v", ck)
	}
	if ck := (ptbsim.CheckpointSpec{Dir: "d"}).Checkpoint(); ck.Every != ptbsim.DefaultCheckpointEvery {
		t.Fatalf("default cadence not applied: %+v", ck)
	}
}

func TestCheckpointNeedsDir(t *testing.T) {
	cfg := ptbsim.Config{Benchmark: "fft", Cores: 2, Technique: ptbsim.None,
		WorkloadScale: 0.02, Checkpoint: &ptbsim.Checkpoint{Every: 1000}}
	if _, err := ptbsim.RunContext(context.Background(), cfg); !errors.Is(err, ptbsim.ErrBadCheckpointSpec) {
		t.Fatalf("err = %v, want ErrBadCheckpointSpec", err)
	}
}

// TestCheckpointCrashDrillAndAutoResume is the headline round trip: a
// run killed right after its first snapshot, rerun with the same
// checkpoint directory, must resume from the snapshot and produce a
// Result digest byte-identical to an uninterrupted run — with the
// invariant layer and telemetry on, and the snapshot deleted afterwards
// (the result is the durable artifact).
func TestCheckpointCrashDrillAndAutoResume(t *testing.T) {
	cfg := ptbsim.Config{
		Benchmark: "ocean", Cores: 4, Technique: ptbsim.PTB, Policy: ptbsim.Dynamic,
		WorkloadScale: 0.05, CheckInvariants: true,
		Observe: &ptbsim.Telemetry{Every: 2048},
	}
	want, err := ptbsim.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	drill(t, cfg, dir, 3000)

	resumed := cfg
	resumed.Checkpoint = &ptbsim.Checkpoint{Every: 3000, Dir: dir}
	got, err := ptbsim.RunContext(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != want.Digest() {
		t.Fatalf("resumed run diverged:\n got  %s\n want %s", got.Digest(), want.Digest())
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(names) != 0 {
		t.Fatalf("snapshot not deleted after completion: %v", names)
	}
}

// TestResumeContextExplicit pins the self-describing entry point: the
// snapshot alone — no configuration — must complete the run identically,
// and damaged snapshots must fail with the right typed error instead of
// silently recomputing.
func TestResumeContextExplicit(t *testing.T) {
	cfg := ptbsim.Config{
		Benchmark: "fft", Cores: 2, Technique: ptbsim.PTB, Policy: ptbsim.Dynamic,
		WorkloadScale: 0.05,
	}
	want, err := ptbsim.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := drill(t, cfg, dir, 3000)

	got, err := ptbsim.ResumeContext(context.Background(), path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != want.Digest() {
		t.Fatalf("explicit resume diverged:\n got  %s\n want %s", got.Digest(), want.Digest())
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A bit flip in the body must be caught by the checksum.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x40
	cpath := filepath.Join(dir, "corrupt.ckpt")
	if err := os.WriteFile(cpath, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ptbsim.ResumeContext(context.Background(), cpath, 0); !errors.Is(err, ptbsim.ErrSnapshotCorrupt) {
		t.Fatalf("corrupt snapshot: err = %v, want ErrSnapshotCorrupt", err)
	}

	// A future format version must be refused as version skew, not noise.
	// Re-seal the trailing checksum so only the version check can object.
	skewed := append([]byte(nil), data...)
	skewed[8] = 0xFF // version uint32 LE follows the 8-byte magic
	sum := sha256.Sum256(skewed[:len(skewed)-sha256.Size])
	copy(skewed[len(skewed)-sha256.Size:], sum[:])
	spath := filepath.Join(dir, "skewed.ckpt")
	if err := os.WriteFile(spath, skewed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ptbsim.ResumeContext(context.Background(), spath, 0); !errors.Is(err, ptbsim.ErrSnapshotVersion) {
		t.Fatalf("skewed snapshot: err = %v, want ErrSnapshotVersion", err)
	}

	// A truncated file is corrupt too.
	tpath := filepath.Join(dir, "trunc.ckpt")
	if err := os.WriteFile(tpath, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ptbsim.ResumeContext(context.Background(), tpath, 0); !errors.Is(err, ptbsim.ErrSnapshotCorrupt) {
		t.Fatalf("truncated snapshot: err = %v, want ErrSnapshotCorrupt", err)
	}
}

// TestCheckpointFallsBackOnDamage pins "degraded, never wrong": the
// automatic resume path, handed a corrupt or version-skewed snapshot,
// recomputes from scratch and still produces the exact digest.
func TestCheckpointFallsBackOnDamage(t *testing.T) {
	cfg := ptbsim.Config{
		Benchmark: "radix", Cores: 2, Technique: ptbsim.PTB, Policy: ptbsim.Dynamic,
		WorkloadScale: 0.05,
	}
	want, err := ptbsim.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, damage := range map[string]func([]byte) []byte{
		"corrupt": func(d []byte) []byte { d[len(d)/2] ^= 0x01; return d },
		"skewed": func(d []byte) []byte {
			d[8] = 0xFE // re-seal so the damage reads as version skew, not corruption
			sum := sha256.Sum256(d[:len(d)-sha256.Size])
			copy(d[len(d)-sha256.Size:], sum[:])
			return d
		},
		"truncate": func(d []byte) []byte { return d[:len(d)/4] },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := drill(t, cfg, dir, 3000)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage(append([]byte(nil), data...)), 0o644); err != nil {
				t.Fatal(err)
			}
			resumed := cfg
			resumed.Checkpoint = &ptbsim.Checkpoint{Every: 3000, Dir: dir}
			got, err := ptbsim.RunContext(context.Background(), resumed)
			if err != nil {
				t.Fatalf("damaged snapshot was not recovered from: %v", err)
			}
			if got.Digest() != want.Digest() {
				t.Fatalf("fallback recompute diverged:\n got  %s\n want %s", got.Digest(), want.Digest())
			}
		})
	}
}

// TestCheckpointConformanceShort sweeps a small high-variance matrix —
// telemetry on, invariants on, a faulted cell — through the
// drill-then-resume cycle and demands digest identity with the
// uninterrupted runs.
func TestCheckpointConformanceShort(t *testing.T) {
	base := ptbsim.Config{
		Cores: 4, Policy: ptbsim.Dynamic, WorkloadScale: 0.05,
		CheckInvariants: true, Observe: &ptbsim.Telemetry{Every: 1024},
	}
	cfgs := make([]ptbsim.Config, 0, 3)
	for _, tech := range []ptbsim.Technique{ptbsim.None, ptbsim.PTB} {
		cfg := base
		cfg.Benchmark, cfg.Technique = "ocean", tech
		cfgs = append(cfgs, cfg)
	}
	faulted := base
	faulted.Benchmark, faulted.Technique = "fft", ptbsim.PTB
	faulted.Faults = &ptbsim.FaultSpec{Seed: 7, TokenDrop: 0.01, TokenDelay: 0.02, DVFSGlitch: 0.1}
	cfgs = append(cfgs, faulted)

	for i, cfg := range cfgs {
		cfg := cfg
		t.Run(fmt.Sprintf("cell-%d", i), func(t *testing.T) {
			t.Parallel()
			want, err := ptbsim.RunContext(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			drill(t, cfg, dir, 2500)
			resumed := cfg
			resumed.Checkpoint = &ptbsim.Checkpoint{Every: 2500, Dir: dir}
			got, err := ptbsim.RunContext(context.Background(), resumed)
			if err != nil {
				t.Fatal(err)
			}
			if got.Digest() != want.Digest() {
				t.Fatalf("resumed digest diverged:\n got  %s\n want %s", got.Digest(), want.Digest())
			}
		})
	}
}

// TestGoldenMatrixCheckpointConformance is the acceptance gate: every
// cell of the committed golden matrix, interrupted mid-run by the crash
// drill and resumed from its snapshot, must land on the committed digest
// byte-for-byte, with the invariant layer and telemetry enabled. Cells
// shorter than the snapshot cadence simply complete on the first pass,
// which still must match.
func TestGoldenMatrixCheckpointConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix (98 cells) skipped in -short")
	}
	// One subtest per committed golden file keeps the file in the test name.
	t.Run("matrix_scale025", func(t *testing.T) {
		want := readGoldenMatrix(t)
		cfgs := goldenMatrixSweep(t).Configs()
		if len(cfgs) != len(want) {
			t.Fatalf("golden matrix has %d cells, golden file has %d digests", len(cfgs), len(want))
		}

		sem := make(chan struct{}, 8)
		var wg sync.WaitGroup
		errs := make([]error, len(cfgs))
		for i, cfg := range cfgs {
			i, cfg := i, cfg
			cfg.WorkloadScale = 0.25
			cfg.CheckInvariants = true
			cfg.Observe = &ptbsim.Telemetry{Every: 4096}
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				errs[i] = checkpointCell(cfg, want[i])
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("cell %d: %v", i, err)
			}
		}
	})
}

// checkpointCell drills one golden cell and verifies the resumed digest
// against the committed line. A cell that finishes before its first
// snapshot is verified directly.
func checkpointCell(cfg ptbsim.Config, want string) error {
	dir, err := os.MkdirTemp("", "ckpt-cell-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	drillCfg := cfg
	drillCfg.Checkpoint = &ptbsim.Checkpoint{Every: 20_000, Dir: dir, StopAfter: 1}
	res, err := ptbsim.RunContext(context.Background(), drillCfg)
	switch {
	case errors.Is(err, ptbsim.ErrRunStopped):
		resumed := cfg
		resumed.Checkpoint = &ptbsim.Checkpoint{Every: 20_000, Dir: dir}
		res, err = ptbsim.RunContext(context.Background(), resumed)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
	case err != nil:
		return fmt.Errorf("drill: %w", err)
	}
	if got := res.Digest(); got != want {
		return fmt.Errorf("digest drift:\n got  %s\n want %s", got, want)
	}
	return nil
}

// TestExperimentWithCheckpoint pins the engine-level default: an
// experiment built with WithCheckpoint arms snapshots on every run whose
// config leaves Checkpoint nil, results stay digest-identical to an
// uncheckpointed experiment, and completed runs clean their snapshots up.
func TestExperimentWithCheckpoint(t *testing.T) {
	ctx := context.Background()
	cfg := ptbsim.Config{Benchmark: "fft", Cores: 2, Technique: ptbsim.PTB, Policy: ptbsim.Dynamic}

	plain := ptbsim.NewExperiment(ptbsim.WithScale(0.05))
	want, err := plain.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	e := ptbsim.NewExperiment(ptbsim.WithScale(0.05), ptbsim.WithCheckpoint(&ptbsim.Checkpoint{Every: 2000, Dir: dir}))
	got, err := e.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != want.Digest() {
		t.Fatalf("checkpointed experiment diverged:\n got  %s\n want %s", got.Digest(), want.Digest())
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(names) != 0 {
		t.Fatalf("completed run left snapshots behind: %v", names)
	}
}
