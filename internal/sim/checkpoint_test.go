package sim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ptbsim/internal/ckpt"
	"ptbsim/internal/core"
	"ptbsim/internal/fault"
	"ptbsim/internal/workload"
)

func ckptConfig(t *testing.T, tech Technique, faults *fault.Spec) Config {
	t.Helper()
	spec, ok := workload.ByName("fft")
	if !ok {
		t.Fatal("fft spec missing")
	}
	return Config{
		Benchmark:     spec,
		Cores:         4,
		Technique:     tech,
		Policy:        core.PolicyDynamic,
		WorkloadScale: 0.02,
		Invariants:    true,
		Faults:        faults,
	}
}

// TestCheckpointRoundTripIdentity is the tentpole guarantee at the sim
// layer: run fresh, then restore from a mid-run snapshot in a new System
// and run to completion — the results must be deep-equal, including
// every float. Swept across techniques and fault injection.
func TestCheckpointRoundTripIdentity(t *testing.T) {
	cells := []struct {
		name   string
		tech   Technique
		faults *fault.Spec
	}{
		{"none", TechNone, nil},
		{"ptb", TechPTB, nil},
		{"2level", Tech2Level, nil},
		{"maxbips", TechMaxBIPS, nil},
		{"spingate", TechPTBSpinGate, nil},
		{"ptb-faulted", TechPTB, &fault.Spec{Seed: 42, TokenDrop: 0.2, SensorNoise: 0.02}},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := ckptConfig(t, cell.tech, cell.faults)

			fresh, err := RunContext(context.Background(), cfg)
			if err != nil {
				t.Fatalf("fresh run: %v", err)
			}
			if fresh.Cycles < 2000 {
				t.Fatalf("run too short (%d cycles) to checkpoint mid-way", fresh.Cycles)
			}

			// Re-run with a plan that stops after one mid-run snapshot —
			// the deterministic "crash".
			plan := &ckpt.Plan{Every: fresh.Cycles / 2, Dir: dir, Key: cell.name, StopAfter: 1}
			cfg2 := cfg
			cfg2.Checkpoint = plan
			_, err = RunContext(context.Background(), cfg2)
			if !errors.Is(err, ckpt.ErrStopped) {
				t.Fatalf("crash drill: want ErrStopped, got %v", err)
			}

			snap, err := ckpt.ReadFile(plan.Path())
			if err != nil {
				t.Fatalf("reading snapshot: %v", err)
			}
			if snap.Cycle != fresh.Cycles/2 {
				t.Fatalf("snapshot at cycle %d, want %d", snap.Cycle, fresh.Cycles/2)
			}

			resumed, err := ResumeContext(context.Background(), cfg2, snap)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !reflect.DeepEqual(fresh, resumed) {
				t.Errorf("resumed result differs from uninterrupted run:\n fresh   %+v\n resumed %+v", fresh, resumed)
			}
		})
	}
}

// TestCheckpointLastCycleSnapshot pins the off-by-one edge: a snapshot
// written at the run's final cycle must resume into an immediate clean
// finish, not one extra Step.
func TestCheckpointLastCycleSnapshot(t *testing.T) {
	cfg := ckptConfig(t, TechPTB, nil)
	fresh, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plan := &ckpt.Plan{Every: fresh.Cycles, Dir: dir, Key: "last"}
	cfg2 := cfg
	cfg2.Checkpoint = plan
	ck, err := RunContext(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, ck) {
		t.Fatal("checkpointing changed the result")
	}
	snap, err := ckpt.ReadFile(plan.Path())
	if err != nil {
		t.Fatalf("no final-cycle snapshot: %v", err)
	}
	if snap.Cycle != fresh.Cycles {
		t.Fatalf("snapshot at %d, want final cycle %d", snap.Cycle, fresh.Cycles)
	}
	resumed, err := ResumeContext(context.Background(), cfg2, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, resumed) {
		t.Error("final-cycle resume diverged")
	}
}

// TestCheckpointPassive pins that an armed plan never changes results:
// checkpointed and plain runs are deep-equal.
func TestCheckpointPassive(t *testing.T) {
	cfg := ckptConfig(t, TechPTB, nil)
	fresh, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Checkpoint = &ckpt.Plan{Every: 2000, Dir: t.TempDir(), Key: "passive"}
	ck, err := RunContext(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, ck) {
		t.Fatal("periodic snapshots changed the result")
	}
}

// TestResumeRejectsMismatch: a snapshot from another run's state (or a
// tampered digest) must be rejected with ErrStateMismatch, and the
// caller can recover by running fresh.
func TestResumeRejectsMismatch(t *testing.T) {
	cfg := ckptConfig(t, TechPTB, nil)
	cfg.Checkpoint = &ckpt.Plan{Every: 3000, Dir: t.TempDir(), Key: "m", StopAfter: 1}
	_, err := RunContext(context.Background(), cfg)
	if !errors.Is(err, ckpt.ErrStopped) {
		t.Fatal(err)
	}
	snap, err := ckpt.ReadFile(cfg.Checkpoint.Path())
	if err != nil {
		t.Fatal(err)
	}
	snap.State[0] ^= 1
	if _, err := ResumeContext(context.Background(), cfg, snap); !errors.Is(err, ckpt.ErrStateMismatch) {
		t.Fatalf("tampered state digest: want ErrStateMismatch, got %v", err)
	}
	snap.State[0] ^= 1
	snap.Key = "someone-else"
	if _, err := ResumeContext(context.Background(), cfg, snap); !errors.Is(err, ckpt.ErrStateMismatch) {
		t.Fatalf("foreign key: want ErrStateMismatch, got %v", err)
	}
	// A snapshot claiming a cycle past the whole run must be rejected too.
	snap.Key = "m"
	snap.Cycle = 1 << 40
	if _, err := ResumeContext(context.Background(), cfg, snap); !errors.Is(err, ckpt.ErrStateMismatch) {
		t.Fatalf("cycle past run end: want ErrStateMismatch, got %v", err)
	}
}

// TestCheckpointWriteFailureDegrades: an unwritable snapshot dir latches
// CheckpointErr but the run itself completes with the right result.
func TestCheckpointWriteFailureDegrades(t *testing.T) {
	cfg := ckptConfig(t, TechNone, nil)
	fresh, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A file where the snapshot dir should be makes MkdirAll fail.
	bad := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Checkpoint = &ckpt.Plan{Every: 1000, Dir: filepath.Join(bad, "sub"), Key: "d"}
	s, err := NewSystem(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatalf("run must survive checkpoint I/O failure: %v", err)
	}
	if s.CheckpointErr() == nil {
		t.Fatal("write failure not latched")
	}
	if s.Snapshots() != 0 {
		t.Fatal("snapshots counted despite failure")
	}
	if !reflect.DeepEqual(fresh, res) {
		t.Fatal("degraded run changed the result")
	}
}
