package sim

import (
	"context"
	"errors"
	"fmt"
	"os"

	"ptbsim/internal/budget"
	"ptbsim/internal/ckpt"
	"ptbsim/internal/core"
	"ptbsim/internal/metrics"
)

// Checkpoint/restore (DESIGN.md §14). The simulator is deterministic —
// every run is a pure function of its config — so a snapshot does not
// serialize the object graph (live state is full of closures: pending
// events, MSHR completion callbacks, pooled records). It records the
// run's identity, the exact cycle, and a digest over every mutable
// result-determining component. Restore rebuilds the system from the
// config, replays to the snapshot cycle, verifies the recomputed digest
// against the stored one, and continues — so restore-then-run-to-end is
// byte-identical to an uninterrupted run by construction, and the digest
// attests that the reconstruction was faithful (a code or config skew
// between writer and reader surfaces as ckpt.ErrStateMismatch, never as
// a silently different result).

// StateHash digests every mutable result-determining component of the
// system: cores (ROB, fetch pipe, predictor, PTHT), workload generators
// (rng streams, branch patterns), caches and directory, mesh, memory,
// event queue schedule, power meter ledger, budget state, the active
// controller (balancer ledger and in-flight token batches included),
// collector, thermal model, sync table, and the fault engine's rng
// streams. Telemetry (obs) is deliberately excluded: it is
// result-neutral, not part of the stable config schema, and a resumed
// run may attach a different observer; replay reconstructs its cursor.
func (s *System) StateHash() [32]byte {
	h := ckpt.NewHasher()
	h.WriteI64(s.cycle)
	h.WriteI64(s.fastCycles)
	h.WriteBool(s.hitMax)
	s.q.HashState(h)
	for _, c := range s.cores {
		c.HashState(h)
	}
	for _, g := range s.gens {
		g.HashState(h)
	}
	s.hier.HashState(h)
	s.net.HashState(h)
	s.meter.HashState(h)
	s.st.HashState(h)
	hashController(h, s.ctl)
	s.col.HashState(h)
	s.therm.HashState(h)
	s.sync.HashState(h)
	s.faults.HashState(h)
	s.sensor.HashState(h)
	return h.Sum()
}

// hashController dispatches over the concrete controller types wired by
// NewSystem. Shared by the chip-wide switch and the balancers' inner
// controllers.
func hashController(h *ckpt.Hasher, ctl budget.Controller) {
	switch c := ctl.(type) {
	case budget.None:
		c.HashState(h)
	case *budget.DVFSController:
		c.HashState(h)
	case *budget.TwoLevel:
		c.HashState(h)
	case *budget.MaxBIPS:
		c.HashState(h)
	case *core.Balancer:
		c.HashState(h)
	case *core.ClusteredBalancer:
		c.HashState(h)
	case *core.SpinGate:
		c.HashState(h)
	}
}

// tickCheckpoint runs at the end of every Step while a plan is armed. A
// write failure latches ckErr and disables further snapshots — the run
// itself never fails on checkpoint I/O (degraded, never wrong).
func (s *System) tickCheckpoint() {
	if s.ckErr != nil || s.cycle < s.ckNext {
		return
	}
	s.ckNext = s.cycle + s.ck.Every
	snap := &ckpt.Snapshot{
		Key:    s.ck.Key,
		Config: s.ck.Config,
		Cycle:  s.cycle,
		State:  s.StateHash(),
	}
	if err := ckpt.WriteFile(s.ck.Path(), snap); err != nil {
		s.ckErr = fmt.Errorf("sim: checkpointing disabled: %w", err)
		return
	}
	s.ckWritten++
	if s.ck.StopAfter > 0 && s.ckWritten >= s.ck.StopAfter {
		s.ckStop = true
	}
}

// CheckpointErr reports the latched snapshot-write failure, if any. A
// non-nil error means the run completed correctly but stopped writing
// snapshots at some point.
func (s *System) CheckpointErr() error { return s.ckErr }

// Snapshots reports how many snapshots this process wrote for the run.
func (s *System) Snapshots() int { return s.ckWritten }

// ResumeContext restores a run from snap and completes it: it builds a
// fresh system from cfg, deterministically replays to snap.Cycle,
// verifies the recomputed state digest against the snapshot, and then
// finishes the run exactly as an uninterrupted RunContext would. The
// returned result is byte-identical to a fresh run's.
//
// Failures are typed: a snapshot whose key disagrees with the plan's, or
// whose replayed state diverges (code skew between snapshot writer and
// reader), wraps ckpt.ErrStateMismatch — callers fall back to
// recomputing from scratch.
func ResumeContext(ctx context.Context, cfg Config, snap *ckpt.Snapshot) (*metrics.RunResult, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if s.ck != nil && snap.Key != s.ck.Key {
		return nil, fmt.Errorf("sim: %w: snapshot is for a different run (key %q)",
			ckpt.ErrStateMismatch, snap.Key)
	}
	if snap.Cycle < 1 {
		return nil, fmt.Errorf("sim: %w: snapshot cycle %d", ckpt.ErrStateMismatch, snap.Cycle)
	}
	// Disarm the plan during replay: the prefix's snapshots already exist,
	// and a crash-drill StopAfter must count only post-resume snapshots.
	plan := s.ck
	s.ck = nil
	for s.cycle < snap.Cycle {
		s.Step()
		if s.cycle >= snap.Cycle {
			break
		}
		if s.done() || s.cycle >= s.cfg.MaxCycles {
			return nil, fmt.Errorf("sim: %w: run ends at cycle %d, before the snapshot cycle %d",
				ckpt.ErrStateMismatch, s.cycle, snap.Cycle)
		}
		if s.cycle%cancelCheckCycles == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sim: %s/%d/%s resume cancelled at cycle %d: %w",
					s.cfg.Benchmark.Name, s.cfg.Cores, s.cfg.Technique, s.cycle, err)
			}
		}
	}
	if got := s.StateHash(); got != snap.State {
		return nil, fmt.Errorf("sim: %w: replayed state diverges at cycle %d (snapshot written by a different build or config?)",
			ckpt.ErrStateMismatch, snap.Cycle)
	}
	if plan != nil {
		// Keep snapshotting on the original cadence, but drop the
		// crash-drill knob: StopAfter simulates the first crash; a resumed
		// run must complete.
		rearmed := *plan
		rearmed.StopAfter = 0
		s.ck = &rearmed
		s.ckNext = snap.Cycle + plan.Every
	}
	return s.runFrom(ctx, true)
}

// RunOrResumeContext is the crash-recovery front door over RunContext:
// with a checkpoint plan armed it resumes from the plan's snapshot when
// a usable one exists, falls back to a fresh (still-snapshotting) run
// when the snapshot is missing, corrupt, version-skewed or mismatched,
// and deletes the snapshot once the run completes — the result is the
// durable artifact; the snapshot has served its purpose. Without a plan
// it is exactly RunContext.
func RunOrResumeContext(ctx context.Context, cfg Config) (*metrics.RunResult, error) {
	plan := cfg.Checkpoint
	if plan == nil || plan.Every <= 0 {
		return RunContext(ctx, cfg)
	}
	if snap, err := ckpt.ReadFile(plan.Path()); err == nil && snap.Key == plan.Key {
		res, rerr := ResumeContext(ctx, cfg, snap)
		if rerr == nil {
			_ = os.Remove(plan.Path())
			return res, nil
		}
		if !errors.Is(rerr, ckpt.ErrStateMismatch) {
			// Cancellation, invariant violations, the crash drill — real run
			// outcomes, not snapshot problems.
			return nil, rerr
		}
		// Mismatched snapshot (writer/reader skew): recompute from scratch.
	}
	// No snapshot, an unreadable one, or a mismatched one. The fresh run
	// overwrites the stale file on its first period, so a bad snapshot can
	// never wedge the configuration.
	res, err := RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	_ = os.Remove(plan.Path())
	return res, nil
}
