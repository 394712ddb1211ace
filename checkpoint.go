package ptbsim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ptbsim/internal/ckpt"
	"ptbsim/internal/sim"
)

// Checkpoint configures periodic crash-recovery snapshots for a run
// (DESIGN.md §14). Every Every cycles the simulator writes an atomic,
// checksummed, versioned snapshot into Dir; if the process dies, the
// next run of the same configuration resumes from the latest snapshot
// and produces a byte-identical Result — restore-then-run-to-end equals
// an uninterrupted run, digest for digest. Snapshots are passive: a
// checkpointed run's results are bit-identical to a plain run's, and a
// corrupt, version-skewed or mismatched snapshot falls back to
// recomputing from scratch (degraded, never wrong).
//
// Like Observe, Checkpoint is excluded from experiment cache keys and
// from the stable Config wire schema — it changes where work is saved,
// never what is computed.
type Checkpoint struct {
	// Every is the snapshot period in cycles. <= 0 disables.
	Every int64
	// Dir is the snapshot directory (created on first write).
	Dir string
	// StopAfter, when > 0, deliberately aborts the run with ErrRunStopped
	// right after the Nth snapshot — a deterministic "crash" for resume
	// tests and CI drills. Resumed runs ignore it.
	StopAfter int
}

// Typed snapshot errors, re-exported from the checkpoint layer so
// callers can match them without importing internals.
var (
	// ErrSnapshotCorrupt marks a snapshot failing structural validation
	// (truncated, bit-flipped, bad checksum). Recoverable: rerun fresh.
	ErrSnapshotCorrupt = ckpt.ErrCorrupt
	// ErrSnapshotVersion marks a snapshot from another schema generation.
	ErrSnapshotVersion = ckpt.ErrVersion
	// ErrSnapshotMismatch marks a structurally valid snapshot that does
	// not match the run (different config, or writer/reader code skew).
	ErrSnapshotMismatch = ckpt.ErrStateMismatch
	// ErrRunStopped reports the deliberate Checkpoint.StopAfter abort.
	ErrRunStopped = ckpt.ErrStopped
	// ErrBadCheckpointSpec rejects malformed -checkpoint flag values.
	ErrBadCheckpointSpec = errors.New("ptbsim: bad checkpoint spec")
)

// plan builds the internal snapshot plan for cfg. The run key — and
// hence the snapshot file name — is the stable config wire JSON, which
// contains exactly the result-determining fields (Observe and Checkpoint
// itself are excluded by construction), so equivalent
// runs share snapshots and different runs never collide.
func (ck *Checkpoint) plan(cfg Config) (*ckpt.Plan, error) {
	if ck == nil || ck.Every <= 0 {
		return nil, nil
	}
	if ck.Dir == "" {
		return nil, fmt.Errorf("%w: checkpointing needs a directory", ErrBadCheckpointSpec)
	}
	key, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("ptbsim: checkpoint key: %w", err)
	}
	return &ckpt.Plan{
		Every:     ck.Every,
		Dir:       ck.Dir,
		Key:       string(key),
		Config:    key,
		StopAfter: ck.StopAfter,
	}, nil
}

// runWithCheckpoint is RunContext's checkpoint-aware body: resume from
// the latest usable snapshot when one exists, otherwise run fresh with
// periodic snapshots armed; delete the snapshot once the run completes
// (it has served its purpose — the result is the durable artifact).
func runWithCheckpoint(ctx context.Context, icfg sim.Config, plan *ckpt.Plan) (*Result, error) {
	icfg.Checkpoint = plan
	res, err := sim.RunOrResumeContext(ctx, icfg)
	if err != nil {
		return nil, err
	}
	return fromMetrics(res), nil
}

// ResumeContext restores the run saved in the snapshot file at path and
// completes it, continuing periodic snapshots every every cycles (0
// disables further snapshots). Snapshots are self-describing — the full
// configuration rides inside — so this needs nothing but the file.
//
// Unlike the automatic resume inside RunContext, this explicit entry
// point fails loudly: a corrupt file returns ErrSnapshotCorrupt, a
// version-skewed one ErrSnapshotVersion, and a snapshot whose replay
// diverges ErrSnapshotMismatch, instead of silently recomputing.
func ResumeContext(ctx context.Context, path string, every int64) (*Result, error) {
	snap, err := ckpt.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(snap.Config, &cfg); err != nil {
		return nil, fmt.Errorf("%w: embedded config: %v", ErrSnapshotCorrupt, err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: embedded config: %v", ErrSnapshotCorrupt, err)
	}
	icfg, err := cfg.internal()
	if err != nil {
		return nil, err
	}
	if every > 0 {
		ck := &Checkpoint{Every: every, Dir: dirOf(path)}
		plan, err := ck.plan(cfg)
		if err != nil {
			return nil, err
		}
		icfg.Checkpoint = plan
	}
	res, err := sim.ResumeContext(ctx, icfg, snap)
	if err != nil {
		return nil, err
	}
	if every > 0 {
		_ = os.Remove(icfg.Checkpoint.Path())
	}
	return fromMetrics(res), nil
}

func dirOf(path string) string {
	if i := strings.LastIndexByte(path, os.PathSeparator); i > 0 {
		return path[:i]
	}
	return "."
}

// CheckpointSpec is the parsed form of the CLI tools' -checkpoint flag.
type CheckpointSpec struct {
	// Every is the snapshot period in cycles (0 = DefaultCheckpointEvery).
	Every int64
	// Dir is the snapshot directory (required).
	Dir string
	// Stop aborts after the Nth snapshot (crash drill; 0 = never).
	Stop int
}

// DefaultCheckpointEvery is the snapshot cadence when the -checkpoint
// flag names a directory but no period: frequent enough that little work
// is lost, rare enough that snapshot hashing is invisible in profiles.
const DefaultCheckpointEvery int64 = 1_000_000

// ParseCheckpointSpec builds a CheckpointSpec from a comma-separated
// key=value list, the syntax the CLI tools accept for their -checkpoint
// flag:
//
//	"dir=ckpt"
//	"every=500000,dir=/var/lib/ptbsim/ckpt"
//	"every=2000,dir=ckpt,stop=3"   (crash drill)
//
// Keys: dir (required), every, stop. Unknown or repeated keys and
// malformed values return an error wrapping ErrBadCheckpointSpec.
func ParseCheckpointSpec(in string) (CheckpointSpec, error) {
	var s CheckpointSpec
	if strings.TrimSpace(in) == "" {
		return CheckpointSpec{}, fmt.Errorf("%w: empty spec (need at least dir=...)", ErrBadCheckpointSpec)
	}
	seen := make(map[string]bool)
	for _, part := range strings.Split(in, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return CheckpointSpec{}, fmt.Errorf("%w: empty clause in %q", ErrBadCheckpointSpec, in)
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return CheckpointSpec{}, fmt.Errorf("%w: clause %q is not key=value", ErrBadCheckpointSpec, part)
		}
		k, v = strings.ToLower(strings.TrimSpace(k)), strings.TrimSpace(v)
		if seen[k] {
			return CheckpointSpec{}, fmt.Errorf("%w: repeated key %q", ErrBadCheckpointSpec, k)
		}
		seen[k] = true
		switch k {
		case "every":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n <= 0 {
				return CheckpointSpec{}, fmt.Errorf("%w: every=%q (want a positive cycle count)", ErrBadCheckpointSpec, v)
			}
			s.Every = n
		case "dir":
			s.Dir = v
		case "stop":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return CheckpointSpec{}, fmt.Errorf("%w: stop=%q (want a non-negative snapshot count)", ErrBadCheckpointSpec, v)
			}
			s.Stop = n
		default:
			return CheckpointSpec{}, fmt.Errorf("%w: unknown key %q (valid: every, dir, stop)", ErrBadCheckpointSpec, k)
		}
	}
	if s.Dir == "" {
		return CheckpointSpec{}, fmt.Errorf("%w: missing dir=", ErrBadCheckpointSpec)
	}
	return s, nil
}

// String renders the spec in ParseCheckpointSpec's syntax.
func (s CheckpointSpec) String() string {
	var parts []string
	if s.Every != 0 {
		parts = append(parts, "every="+strconv.FormatInt(s.Every, 10))
	}
	if s.Dir != "" {
		parts = append(parts, "dir="+s.Dir)
	}
	if s.Stop != 0 {
		parts = append(parts, "stop="+strconv.Itoa(s.Stop))
	}
	return strings.Join(parts, ",")
}

// Checkpoint converts the spec to the Config field, applying the default
// cadence.
func (s CheckpointSpec) Checkpoint() *Checkpoint {
	every := s.Every
	if every == 0 {
		every = DefaultCheckpointEvery
	}
	return &Checkpoint{Every: every, Dir: s.Dir, StopAfter: s.Stop}
}

// CheckpointFlag is a flag.Value for -checkpoint. Spec stays nil until
// the flag is set.
type CheckpointFlag struct {
	Spec *CheckpointSpec
}

// String implements flag.Value.
func (f *CheckpointFlag) String() string {
	if f == nil || f.Spec == nil {
		return ""
	}
	return f.Spec.String()
}

// Set implements flag.Value via ParseCheckpointSpec.
func (f *CheckpointFlag) Set(in string) error {
	s, err := ParseCheckpointSpec(in)
	if err != nil {
		return err
	}
	f.Spec = &s
	return nil
}
