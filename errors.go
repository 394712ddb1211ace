package ptbsim

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"ptbsim/internal/fault"
	"ptbsim/internal/invariant"
	"ptbsim/internal/workload"
)

// ErrBadFaultSpec is the sentinel wrapped by every FaultSpec validation
// and ParseFaultSpec error; branch with errors.Is.
var ErrBadFaultSpec = fault.ErrBadSpec

// ErrBadTelemetrySpec is the sentinel wrapped by every ParseTelemetrySpec,
// TelemetrySpec and Telemetry validation error; branch with errors.Is.
var ErrBadTelemetrySpec = errors.New("invalid telemetry spec")

// Canonical ErrBad* aliases: the flag parsers (ParseTechnique, ParsePolicy,
// ParseFaultSpec, ParseTelemetrySpec) all report errors of one shape —
// "ptbsim: <what is wrong> (valid: …)" wrapping an ErrBad* sentinel — and
// these aliases let callers branch on that family uniformly. They are the
// same error values as the older ErrUnknown* names, so existing errors.Is
// checks keep working.
var (
	// ErrBadTechnique aliases ErrUnknownTechnique.
	ErrBadTechnique = ErrUnknownTechnique
	// ErrBadPolicy aliases ErrUnknownPolicy.
	ErrBadPolicy = ErrUnknownPolicy
)

// ErrRunDeadline marks a submitted run that exceeded its per-submission
// deadline (SubmitOptions.Timeout; ptbserve's timeout_ms). The run is not
// retried: it fails with an error wrapping this sentinel.
var ErrRunDeadline = errors.New("run exceeded per-run deadline")

// ErrInvariantViolation is the sentinel wrapped by every error a
// CheckInvariants-enabled run returns when a runtime invariant fails; branch
// with errors.Is(err, ErrInvariantViolation). The error text lists each
// violated check with its cycle and a description.
var ErrInvariantViolation = invariant.ErrViolated

// Typed validation errors. Config.Validate, ParseTechnique and ParsePolicy
// return errors wrapping one of these sentinels, so callers can branch
// with errors.Is while still getting a descriptive message.
var (
	// ErrUnknownBenchmark marks a Config.Benchmark not in the Table-2
	// catalog (see Benchmarks).
	ErrUnknownBenchmark = errors.New("unknown benchmark")
	// ErrBadCores marks an unusable CMP size.
	ErrBadCores = errors.New("invalid core count")
	// ErrUnknownTechnique marks a Technique outside the evaluated set.
	ErrUnknownTechnique = errors.New("unknown technique")
	// ErrUnknownPolicy marks a Policy outside ToAll/ToOne/Dynamic.
	ErrUnknownPolicy = errors.New("unknown policy")
	// ErrBadScale marks a non-positive or non-finite WorkloadScale.
	ErrBadScale = errors.New("invalid workload scale")
	// ErrBadBudget marks a BudgetFrac outside (0, 1].
	ErrBadBudget = errors.New("invalid budget fraction")
	// ErrBadRelax marks a negative or non-finite RelaxFrac.
	ErrBadRelax = errors.New("invalid relax fraction")
	// ErrBadMaxCycles marks a negative cycle cap.
	ErrBadMaxCycles = errors.New("invalid max cycles")
	// ErrBadCluster marks a negative PTBClusterSize.
	ErrBadCluster = errors.New("invalid PTB cluster size")
)

// MaxCores is the largest CMP size Validate accepts. The paper evaluates
// 2–16 cores; the clustered balancer (§III.E.2) is exercised well past
// that, but the mesh layout and workload generators are only calibrated up
// to this bound.
const MaxCores = 256

// techniques is the canonical name set, in the paper's order.
var techniques = []Technique{None, DVFS, DFS, TwoLevel, PTB, PTBSpinGate, MaxBIPS}

// TechniqueNames lists the parsable technique names in the paper's order
// (for -help texts and error messages).
func TechniqueNames() []string {
	out := make([]string, len(techniques))
	for i, t := range techniques {
		out[i] = string(t)
	}
	return out
}

// ParseTechnique resolves a command-line technique name ("none", "dvfs",
// "dfs", "2level", "ptb", "ptbgate", "maxbips"; case-insensitive, with
// "twolevel" accepted as an alias). Unknown names return an error wrapping
// ErrUnknownTechnique listing the valid set.
func ParseTechnique(s string) (Technique, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	if name == "twolevel" {
		name = string(TwoLevel)
	}
	for _, t := range techniques {
		if name == string(t) {
			return t, nil
		}
	}
	return "", fmt.Errorf("ptbsim: %w %q (valid: %s)",
		ErrUnknownTechnique, s, strings.Join(TechniqueNames(), ", "))
}

// PolicyNames lists the parsable PTB policy names.
func PolicyNames() []string { return []string{"toall", "toone", "dynamic"} }

// ParsePolicy resolves a command-line PTB policy name ("toall", "toone",
// "dynamic"; case-insensitive). Unknown names return an error wrapping
// ErrUnknownPolicy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "toall":
		return ToAll, nil
	case "toone":
		return ToOne, nil
	case "dynamic":
		return Dynamic, nil
	}
	return 0, fmt.Errorf("ptbsim: %w %q (valid: %s)",
		ErrUnknownPolicy, s, strings.Join(PolicyNames(), ", "))
}

// Validate checks every Config field against the simulator's domain and
// returns an error wrapping the matching sentinel (ErrUnknownBenchmark,
// ErrBadCores, …) for the first violation. Zero values that select
// documented defaults (Cores, Technique, BudgetFrac, WorkloadScale,
// MaxCycles) are valid.
func (c Config) Validate() error {
	if _, ok := workload.ByName(c.Benchmark); !ok {
		return fmt.Errorf("ptbsim: %w %q (see Benchmarks or `ptbsim -list`)", ErrUnknownBenchmark, c.Benchmark)
	}
	if c.Cores < 0 || c.Cores > MaxCores {
		return fmt.Errorf("ptbsim: %w %d (want 1–%d, or 0 for the default 4)", ErrBadCores, c.Cores, MaxCores)
	}
	if c.Technique != "" {
		if _, err := ParseTechnique(string(c.Technique)); err != nil {
			return err
		}
	}
	switch c.Policy {
	case ToAll, ToOne, Dynamic:
	default:
		return fmt.Errorf("ptbsim: %w %d", ErrUnknownPolicy, int(c.Policy))
	}
	if c.WorkloadScale < 0 || math.IsNaN(c.WorkloadScale) || math.IsInf(c.WorkloadScale, 0) {
		return fmt.Errorf("ptbsim: %w %v (want > 0, or 0 for the default 1.0)", ErrBadScale, c.WorkloadScale)
	}
	if c.BudgetFrac < 0 || c.BudgetFrac > 1 || math.IsNaN(c.BudgetFrac) {
		return fmt.Errorf("ptbsim: %w %v (want a fraction of peak in (0, 1], or 0 for the default 0.5)", ErrBadBudget, c.BudgetFrac)
	}
	if c.RelaxFrac < 0 || math.IsNaN(c.RelaxFrac) || math.IsInf(c.RelaxFrac, 0) {
		return fmt.Errorf("ptbsim: %w %v (want ≥ 0, e.g. 0.2 = trigger 20%% above the budget)", ErrBadRelax, c.RelaxFrac)
	}
	if c.MaxCycles < 0 {
		return fmt.Errorf("ptbsim: %w %d", ErrBadMaxCycles, c.MaxCycles)
	}
	if c.PTBClusterSize < 0 {
		return fmt.Errorf("ptbsim: %w %d", ErrBadCluster, c.PTBClusterSize)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	if c.Observe != nil {
		if err := c.Observe.validate(); err != nil {
			return err
		}
	}
	return nil
}
