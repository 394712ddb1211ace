// Package ptbsim is a cycle-level chip-multiprocessor simulator built to
// reproduce "Power Token Balancing: Adapting CMPs to Power Constraints for
// Parallel Multithreaded Workloads" (Cebrián, Aragón, Kaxiras — IEEE IPDPS
// 2011).
//
// The library simulates a homogeneous CMP of out-of-order cores (Table 1 of
// the paper) over a MOESI directory protocol and a 2D-mesh NoC, executing
// synthetic reactive versions of the SPLASH-2/PARSEC workloads the paper
// evaluates, under a configurable global power budget enforced by one of
// the studied techniques: DVFS, DFS, the two-level hybrid, or Power Token
// Balancing (PTB) with the ToAll/ToOne/Dynamic distribution policies.
//
// Quick start:
//
//	r, err := ptbsim.RunContext(ctx, ptbsim.Config{
//		Benchmark: "ocean",
//		Cores:     8,
//		Technique: ptbsim.PTB,
//		Policy:    ptbsim.Dynamic,
//	})
//
// Results report the paper's metrics: total energy, Area over the Power
// Budget (AoPB), performance, the execution-time breakdown, spinning power
// and temperature statistics. Normalization helpers compare a run against
// its no-control base case exactly as the paper's figures do.
//
// The paper's evaluation is a large cross-product (14 benchmarks ×
// {2,4,8,16} cores × 7 techniques × 3 policies); NewExperiment runs such
// sweeps on a bounded worker pool with caching, single-flight
// deduplication, cancellation and streaming progress — see Experiment and
// Sweep.
package ptbsim

// The committed regression artifacts are regenerated with `go generate .`
// (or `make golden`): the golden per-run digest matrix that golden_test.go
// diffs against, and the full paper-table sweep in results_sweep.txt.
// Regenerate them only when an intentional modeling change shifts the
// numbers, and review the diff like source.
//
//go:generate go run ./cmd/ptbgolden -q -o testdata/golden/matrix_scale025.txt
//go:generate go run ./cmd/ptbgolden -q -cores 64,256 -benches ocean,fft -techs none,ptb -cluster 16 -scale 0.01 -o testdata/golden/matrix_bigchip.txt
//go:generate go run ./cmd/ptbsweep -exp all -scale 0.25 -q -o results_sweep.txt

import (
	"context"
	"fmt"

	"ptbsim/internal/core"
	"ptbsim/internal/metrics"
	"ptbsim/internal/sim"
	"ptbsim/internal/workload"
)

// Technique selects the power-budget enforcement mechanism.
type Technique string

// The techniques evaluated in the paper (§III.C, §III.E).
const (
	// None runs without power control (the normalization base case).
	None Technique = "none"
	// DVFS is the five-mode voltage/frequency governor.
	DVFS Technique = "dvfs"
	// DFS scales frequency only.
	DFS Technique = "dfs"
	// TwoLevel combines DVFS with per-cycle microarchitectural throttling.
	TwoLevel Technique = "2level"
	// PTB is Power Token Balancing layered over the two-level technique.
	PTB Technique = "ptb"
	// PTBSpinGate extends PTB with the paper's future-work idea: cores the
	// power-pattern detector flags as spinning are duty-cycle sleep-gated
	// for extra energy savings.
	PTBSpinGate Technique = "ptbgate"
	// MaxBIPS is the Isci et al. related-work baseline: global DVFS mode
	// selection maximizing counter-measured throughput under the budget.
	// Included to demonstrate §II.C's argument that counter-driven global
	// management misfires on parallel workloads (spinning looks like
	// useful throughput).
	MaxBIPS Technique = "maxbips"
)

// Policy selects how PTB distributes spare tokens (§III.E.1, §IV.B).
type Policy int

// The distribution policies.
const (
	// ToAll splits spare tokens among all over-budget cores.
	ToAll Policy = iota
	// ToOne gives all spare tokens to the neediest core.
	ToOne
	// Dynamic switches by spinning type: locks→ToOne, barriers→ToAll.
	Dynamic
)

// String names the policy as in the paper's figures.
func (p Policy) String() string { return p.internal().String() }

func (p Policy) internal() core.Policy {
	switch p {
	case ToOne:
		return core.PolicyToOne
	case Dynamic:
		return core.PolicyDynamic
	default:
		return core.PolicyToAll
	}
}

// Config describes one simulation. Its JSON form, set by the field tags,
// is also the Experiment cache key, the ptbserve journal ID and, hashed,
// the result-store file name, so a field that can change a Result has a
// wire name and one that cannot is tagged "-" (see json.go).
type Config struct {
	// Benchmark names a Table-2 workload (see Benchmarks).
	Benchmark string `json:"benchmark"`
	// Cores is the CMP size (2–16 in the paper; default 4).
	Cores int `json:"cores,omitempty"`
	// Technique is the budget mechanism (default None).
	Technique Technique `json:"technique,omitempty"`
	// Policy applies to PTB runs.
	Policy Policy `json:"policy,omitempty"`
	// RelaxFrac relaxes the trigger threshold (§IV.C): 0.20 = trigger only
	// 20% above the budget, trading accuracy for energy.
	RelaxFrac float64 `json:"relax_frac,omitempty"`
	// BudgetFrac is the global budget as a fraction of rated peak power
	// (default 0.5, the paper's headline configuration).
	BudgetFrac float64 `json:"budget_frac,omitempty"`
	// WorkloadScale shortens the run (1.0 = Table-2 working set).
	WorkloadScale float64 `json:"workload_scale,omitempty"`
	// MaxCycles is a safety cap (default 50M cycles).
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// PessimisticPTBLatency uses the 10-cycle worst-case token transfer
	// the paper also evaluates.
	PessimisticPTBLatency bool `json:"pessimistic_ptb_latency,omitempty"`
	// PTBClusterSize, when >0, uses per-cluster balancers of that many
	// cores instead of one chip-wide balancer (the paper's §III.E.2
	// scalability scheme for large CMPs).
	PTBClusterSize int `json:"ptb_cluster_size,omitempty"`
	// CheckInvariants enables the runtime invariant layer: conservation-law
	// and consistency checks (power-token conservation, energy-accounting
	// identity, MOESI directory legality, queue occupancy bounds, NoC flit
	// conservation, budget-state sanity) evaluated periodically during the
	// run and once more at the end. A violation fails the run with an error
	// wrapping ErrInvariantViolation. Disabled runs pay one nil comparison
	// per simulated cycle.
	CheckInvariants bool `json:"check_invariants,omitempty"`
	// Faults, when non-nil, injects deterministic faults into the run: PTB
	// token-message loss/delay/duplication, NoC link stalls and flit
	// corruption, power-sensor noise and drift, DVFS transition glitches —
	// see FaultSpec. A nil spec and the zero spec both run the ideal
	// machine, bit-identically. Faults compose with CheckInvariants: every
	// conservation invariant keeps holding under injection.
	Faults *FaultSpec `json:"faults,omitempty"`
	// IntraParallel is ignored: every run steps its cores serially.
	//
	// Deprecated: intra-run tile parallelism was removed (DESIGN.md §13).
	// The field stays only so existing callers keep compiling.
	IntraParallel int `json:"-"`
	// Observe, when non-nil, enables epoch-sampled telemetry: every
	// Observe.Every cycles the run records one Sample (per-core power and
	// token views, DVFS mode residency, sync-class occupancy, the PTB
	// token ledger, NoC and cache pressure) and streams it to
	// Observe.Observer. Observation is passive — results and digests are
	// bit-identical with it on or off — and a nil Observe costs one nil
	// check per cycle. It holds live sinks, so it has no wire form. See
	// Telemetry and the bundled observers.
	Observe *Telemetry `json:"-"`
	// Checkpoint is ignored: runs are never snapshotted mid-run.
	//
	// Deprecated: mid-run checkpoints were removed (DESIGN.md §14). The
	// field stays only so existing callers keep compiling.
	Checkpoint *Checkpoint `json:"-"`
}

// Checkpoint is the type of the ignored Config.Checkpoint field.
//
// Deprecated: mid-run checkpoints were removed (DESIGN.md §14).
type Checkpoint struct{}

func (c Config) internal() (sim.Config, error) {
	spec, ok := workload.ByName(c.Benchmark)
	if !ok {
		return sim.Config{}, fmt.Errorf("ptbsim: unknown benchmark %q", c.Benchmark)
	}
	cfg := sim.Config{
		Benchmark:      spec,
		Cores:          c.Cores,
		Technique:      sim.Technique(c.Technique),
		Policy:         c.Policy.internal(),
		RelaxFrac:      c.RelaxFrac,
		BudgetFrac:     c.BudgetFrac,
		WorkloadScale:  c.WorkloadScale,
		MaxCycles:      c.MaxCycles,
		PTBClusterSize: c.PTBClusterSize,
		Invariants:     c.CheckInvariants,
		Faults:         c.Faults,
	}
	if c.Technique == "" {
		cfg.Technique = sim.TechNone
	}
	if c.PessimisticPTBLatency {
		lat := core.PessimisticLatency()
		cfg.PTBLatency = &lat
	}
	cfg.Observe = c.Observe.internal()
	return cfg, nil
}

// Result summarizes one run with the paper's metrics. Its JSON form is the
// field tags followed by a self-verifying "digest" (see json.go).
type Result struct {
	Benchmark string    `json:"benchmark"`
	Cores     int       `json:"cores"`
	Technique Technique `json:"technique"`
	Policy    string    `json:"policy,omitempty"`

	// Cycles is the parallel-phase runtime; Committed the instructions
	// retired across all cores.
	Cycles    int64 `json:"cycles"`
	Committed int64 `json:"committed"`

	// EnergyJ is total chip energy; AoPBJ the area over the power budget
	// (Fig. 1), both in joules.
	EnergyJ float64 `json:"energy_j"`
	AoPBJ   float64 `json:"aopb_j"`

	// BudgetPJ is the global per-cycle power budget in picojoules — the
	// line AoPBJ integrates over and telemetry samples carry, reported here
	// so tooling never has to rebuild the system to learn it.
	BudgetPJ float64 `json:"budget_pj"`

	// MeanPowerW and StdPowerW characterize the chip power trace.
	MeanPowerW float64 `json:"mean_power_w"`
	StdPowerW  float64 `json:"std_power_w"`

	// BusyFrac/LockAcqFrac/LockRelFrac/BarrierFrac are the Fig. 3
	// execution-time breakdown; SpinEnergyFrac the Fig. 4 spinning power
	// share.
	BusyFrac       float64 `json:"busy_frac"`
	LockAcqFrac    float64 `json:"lock_acq_frac"`
	LockRelFrac    float64 `json:"lock_rel_frac"`
	BarrierFrac    float64 `json:"barrier_frac"`
	SpinEnergyFrac float64 `json:"spin_energy_frac"`

	// OverBudgetFrac is the fraction of cycles the chip exceeded the
	// budget.
	OverBudgetFrac float64 `json:"over_budget_frac"`

	// MeanTempC and StdTempC summarize the lumped-RC thermal model.
	MeanTempC float64 `json:"mean_temp_c"`
	StdTempC  float64 `json:"std_temp_c"`

	// HitMaxCycles marks a truncated run.
	HitMaxCycles bool `json:"hit_max_cycles,omitempty"`

	// ComponentJ breaks total energy down by structure group (frontend,
	// execute, caches, noc, dram, power-mgmt, clock, leakage), in joules.
	ComponentJ map[string]float64 `json:"component_j,omitempty"`

	// TokenDonatedPJ/TokenGrantedPJ/TokenDiscardedPJ are the PTB balancer's
	// token-flow ledger in picojoules (zero for non-PTB techniques), and
	// BalanceRounds the number of balancing rounds run. Conservation —
	// donated = granted + discarded once the run drains — is one of the
	// checked invariants.
	TokenDonatedPJ   float64 `json:"token_donated_pj"`
	TokenGrantedPJ   float64 `json:"token_granted_pj"`
	TokenDiscardedPJ float64 `json:"token_discarded_pj"`
	BalanceRounds    int64   `json:"balance_rounds"`

	// CohGetS/CohGetX/CohPut/CohFwd/CohInv count coherence transactions
	// across all home directory banks.
	CohGetS int64 `json:"coh_gets"`
	CohGetX int64 `json:"coh_getx"`
	CohPut  int64 `json:"coh_put"`
	CohFwd  int64 `json:"coh_fwd"`
	CohInv  int64 `json:"coh_inv"`

	// NoCMessages and NoCFlits count mesh messages injected and flit-link
	// traversals.
	NoCMessages int64 `json:"noc_msgs"`
	NoCFlits    int64 `json:"noc_flits"`

	// Fault-injection telemetry, all zero when Config.Faults is nil or the
	// zero spec. None of these fields enter Digest — the digest format is
	// pinned by the committed golden matrix.

	// Degraded marks a run in which the PTB balancer left ideal operation:
	// a token batch was lost past the retry bound, or the stale-token
	// watchdog fell back to a core's static share.
	Degraded bool `json:"degraded,omitempty"`
	// FaultsInjected counts every fault decision that fired, all domains.
	FaultsInjected int64 `json:"faults_injected,omitempty"`
	// TokenLostPJ and TokenDupPJ extend the token ledger under injection:
	// energy of batches lost past the retry bound, and extra energy from
	// duplicated batches (conservation becomes donated + dup = granted +
	// discarded + lost once the run drains).
	TokenLostPJ float64 `json:"token_lost_pj,omitempty"`
	TokenDupPJ  float64 `json:"token_dup_pj,omitempty"`
	// TokenRetries counts token-batch retransmissions, TokenReportsLost
	// lost core→balancer report messages, and StaleFallbackCycles the
	// core-cycles the watchdog spent on the static-share fallback.
	TokenRetries        int64 `json:"token_retries,omitempty"`
	TokenReportsLost    int64 `json:"token_reports_lost,omitempty"`
	StaleFallbackCycles int64 `json:"stale_fallback_cycles,omitempty"`
	// NoCStallCycles and NoCRetransmits tally injected link faults.
	NoCStallCycles int64 `json:"noc_stall_cycles,omitempty"`
	NoCRetransmits int64 `json:"noc_retransmits,omitempty"`
	// DVFSGlitches counts failed DVFS mode transitions.
	DVFSGlitches int64 `json:"dvfs_glitches,omitempty"`
}

func fromMetrics(r *metrics.RunResult) *Result {
	return &Result{
		Benchmark:      r.Benchmark,
		Cores:          r.Cores,
		Technique:      Technique(r.Technique),
		Policy:         r.Policy,
		Cycles:         r.Cycles,
		Committed:      r.Committed,
		EnergyJ:        r.EnergyJ,
		AoPBJ:          r.AoPBJ,
		BudgetPJ:       r.BudgetPJ,
		MeanPowerW:     r.MeanPowerW,
		StdPowerW:      r.StdPowerW,
		BusyFrac:       r.ClassFrac[0],
		LockAcqFrac:    r.ClassFrac[1],
		LockRelFrac:    r.ClassFrac[2],
		BarrierFrac:    r.ClassFrac[3],
		SpinEnergyFrac: r.SpinEnergyFrac,
		OverBudgetFrac: r.OverBudgetFrac,
		MeanTempC:      r.MeanTempC,
		StdTempC:       r.StdTempC,
		HitMaxCycles:   r.HitMaxCycles,
		ComponentJ:     r.ComponentJ,

		TokenDonatedPJ:   r.TokenDonatedPJ,
		TokenGrantedPJ:   r.TokenGrantedPJ,
		TokenDiscardedPJ: r.TokenDiscardedPJ,
		BalanceRounds:    r.BalanceRounds,
		CohGetS:          r.CohGetS,
		CohGetX:          r.CohGetX,
		CohPut:           r.CohPut,
		CohFwd:           r.CohFwd,
		CohInv:           r.CohInv,
		NoCMessages:      r.NoCMessages,
		NoCFlits:         r.NoCFlits,

		Degraded:            r.Degraded,
		FaultsInjected:      r.FaultsInjected,
		TokenLostPJ:         r.TokenLostPJ,
		TokenDupPJ:          r.TokenDupPJ,
		TokenRetries:        r.TokenRetries,
		TokenReportsLost:    r.TokenReportsLost,
		StaleFallbackCycles: r.StaleFallbackCycles,
		NoCStallCycles:      r.NoCStallCycles,
		NoCRetransmits:      r.NoCRetransmits,
		DVFSGlitches:        r.DVFSGlitches,
	}
}

// RunContext executes one simulation to completion, or until ctx ends —
// cancellation is polled inside the cycle loop, so a cancelled run returns
// within microseconds with an error wrapping ctx.Err(). The config is
// validated first (see Config.Validate for the typed errors).
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	icfg, err := cfg.internal()
	if err != nil {
		return nil, err
	}
	res, err := sim.RunContext(ctx, icfg)
	if err != nil {
		return nil, err
	}
	return fromMetrics(res), nil
}

// EDP returns the run's energy-delay product in joule-seconds.
func (r *Result) EDP() float64 {
	return r.EnergyJ * float64(r.Cycles) * (1.0 / 3e9)
}

// ED2P returns the run's energy-delay² product in joule-seconds².
func (r *Result) ED2P() float64 {
	d := float64(r.Cycles) * (1.0 / 3e9)
	return r.EnergyJ * d * d
}

// The normalization helpers operate on Result directly (no round-trip
// through a partial internal struct, so new Result fields can never
// silently drop out of them) and mirror internal/metrics exactly.

// NormalizedEnergyPct returns the paper's "Normalized Energy (%)" of r
// against the base case (negative = savings).
func NormalizedEnergyPct(r, base *Result) float64 {
	if base.EnergyJ == 0 {
		return 0
	}
	return (r.EnergyJ/base.EnergyJ - 1) * 100
}

// NormalizedAoPBPct returns the paper's "Normalized AoPB (%)" against the
// base case (lower = more accurate budget matching).
func NormalizedAoPBPct(r, base *Result) float64 {
	if base.AoPBJ == 0 {
		return 0
	}
	return r.AoPBJ / base.AoPBJ * 100
}

// SlowdownPct returns the performance degradation against the base case
// in percent (positive = slower).
func SlowdownPct(r, base *Result) float64 {
	if base.Cycles == 0 {
		return 0
	}
	return (float64(r.Cycles)/float64(base.Cycles) - 1) * 100
}

// BenchmarkInfo describes one Table-2 workload.
type BenchmarkInfo struct {
	Name      string
	Suite     string
	InputSize string
}

// Benchmarks lists the evaluated workloads in the paper's order.
func Benchmarks() []BenchmarkInfo {
	var out []BenchmarkInfo
	for _, s := range workload.Catalog() {
		out = append(out, BenchmarkInfo{Name: s.Name, Suite: s.Suite, InputSize: s.InputSize})
	}
	return out
}

// PTBLatency reports the token-transfer latency (send, process, return, in
// cycles) the balancer uses for a given core count (Fig. 8).
func PTBLatency(cores int) (send, process, ret int64) {
	l := core.LatencyFor(cores)
	return l.Send, l.Process, l.Return
}
