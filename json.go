package ptbsim

import (
	"encoding/json"
	"errors"
	"fmt"
)

// ErrDigestMismatch reports a decoded Result whose embedded digest does
// not match the digest recomputed from its decoded fields — the stream
// was corrupted or hand-edited. Branch with errors.Is.
var ErrDigestMismatch = errors.New("ptbsim: result digest mismatch")

// This file pins the JSON wire schema of Result and Config. The Go field
// names are API, but their JSON encoding is a second, independently stable
// contract (the ptbsim -json output, the JSONL telemetry run records, and
// any external tooling built on them), so both types marshal through
// explicit wire structs with snake_case names instead of relying on
// reflection over the Go names. Renaming a Go field can never silently
// change the wire format; adding a field forces a deliberate schema
// decision here.

// resultJSON is Result's wire form. Digest is derived, not stored: it is
// recomputed from the Result on marshal and — because encoding/json
// round-trips float64 values bit-exactly — verified against the decoded
// fields on unmarshal, making every serialized result self-checking
// (ptbserve's on-disk store and the JSONL telemetry records rely on
// this). Streams written before the field existed simply omit it and
// skip verification.
type resultJSON struct {
	Benchmark string `json:"benchmark"`
	Cores     int    `json:"cores"`
	Technique string `json:"technique"`
	Policy    string `json:"policy,omitempty"`

	Cycles    int64 `json:"cycles"`
	Committed int64 `json:"committed"`

	EnergyJ  float64 `json:"energy_j"`
	AoPBJ    float64 `json:"aopb_j"`
	BudgetPJ float64 `json:"budget_pj"`

	MeanPowerW float64 `json:"mean_power_w"`
	StdPowerW  float64 `json:"std_power_w"`

	BusyFrac       float64 `json:"busy_frac"`
	LockAcqFrac    float64 `json:"lock_acq_frac"`
	LockRelFrac    float64 `json:"lock_rel_frac"`
	BarrierFrac    float64 `json:"barrier_frac"`
	SpinEnergyFrac float64 `json:"spin_energy_frac"`
	OverBudgetFrac float64 `json:"over_budget_frac"`

	MeanTempC float64 `json:"mean_temp_c"`
	StdTempC  float64 `json:"std_temp_c"`

	HitMaxCycles bool `json:"hit_max_cycles,omitempty"`

	ComponentJ map[string]float64 `json:"component_j,omitempty"`

	TokenDonatedPJ   float64 `json:"token_donated_pj"`
	TokenGrantedPJ   float64 `json:"token_granted_pj"`
	TokenDiscardedPJ float64 `json:"token_discarded_pj"`
	BalanceRounds    int64   `json:"balance_rounds"`

	CohGetS int64 `json:"coh_gets"`
	CohGetX int64 `json:"coh_getx"`
	CohPut  int64 `json:"coh_put"`
	CohFwd  int64 `json:"coh_fwd"`
	CohInv  int64 `json:"coh_inv"`

	NoCMessages int64 `json:"noc_msgs"`
	NoCFlits    int64 `json:"noc_flits"`

	Degraded            bool    `json:"degraded,omitempty"`
	FaultsInjected      int64   `json:"faults_injected,omitempty"`
	TokenLostPJ         float64 `json:"token_lost_pj,omitempty"`
	TokenDupPJ          float64 `json:"token_dup_pj,omitempty"`
	TokenRetries        int64   `json:"token_retries,omitempty"`
	TokenReportsLost    int64   `json:"token_reports_lost,omitempty"`
	StaleFallbackCycles int64   `json:"stale_fallback_cycles,omitempty"`
	NoCStallCycles      int64   `json:"noc_stall_cycles,omitempty"`
	NoCRetransmits      int64   `json:"noc_retransmits,omitempty"`
	DVFSGlitches        int64   `json:"dvfs_glitches,omitempty"`

	Digest string `json:"digest,omitempty"`
}

// MarshalJSON encodes the result in the stable wire schema.
func (r *Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(resultJSON{
		Benchmark: r.Benchmark, Cores: r.Cores,
		Technique: string(r.Technique), Policy: r.Policy,
		Cycles: r.Cycles, Committed: r.Committed,
		EnergyJ: r.EnergyJ, AoPBJ: r.AoPBJ, BudgetPJ: r.BudgetPJ,
		MeanPowerW: r.MeanPowerW, StdPowerW: r.StdPowerW,
		BusyFrac: r.BusyFrac, LockAcqFrac: r.LockAcqFrac,
		LockRelFrac: r.LockRelFrac, BarrierFrac: r.BarrierFrac,
		SpinEnergyFrac: r.SpinEnergyFrac, OverBudgetFrac: r.OverBudgetFrac,
		MeanTempC: r.MeanTempC, StdTempC: r.StdTempC,
		HitMaxCycles: r.HitMaxCycles, ComponentJ: r.ComponentJ,
		TokenDonatedPJ: r.TokenDonatedPJ, TokenGrantedPJ: r.TokenGrantedPJ,
		TokenDiscardedPJ: r.TokenDiscardedPJ, BalanceRounds: r.BalanceRounds,
		CohGetS: r.CohGetS, CohGetX: r.CohGetX, CohPut: r.CohPut,
		CohFwd: r.CohFwd, CohInv: r.CohInv,
		NoCMessages: r.NoCMessages, NoCFlits: r.NoCFlits,
		Degraded: r.Degraded, FaultsInjected: r.FaultsInjected,
		TokenLostPJ: r.TokenLostPJ, TokenDupPJ: r.TokenDupPJ,
		TokenRetries: r.TokenRetries, TokenReportsLost: r.TokenReportsLost,
		StaleFallbackCycles: r.StaleFallbackCycles,
		NoCStallCycles:      r.NoCStallCycles,
		NoCRetransmits:      r.NoCRetransmits,
		DVFSGlitches:        r.DVFSGlitches,
		Digest:              r.Digest(),
	})
}

// UnmarshalJSON decodes the stable wire schema.
func (r *Result) UnmarshalJSON(data []byte) error {
	var w resultJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = Result{
		Benchmark: w.Benchmark, Cores: w.Cores,
		Technique: Technique(w.Technique), Policy: w.Policy,
		Cycles: w.Cycles, Committed: w.Committed,
		EnergyJ: w.EnergyJ, AoPBJ: w.AoPBJ, BudgetPJ: w.BudgetPJ,
		MeanPowerW: w.MeanPowerW, StdPowerW: w.StdPowerW,
		BusyFrac: w.BusyFrac, LockAcqFrac: w.LockAcqFrac,
		LockRelFrac: w.LockRelFrac, BarrierFrac: w.BarrierFrac,
		SpinEnergyFrac: w.SpinEnergyFrac, OverBudgetFrac: w.OverBudgetFrac,
		MeanTempC: w.MeanTempC, StdTempC: w.StdTempC,
		HitMaxCycles: w.HitMaxCycles, ComponentJ: w.ComponentJ,
		TokenDonatedPJ: w.TokenDonatedPJ, TokenGrantedPJ: w.TokenGrantedPJ,
		TokenDiscardedPJ: w.TokenDiscardedPJ, BalanceRounds: w.BalanceRounds,
		CohGetS: w.CohGetS, CohGetX: w.CohGetX, CohPut: w.CohPut,
		CohFwd: w.CohFwd, CohInv: w.CohInv,
		NoCMessages: w.NoCMessages, NoCFlits: w.NoCFlits,
		Degraded: w.Degraded, FaultsInjected: w.FaultsInjected,
		TokenLostPJ: w.TokenLostPJ, TokenDupPJ: w.TokenDupPJ,
		TokenRetries: w.TokenRetries, TokenReportsLost: w.TokenReportsLost,
		StaleFallbackCycles: w.StaleFallbackCycles,
		NoCStallCycles:      w.NoCStallCycles,
		NoCRetransmits:      w.NoCRetransmits,
		DVFSGlitches:        w.DVFSGlitches,
	}
	if w.Digest != "" {
		if got := r.Digest(); got != w.Digest {
			return fmt.Errorf("%w: stored %q, recomputed %q", ErrDigestMismatch, w.Digest, got)
		}
	}
	return nil
}

// configJSON is Config's wire form. Policy travels as its lowercase parse
// name, Faults as its canonical spec string (a *string so the zero spec
// "" survives omitempty and stays distinct from nil). Observe is runtime
// wiring — an interface holding live sinks — and deliberately has no wire
// form; it is dropped on marshal and left nil on unmarshal. The marshaled
// form is also the Experiment cache key, so this struct is the one list of
// result-determining fields: a field that can change a Result must be
// here, and one that cannot must not.
type configJSON struct {
	Benchmark             string  `json:"benchmark"`
	Cores                 int     `json:"cores,omitempty"`
	Technique             string  `json:"technique,omitempty"`
	Policy                string  `json:"policy,omitempty"`
	RelaxFrac             float64 `json:"relax_frac,omitempty"`
	BudgetFrac            float64 `json:"budget_frac,omitempty"`
	WorkloadScale         float64 `json:"workload_scale,omitempty"`
	MaxCycles             int64   `json:"max_cycles,omitempty"`
	PessimisticPTBLatency bool    `json:"pessimistic_ptb_latency,omitempty"`
	PTBClusterSize        int     `json:"ptb_cluster_size,omitempty"`
	CheckInvariants       bool    `json:"check_invariants,omitempty"`
	Faults                *string `json:"faults,omitempty"`
}

// policyName is ParsePolicy's inverse: the lowercase wire name.
func policyName(p Policy) string {
	switch p {
	case ToOne:
		return "toone"
	case Dynamic:
		return "dynamic"
	default:
		return "toall"
	}
}

// MarshalJSON encodes the config in the stable wire schema.
func (c Config) MarshalJSON() ([]byte, error) {
	w := configJSON{
		Benchmark: c.Benchmark, Cores: c.Cores,
		Technique: string(c.Technique),
		RelaxFrac: c.RelaxFrac, BudgetFrac: c.BudgetFrac,
		WorkloadScale: c.WorkloadScale, MaxCycles: c.MaxCycles,
		PessimisticPTBLatency: c.PessimisticPTBLatency,
		PTBClusterSize:        c.PTBClusterSize,
		CheckInvariants:       c.CheckInvariants,
	}
	if c.Policy != ToAll {
		w.Policy = policyName(c.Policy)
	}
	if c.Faults != nil {
		spec := c.Faults.String()
		w.Faults = &spec
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the stable wire schema; technique, policy and
// fault-spec values go through the public parsers, so errors wrap the same
// ErrBad* sentinels as Validate.
func (c *Config) UnmarshalJSON(data []byte) error {
	var w configJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	out := Config{
		Benchmark: w.Benchmark, Cores: w.Cores,
		RelaxFrac: w.RelaxFrac, BudgetFrac: w.BudgetFrac,
		WorkloadScale: w.WorkloadScale, MaxCycles: w.MaxCycles,
		PessimisticPTBLatency: w.PessimisticPTBLatency,
		PTBClusterSize:        w.PTBClusterSize,
		CheckInvariants:       w.CheckInvariants,
	}
	if w.Technique != "" {
		t, err := ParseTechnique(w.Technique)
		if err != nil {
			return err
		}
		out.Technique = t
	}
	if w.Policy != "" {
		p, err := ParsePolicy(w.Policy)
		if err != nil {
			return err
		}
		out.Policy = p
	}
	if w.Faults != nil {
		spec, err := ParseFaultSpec(*w.Faults)
		if err != nil {
			return err
		}
		out.Faults = &spec
	}
	*c = out
	return nil
}
