package figures

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"ptbsim"
)

// chaosSpec is the fault spec of a chaos-table run: the token-drop rate
// applies to both core reports and in-flight batches.
func chaosSpec(rate float64) *ptbsim.FaultSpec {
	return &ptbsim.FaultSpec{Seed: 1, TokenDrop: rate}
}

// errNotMonotone is the error Chaos returns, with its table, when the
// energy-accuracy error falls as the drop rate rises.
var errNotMonotone = errors.New("chaos: energy-accuracy error is not monotone in the token-drop rate")

// Chaos measures PTB's graceful degradation under lossy token exchange.
// Each row is one PTB/Dynamic run of a (benchmark, cores, token-drop
// rate) cell: the balancer's energy-accuracy error next to the
// end-to-end drift (energy, runtime, AoPB) from the fault-free run of the
// same benchmark and core count, and the degradation telemetry (lost
// token energy, stale-watchdog fallback cycles, Degraded flag).
//
// The energy-accuracy error Eerr is the share of chip energy whose power
// tokens the balancer lost past the retry bound or double-counted from
// duplicates. It is the structural degradation signal: a batch dies only
// when drop defeats every retransmission (probability ~drop^(1+retries)),
// so the error grows steeply and monotonically with the drop rate. The
// end-to-end columns are deliberately not checked: lost grants make the
// chip throttle conservatively, so total energy and AoPB drift fail-safe,
// small and direction-free, which is the graceful part of the degradation.
//
// Rate 0 is always run first, as the anchor every drift is measured
// against; it goes through the same fault-injection code path with every
// rate at zero, so its errors are exactly 0. A row whose Eerr falls below
// the previous rate's is marked NON-MONOTONE, and the whole table comes
// back together with an error: more faults can only hurt, and gradually.
func Chaos(ctx context.Context, e *ptbsim.Experiment, benches []string, coreCounts []int, rates []float64) (*Table, error) {
	rates = slices.Clone(rates)
	slices.Sort(rates)
	if len(rates) == 0 || rates[0] != 0 {
		rates = append([]float64{0}, rates...)
	}
	var cfgs []ptbsim.Config
	for _, b := range benches {
		for _, n := range coreCounts {
			for _, rate := range rates {
				cfgs = append(cfgs, ptbsim.Config{Benchmark: b, Cores: n,
					Technique: ptbsim.PTB, Policy: ptbsim.Dynamic, Faults: chaosSpec(rate)})
			}
		}
	}
	results, err := e.RunAll(ctx, cfgs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Chaos",
		Title: "PTB/Dynamic degradation under token-drop faults (fault seed 1)",
		Header: []string{"Benchmark", "cores", "drop", "energy(mJ)", "Eerr(%)", "dE(%)",
			"slow(%)", "dAoPB(%)", "tokLost(pJ)", "staleCycles", "degraded"},
	}
	var failed error
	for i := 0; i < len(results); i += len(rates) {
		base := results[i]
		prevErr := -1.0
		for ri, rate := range rates {
			r, c := results[i+ri], cfgs[i+ri]
			eErr := accountingErrPct(r)
			errCell := fmt.Sprintf("%.4f", eErr)
			if eErr < prevErr {
				errCell += " NON-MONOTONE"
				failed = errNotMonotone
			}
			prevErr = eErr
			t.Rows = append(t.Rows, []string{
				c.Benchmark, fmt.Sprint(c.Cores), fmt.Sprint(rate),
				fmt.Sprintf("%.4f", r.EnergyJ*1e3), errCell,
				fmt.Sprintf("%.4f", relErrPct(r.EnergyJ, base.EnergyJ)),
				fmt.Sprintf("%.4f", (float64(r.Cycles)/float64(base.Cycles)-1)*100),
				fmt.Sprintf("%.4f", relErrPct(r.AoPBJ, base.AoPBJ)),
				fmt.Sprintf("%.1f", r.TokenLostPJ), fmt.Sprint(r.StaleFallbackCycles),
				fmt.Sprint(r.Degraded),
			})
		}
	}
	return t, failed
}

// accountingErrPct is the balancer's energy-accuracy error: the share of
// chip energy whose tokens were lost past the retry bound or
// double-counted from in-flight duplication, in percent. Exactly 0 at
// rate 0 (nothing fires), and monotone in the drop rate by construction:
// a batch dies only when drop defeats every retransmission.
func accountingErrPct(r *ptbsim.Result) float64 {
	chipPJ := r.EnergyJ * 1e12
	if chipPJ == 0 {
		return 0
	}
	return (r.TokenLostPJ + r.TokenDupPJ) / chipPJ * 100
}

// relErrPct is the relative drift of v against the fault-free anchor, in
// percent; exactly 0 when v equals the anchor bit-for-bit.
func relErrPct(v, anchor float64) float64 {
	if v == anchor {
		return 0
	}
	if anchor == 0 {
		return 100
	}
	e := (v/anchor - 1) * 100
	if e < 0 {
		e = -e
	}
	return e
}
