// Command ptbchaos measures PTB's graceful degradation under lossy token
// exchange: it sweeps the token-drop rate across core counts and prints,
// per (cores, rate), the balancer's energy-accuracy error next to the
// end-to-end drift (energy, runtime, AoPB) from the fault-free run of the
// same configuration and the degradation telemetry (lost token energy,
// stale-watchdog fallback cycles, Degraded flag).
//
// The energy-accuracy error Eerr is the share of chip energy whose power
// tokens the balancer lost past the retry bound or double-counted from
// duplicates — how far the balancer's energy picture drifts from ground
// truth. It is the structural degradation signal: a batch dies only when
// drop defeats every retransmission (probability ~drop^(1+retries)), so
// the error grows steeply and monotonically with the drop rate. The
// end-to-end columns are deliberately NOT asserted on: lost grants make
// the chip throttle conservatively, so total energy and AoPB drift
// fail-safe — small and direction-free — which is the graceful part of
// the degradation.
//
// The rate-0 row of each core count is the anchor: it runs through the
// same fault-injection code path with every rate at zero, so its errors
// are exactly 0 by the zero-rate identity the golden tests pin down.
// `-assert-monotone` turns the table into a regression check: the
// energy-accuracy error must be non-decreasing in the drop rate for every
// core count, the "more faults can only hurt, and gradually" claim of the
// degradation design.
//
// Usage:
//
//	ptbchaos -scale 0.25 -check
//	ptbchaos -rates 0,0.1,0.5,0.9 -cores 4,8,16 -bench raytrace
//	ptbchaos -scale 0.25 -check -assert-monotone   # the CI chaos-matrix job
package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"ptbsim"
	"ptbsim/internal/cli"
)

func main() { cli.Main(run) }

// run executes one ptbchaos invocation and returns its exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c := cli.New("ptbchaos", stdout, stderr)
	fs := c.Flags
	var (
		bench    = fs.String("bench", "ocean", "benchmark name")
		coresCSV = fs.String("cores", "2,4,8", "comma-separated core counts")
		ratesCSV = fs.String("rates", "0,0.25,0.75", "comma-separated token-drop rates in [0, 1]")
		scale    = fs.Float64("scale", 0.25, "workload scale (1.0 = Table 2 size)")
		seed     = fs.Uint64("seed", 1, "fault-injection seed")
		par      = fs.Int("par", runtime.NumCPU(), "parallel simulations")
		check    = fs.Bool("check", false, "enable runtime invariant checks on every run (fails on any violation)")
		assert   = fs.Bool("assert-monotone", false, "exit 1 unless the energy-accuracy error is non-decreasing in the drop rate for every core count")
		quiet    = fs.Bool("q", false, "suppress per-run progress")
		outPath  = fs.String("o", "", "output file (default stdout)")
	)
	pol := ptbsim.Dynamic
	fs.Var(&pol, "policy", "PTB policy: "+strings.Join(ptbsim.PolicyNames(), ", "))
	var telemetry ptbsim.TelemetryFlag
	fs.Var(&telemetry, "telemetry", "stream epoch telemetry from every run into one merged feed, e.g. every=2048,out=chaos.jsonl")
	if err := c.Parse(args); err != nil {
		return c.Exit(err)
	}

	cores, err := parseInts(*coresCSV)
	if err != nil {
		return c.Exit(cli.Usage(fmt.Errorf("bad -cores: %w", err)))
	}
	rates, err := parseRates(*ratesCSV)
	if err != nil {
		return c.Exit(cli.Usage(fmt.Errorf("bad -rates: %w", err)))
	}
	sort.Float64s(rates)
	if rates[0] != 0 {
		// The fault-free anchor row is always simulated: every error column
		// is relative to it.
		rates = append([]float64{0}, rates...)
	}

	out, err := c.Output(*outPath)
	if err != nil {
		return c.Exit(err)
	}

	opts := []ptbsim.Option{
		ptbsim.WithScale(*scale),
		ptbsim.WithParallelism(*par),
	}
	if *check {
		opts = append(opts, ptbsim.WithInvariants())
	}
	telOpts, err := c.ExperimentTelemetry(telemetry.Spec)
	if err != nil {
		return c.Exit(err)
	}
	opts = append(opts, telOpts...)
	if !*quiet {
		opts = append(opts, ptbsim.WithProgress(func(p ptbsim.Progress) {
			if p.Err == nil {
				drop := 0.0
				if p.Config.Faults != nil {
					drop = p.Config.Faults.TokenDrop
				}
				fmt.Fprintf(stderr, "ran %2d/%d %s/%d drop=%g\n",
					p.Done, p.Total, p.Config.Benchmark, p.Config.Cores, drop)
			}
		}))
	}
	e := ptbsim.NewExperiment(opts...)
	c.Defer(func() error { e.Close(); return nil })

	// One config per (cores, rate), row-major in the table's print order.
	var cfgs []ptbsim.Config
	for _, n := range cores {
		for _, rate := range rates {
			spec := &ptbsim.FaultSpec{Seed: *seed, TokenDrop: rate}
			cfgs = append(cfgs, ptbsim.Config{
				Benchmark: *bench,
				Cores:     n,
				Technique: ptbsim.PTB,
				Policy:    pol,
				Faults:    spec,
			})
		}
	}
	results, err := e.RunAll(ctx, cfgs)
	if err != nil {
		return c.Exit(err)
	}

	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "PTB degradation under token-drop faults — %s, policy %s, scale %g, seed %d\n",
		*bench, pol, *scale, *seed)
	fmt.Fprintf(w, "%-6s %-6s %12s %10s %10s %10s %10s %14s %12s %s\n",
		"cores", "drop", "energy(mJ)", "Eerr(%)", "dE(%)", "slow(%)", "dAoPB(%)", "tokLost(pJ)", "staleCycles", "degraded")
	monotone := true
	for ci, n := range cores {
		base := results[ci*len(rates)]
		prevErr := -1.0
		for ri, rate := range rates {
			r := results[ci*len(rates)+ri]
			eErr := accountingErrPct(r)
			dE := relErrPct(r.EnergyJ, base.EnergyJ)
			slow := (float64(r.Cycles)/float64(base.Cycles) - 1) * 100
			dAoPB := relErrPct(r.AoPBJ, base.AoPBJ)
			fmt.Fprintf(w, "%-6d %-6g %12.4f %10.4f %10.4f %10.4f %10.4f %14.1f %12d %t\n",
				n, rate, r.EnergyJ*1e3, eErr, dE, slow, dAoPB,
				r.TokenLostPJ, r.StaleFallbackCycles, r.Degraded)
			if eErr < prevErr {
				monotone = false
				fmt.Fprintf(w, "  ^ NON-MONOTONE: energy-accuracy error fell from %.4f%% at the previous rate\n", prevErr)
			}
			prevErr = eErr
		}
	}
	if err := w.Flush(); err != nil {
		return c.Exit(err)
	}
	if *assert && !monotone {
		return c.Exit(errors.New("ptbchaos: energy-accuracy error is not monotone in the token-drop rate"))
	}
	return c.Exit(nil)
}

// accountingErrPct is the balancer's energy-accuracy error: the share of
// chip energy whose tokens were lost past the retry bound or
// double-counted from in-flight duplication, in percent. Exactly 0 at
// rate 0 (nothing fires), and monotone in the drop rate by construction —
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

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, errors.New("empty list")
	}
	return out, nil
}

func parseRates(csv string) ([]float64, error) {
	var out []float64
	for _, s := range strings.Split(csv, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, err
		}
		if f < 0 || f > 1 {
			return nil, fmt.Errorf("rate %g outside [0, 1]", f)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, errors.New("empty list")
	}
	return out, nil
}
