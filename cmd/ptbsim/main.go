// Command ptbsim runs one CMP simulation and prints the paper's metrics
// for it, optionally next to the no-control base case. SIGINT cancels the
// run cleanly.
//
// Usage:
//
//	ptbsim -bench ocean -cores 8 -tech ptb -policy dynamic
//	ptbsim -bench fluidanimate -cores 16 -tech 2level -scale 0.3
//	ptbsim -list
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"ptbsim"
	"ptbsim/internal/cli"
)

func main() { cli.Main(run) }

// run executes one ptbsim invocation and returns its exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c := cli.New("ptbsim", stdout, stderr)
	fs := c.Flags
	var (
		bench   = fs.String("bench", "ocean", "benchmark name (see -list)")
		cores   = fs.Int("cores", 4, "number of cores (2, 4, 8, 16)")
		relax   = fs.Float64("relax", 0, "relaxed trigger threshold (e.g. 0.2 = +20%)")
		budget  = fs.Float64("budget", 0.5, "global budget as a fraction of rated peak")
		scale   = fs.Float64("scale", 1.0, "workload scale (1.0 = Table 2 size)")
		noBase  = fs.Bool("nobase", false, "skip the base-case run and normalization")
		pessim  = fs.Bool("pessimistic", false, "use the 10-cycle PTB latency")
		check   = fs.Bool("check", false, "enable runtime invariant checks (fails on any violation)")
		listAll = fs.Bool("list", false, "list benchmarks and exit")
		asJSON  = fs.Bool("json", false, "emit the result as JSON")
	)
	// The typed flag.Values validate at parse time through the library's
	// parsers, so unknown names fail loudly with the canonical errors
	// instead of silently defaulting.
	tech := ptbsim.PTB
	fs.Var(&tech, "tech", "technique: "+strings.Join(ptbsim.TechniqueNames(), ", "))
	policy := ptbsim.Dynamic
	fs.Var(&policy, "policy", "PTB policy: "+strings.Join(ptbsim.PolicyNames(), ", "))
	var faults ptbsim.FaultSpecFlag
	fs.Var(&faults, "faults", "fault-injection spec, e.g. seed=42,drop=0.25,noise=0.02 (keys: seed, drop, delay, dup, delaycycles, stale, retries, backoff, stall, stallcycles, corrupt, noise, drift, glitch)")
	var telemetry ptbsim.TelemetryFlag
	fs.Var(&telemetry, "telemetry", "stream epoch telemetry, e.g. every=2048,out=run.jsonl (keys: every, out, format)")
	if err := c.Parse(args); err != nil {
		return c.Exit(err)
	}

	if *listAll {
		fmt.Fprintf(stdout, "%-9s %-14s %s\n", "SUITE", "BENCHMARK", "INPUT")
		for _, b := range ptbsim.Benchmarks() {
			fmt.Fprintf(stdout, "%-9s %-14s %s\n", b.Suite, b.Name, b.InputSize)
		}
		return c.Exit(nil)
	}

	cfg := ptbsim.Config{
		Benchmark:             *bench,
		Cores:                 *cores,
		Technique:             tech,
		Policy:                policy,
		RelaxFrac:             *relax,
		BudgetFrac:            *budget,
		WorkloadScale:         *scale,
		PessimisticPTBLatency: *pessim,
		CheckInvariants:       *check,
		Faults:                faults.Spec,
	}
	obs, err := c.Telemetry(telemetry.Spec)
	if err != nil {
		return c.Exit(err)
	}
	cfg.Observe = obs

	r, err := ptbsim.RunContext(ctx, cfg)
	if err != nil {
		return c.Exit(err)
	}
	if err := emit(stdout, r, *asJSON); err != nil || *asJSON {
		return c.Exit(err)
	}

	if !*noBase && cfg.Technique != ptbsim.None {
		baseCfg := cfg
		baseCfg.Technique = ptbsim.None
		baseCfg.Observe = nil // the telemetry feed covers the headline run
		base, err := ptbsim.RunContext(ctx, baseCfg)
		if err != nil {
			return c.Exit(err)
		}
		fmt.Fprintln(stdout, "vs no-control base case:")
		fmt.Fprintf(stdout, "  normalized energy : %+6.1f %%\n", ptbsim.NormalizedEnergyPct(r, base))
		fmt.Fprintf(stdout, "  normalized AoPB   : %6.1f %%\n", ptbsim.NormalizedAoPBPct(r, base))
		fmt.Fprintf(stdout, "  slowdown          : %+6.1f %%\n", ptbsim.SlowdownPct(r, base))
	}
	return c.Exit(nil)
}

// emit prints r either as indented JSON or in the human layout.
func emit(w io.Writer, r *ptbsim.Result, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	}
	printResult(w, r)
	return nil
}

func printResult(w io.Writer, r *ptbsim.Result) {
	label := string(r.Technique)
	if r.Technique == ptbsim.PTB {
		label += "/" + r.Policy
	}
	fmt.Fprintf(w, "%s on %d cores (%s)\n", r.Benchmark, r.Cores, label)
	fmt.Fprintf(w, "  cycles            : %d\n", r.Cycles)
	fmt.Fprintf(w, "  instructions      : %d (IPC/core %.2f)\n", r.Committed,
		float64(r.Committed)/float64(r.Cycles)/float64(r.Cores))
	fmt.Fprintf(w, "  energy            : %.4f mJ\n", r.EnergyJ*1e3)
	fmt.Fprintf(w, "  AoPB              : %.4f mJ (over budget %.1f%% of cycles)\n",
		r.AoPBJ*1e3, r.OverBudgetFrac*100)
	fmt.Fprintf(w, "  chip power        : %.2f W mean, %.2f W std\n", r.MeanPowerW, r.StdPowerW)
	fmt.Fprintf(w, "  time breakdown    : busy %.1f%%, lock-acq %.1f%%, lock-rel %.1f%%, barrier %.1f%%\n",
		r.BusyFrac*100, r.LockAcqFrac*100, r.LockRelFrac*100, r.BarrierFrac*100)
	fmt.Fprintf(w, "  spinning power    : %.1f %% of energy\n", r.SpinEnergyFrac*100)
	fmt.Fprintf(w, "  temperature       : %.1f C mean, %.2f C std\n", r.MeanTempC, r.StdTempC)
	if len(r.ComponentJ) > 0 && r.EnergyJ > 0 {
		fmt.Fprintf(w, "  energy by group   :")
		for _, g := range []string{"frontend", "execute", "caches", "noc", "dram", "power-mgmt", "clock", "leakage"} {
			fmt.Fprintf(w, " %s %.0f%%", g, 100*r.ComponentJ[g]/r.EnergyJ)
		}
		fmt.Fprintln(w)
	}
	if r.FaultsInjected > 0 || r.Degraded {
		fmt.Fprintf(w, "  faults injected   : %d (token lost %.0f pJ, retries %d, reports lost %d, stale-fallback %d cycles, noc stalls %d, retransmits %d, dvfs glitches %d)\n",
			r.FaultsInjected, r.TokenLostPJ, r.TokenRetries, r.TokenReportsLost,
			r.StaleFallbackCycles, r.NoCStallCycles, r.NoCRetransmits, r.DVFSGlitches)
		if r.Degraded {
			fmt.Fprintln(w, "  DEGRADED: balancer lost tokens or ran on the stale-share fallback")
		}
	}
	if r.HitMaxCycles {
		fmt.Fprintln(w, "  WARNING: run truncated by the cycle cap")
	}
}
