// Command ptbtrace regenerates the paper's power-trace figures: Fig. 5
// (per-cycle CMP power around the global budget, the PTB motivation) and
// Fig. 6 (the power signature of a core entering a spinning state). Output
// is an ASCII chart plus optional CSV samples for external plotting.
// SIGINT cancels the trace run cleanly.
//
// Usage:
//
//	ptbtrace -exp fig5
//	ptbtrace -exp fig6 -csv > fig6.csv
package main

import (
	"context"
	"fmt"
	"io"
	"strings"

	"ptbsim"
	"ptbsim/internal/cli"
)

func main() { cli.Main(run) }

// run executes one ptbtrace invocation and returns its exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c := cli.New("ptbtrace", stdout, stderr)
	fs := c.Flags
	var (
		exp   = fs.String("exp", "fig5", "trace: fig5 (chip power vs budget), fig6 (spinning core)")
		scale = fs.Float64("scale", 0.15, "workload scale")
		csv   = fs.Bool("csv", false, "emit CSV samples instead of an ASCII chart")
		width = fs.Int("width", 100, "chart columns")
		check = fs.Bool("check", false, "enable runtime invariant checks (fails on any violation)")
	)
	var faults ptbsim.FaultSpecFlag
	fs.Var(&faults, "faults", "fault-injection spec, e.g. seed=42,noise=0.05")
	if err := c.Parse(args); err != nil {
		return c.Exit(err)
	}

	trace, budget, title, err := figTrace(ctx, *exp, ptbsim.Config{
		WorkloadScale:   *scale,
		CheckInvariants: *check,
		Faults:          faults.Spec,
	})
	if err != nil {
		return c.Exit(err)
	}
	if *csv {
		fmt.Fprintln(stdout, "sample,power_pj,budget_pj")
		for i, v := range trace {
			fmt.Fprintf(stdout, "%d,%.1f,%.1f\n", i, v, budget)
		}
		return c.Exit(nil)
	}
	fmt.Fprintln(stdout, title)
	chart(stdout, trace, budget, *width)
	return c.Exit(nil)
}

// figTrace runs the figure's workload on the 4-core no-control chip with
// cfg's scale, invariant and fault settings, and returns the figure's
// power trace, its budget line (pJ/cycle) and its title.
func figTrace(ctx context.Context, exp string, cfg ptbsim.Config) (trace []float64, budget float64, title string, err error) {
	cfg.Cores = 4
	cfg.Technique = ptbsim.None
	cfg.MaxCycles = 20_000_000
	switch exp {
	case "fig5":
		cfg.Benchmark = "ocean"
		trace, _, budget, err = tracePower(ctx, cfg, 50, -1)
		title = "Figure 5 — per-cycle CMP power vs the global power budget (4-core ocean)"
	case "fig6":
		cfg.Benchmark = "raytrace"
		_, trace, budget, err = tracePower(ctx, cfg, 10, 2)
		// A core's local budget is the global budget split evenly.
		budget /= 4
		title = "Figure 6 — per-cycle power of a core contending for a lock (raytrace)"
	default:
		return nil, 0, "", cli.Usage(fmt.Errorf("unknown trace %q", exp))
	}
	return trace, budget, title, err
}

// tracePower runs cfg with a MemoryObserver sampling every `every` cycles
// and flattens the telemetry into the chip power trace and, when core >= 0,
// that core's per-cycle power trace (both pJ at the sampled cycle). The
// partial tail sample is skipped to match the figures' fixed-period grids.
func tracePower(ctx context.Context, cfg ptbsim.Config, every int64, core int) (chip, coreTrace []float64, budgetPJ float64, err error) {
	mo := &ptbsim.MemoryObserver{}
	cfg.Observe = &ptbsim.Telemetry{Every: every, Observer: mo}
	res, err := ptbsim.RunContext(ctx, cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	for _, s := range mo.Samples() {
		if s.Partial {
			continue
		}
		chip = append(chip, s.ChipPJ)
		if core >= 0 && core < len(s.CorePJ) {
			coreTrace = append(coreTrace, s.CorePJ[core])
		}
	}
	return chip, coreTrace, res.BudgetPJ, nil
}

// chart draws the trace as rows of a horizontal ASCII plot, marking the
// budget line.
func chart(w io.Writer, trace []float64, budget float64, width int) {
	if len(trace) == 0 {
		fmt.Fprintln(w, "(empty trace)")
		return
	}
	maxV := budget
	for _, v := range trace {
		if v > maxV {
			maxV = v
		}
	}
	// Aggregate samples into at most 48 rows.
	rows := 48
	per := (len(trace) + rows - 1) / rows
	budgetCol := int(budget / maxV * float64(width-1))
	fmt.Fprintf(w, "budget = %.0f pJ/cycle (column marked '|'), peak sample = %.0f\n", budget, maxV)
	for i := 0; i < len(trace); i += per {
		end := i + per
		if end > len(trace) {
			end = len(trace)
		}
		avg := 0.0
		for _, v := range trace[i:end] {
			avg += v
		}
		avg /= float64(end - i)
		col := int(avg / maxV * float64(width-1))
		line := []byte(strings.Repeat(" ", width))
		for c := 0; c <= col && c < width; c++ {
			line[c] = '#'
		}
		if budgetCol < width {
			if line[budgetCol] == '#' {
				line[budgetCol] = 'X'
			} else {
				line[budgetCol] = '|'
			}
		}
		fmt.Fprintf(w, "%6d %s %.0f\n", i, string(line), avg)
	}
}
