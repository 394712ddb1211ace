// Command ptbsweep regenerates the paper's tables and figures. Each
// experiment is identified by its paper artifact id. Runs execute on the
// parallel experiment engine: `-par N` bounds the worker pool
// (simulations are deterministic, so the output is byte-identical at any
// parallelism), and SIGINT cancels the sweep cleanly mid-run instead of
// completing the cross-product.
//
// Usage:
//
//	ptbsweep -exp fig2                 # one figure at the default scale
//	ptbsweep -exp all -scale 0.25      # everything, shortened workloads
//	ptbsweep -exp all -format md -o report.md   # everything as markdown
//	ptbsweep -exp all -par 16          # same output, 16 parallel simulations
//	ptbsweep -exp fig9 -cores 2,4,8    # restrict the core sweep
//	ptbsweep -exp fig10 -benches ocean,radix,fft
//	ptbsweep -exp all -resume sweep-cells  # restartable: finished cells persist
//	ptbsweep -exp fig5 -scale 0.15     # Fig. 5 power trace as an ASCII chart
//	ptbsweep -exp fig6 -format csv     # Fig. 6 samples for external plotting
//	ptbsweep -exp chaos -benches ocean -cores 2,4,8 -check   # token-drop table
//	ptbsweep -render-telemetry sweep.jsonl   # a -telemetry feed as markdown
//
// `-exp all` builds every id in figures.IDs. The Fig. 5/6 traces and the
// chaos table are built only on request: fig5 and fig6 run one traced
// simulation each outside the experiment (no cache, no -resume, no
// -telemetry feed), and chaos runs every -benches × -cores × -rates cell.
//
// Workload scale trades fidelity for time: the paper shapes are stable
// from about scale 0.25; scale 1.0 runs the full Table-2-calibrated sizes.
//
// Exit status: 0 on success, 1 on a failed run or a chaos table whose
// energy-accuracy error is not monotone in the drop rate (the table is
// written first), 2 on a usage error, and 130 when interrupted.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"

	"ptbsim"
	"ptbsim/internal/cli"
	"ptbsim/internal/figures"
	"ptbsim/internal/store"
)

func main() { cli.Main(run) }

// expIDs are the -exp ids: a full build's, then those built only on request.
var expIDs = append(slices.Clone(figures.IDs), "fig5", "fig6", "chaos")

// run executes one ptbsweep invocation and returns its exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c := cli.New("ptbsweep", stdout, stderr)
	fs := c.Flags
	var (
		exp     = fs.String("exp", "all", "comma-separated experiments: "+strings.Join(expIDs, ",")+", or all")
		scale   = fs.Float64("scale", 0.25, "workload scale (1.0 = Table 2 size)")
		cores   = fs.String("cores", "", "comma-separated core counts (default 2,4,8,16)")
		benches = fs.String("benches", "", "comma-separated benchmarks (default all 14)")
		rates   = fs.String("rates", "0,0.25,0.75", "comma-separated token-drop rates in [0, 1] of the chaos table (rate 0 is always run)")
		relax   = fs.Float64("relax", 0.20, "fig14 relaxed threshold")
		big     = fs.Int("bigcores", 16, "core count for the detailed figures (2/10/11/12/13)")
		quiet   = fs.Bool("q", false, "suppress per-run progress")
		par     = fs.Int("par", runtime.NumCPU(), "parallel simulations (1 = serial; output is identical at any value)")
		format  = fs.String("format", "text", "output format: text, md, csv")
		check   = fs.Bool("check", false, "enable runtime invariant checks on every run (fails on any violation)")
		outPath = fs.String("o", "", "write output to this file instead of stdout (for go:generate)")
		render  = fs.String("render-telemetry", "", "render a telemetry JSONL file (from any tool's -telemetry flag) as per-epoch markdown tables and exit")
	)
	var faults ptbsim.FaultSpecFlag
	fs.Var(&faults, "faults", "fault-injection spec applied to every run, e.g. seed=42,drop=0.25")
	var telemetry ptbsim.TelemetryFlag
	fs.Var(&telemetry, "telemetry", "stream epoch telemetry from every run into one merged feed, e.g. every=2048,out=sweep.jsonl")
	resume := fs.String("resume", "", "make the sweep restartable through this cell directory: finished cells persist there and are skipped on restart; an interrupted cell reruns from cycle 0")
	if err := c.Parse(args); err != nil {
		return c.Exit(err)
	}
	if *render != "" {
		out, err := c.Output(*outPath)
		if err != nil {
			return c.Exit(err)
		}
		return c.Exit(renderTelemetry(out, *render))
	}
	p, err := figures.NewParams(*benches, *cores, *rates, *big, *relax)
	if err != nil {
		return c.Exit(cli.Usage(err))
	}
	if !slices.Contains([]string{"text", "md", "csv"}, *format) {
		return c.Exit(cli.Usage(fmt.Errorf("unknown -format %q (want text, md or csv)", *format)))
	}
	p.Trace = ptbsim.Config{WorkloadScale: *scale, CheckInvariants: *check, Faults: faults.Spec}
	ids := figures.IDs
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
			if !slices.Contains(expIDs, ids[i]) {
				return c.Exit(cli.Usage(fmt.Errorf("unknown experiment %q", ids[i])))
			}
		}
	}
	if faults.Spec != nil && slices.Contains(ids, "chaos") {
		return c.Exit(cli.Usage(errors.New("-faults does not apply to -exp chaos, which sets each row's token-drop rate itself")))
	}
	out, err := c.Output(*outPath)
	if err != nil {
		return c.Exit(err)
	}

	opts := []ptbsim.Option{
		ptbsim.WithScale(*scale),
		ptbsim.WithMaxCycles(figures.MaxCycles),
		ptbsim.WithParallelism(*par),
	}
	if *check {
		opts = append(opts, ptbsim.WithInvariants())
	}
	if faults.Spec != nil {
		opts = append(opts, ptbsim.WithFaults(*faults.Spec))
	}
	if *resume != "" {
		// One directory makes the whole sweep restartable: completed cells
		// persist in the result store and are skipped on restart.
		st, err := store.Open(*resume)
		if err != nil {
			return c.Exit(err)
		}
		if n := len(st.Rejected()); n > 0 {
			fmt.Fprintf(stderr, "ptbsweep: %d unreadable cell files quarantined (recomputing those cells)\n", n)
		}
		if n := st.Len(); n > 0 && !*quiet {
			fmt.Fprintf(stderr, "ptbsweep: resuming: %d completed cells loaded from %s\n", n, *resume)
		}
		opts = append(opts, ptbsim.WithCache(st))
		c.Defer(func() error {
			// A lost cell write degrades the store, not the output.
			if err := st.Err(); err != nil {
				fmt.Fprintln(stderr, "ptbsweep:", err)
			}
			return nil
		})
	}
	// The experiment serializes the shared sink into one merged feed; the
	// per-sample run tags keep it unambiguous.
	telOpts, err := c.ExperimentTelemetry(telemetry.Spec)
	if err != nil {
		return c.Exit(err)
	}
	opts = append(opts, telOpts...)
	if !*quiet {
		opts = append(opts, ptbsim.WithProgress(figures.Progress(stderr)))
	}
	e := ptbsim.NewExperiment(opts...)
	c.Defer(func() error { e.Close(); return nil })

	if *exp == "all" {
		// Precompute every needed run on the worker pool; the figure
		// builders then assemble tables from the cache.
		if _, err := e.RunAll(ctx, p.Configs()); err != nil {
			return c.Exit(err)
		}
	}
	for _, id := range ids {
		t, err := figures.Build(ctx, e, id, p)
		if t != nil {
			switch *format {
			case "text":
				t.Render(out)
			case "md":
				t.RenderMarkdown(out)
			case "csv":
				t.RenderCSV(out)
			}
		}
		if err != nil {
			return c.Exit(err)
		}
	}
	return c.Exit(nil)
}
