// Command ptbsweep regenerates the paper's tables and figures as text
// tables. Each experiment is identified by its paper artifact id. Runs
// execute on the parallel experiment engine: `-par N` bounds the worker
// pool (simulations are deterministic, so the output is byte-identical at
// any parallelism), and SIGINT cancels the sweep cleanly mid-run instead
// of completing the cross-product.
//
// Usage:
//
//	ptbsweep -exp fig2                 # one figure at the default scale
//	ptbsweep -exp all -scale 0.25      # everything, shortened workloads
//	ptbsweep -exp all -par 16          # same output, 16 parallel simulations
//	ptbsweep -exp fig9 -cores 2,4,8    # restrict the core sweep
//	ptbsweep -exp fig10 -benches ocean,radix,fft
//	ptbsweep -exp all -resume sweep-ckpt   # restartable: finished cells persist
//
// Workload scale trades fidelity for time: the paper shapes are stable
// from about scale 0.25; scale 1.0 runs the full Table-2-calibrated sizes.
//
// Exit status: 0 on success, 1 on a failed run, 2 on a usage error, 3
// when the -checkpoint crash drill (stop=K) aborted the sweep, and 130
// when interrupted.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"

	"ptbsim"
	"ptbsim/internal/cli"
	"ptbsim/internal/figures"
	"ptbsim/internal/store"
)

func main() { cli.Main(run) }

// run executes one ptbsweep invocation and returns its exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c := cli.New("ptbsweep", stdout, stderr)
	fs := c.Flags
	var (
		exp     = fs.String("exp", "all", "experiment: "+strings.Join(figures.IDs, ",")+",all")
		scale   = fs.Float64("scale", 0.25, "workload scale (1.0 = Table 2 size)")
		cores   = fs.String("cores", "", "comma-separated core counts (default 2,4,8,16)")
		benches = fs.String("benches", "", "comma-separated benchmarks (default all 14)")
		relax   = fs.Float64("relax", 0.20, "fig14 relaxed threshold")
		big     = fs.Int("bigcores", 16, "core count for the detailed figures (2/10/11/12/13)")
		quiet   = fs.Bool("q", false, "suppress per-run progress")
		par     = fs.Int("par", runtime.NumCPU(), "parallel simulations (1 = serial; output is identical at any value)")
		format  = fs.String("format", "text", "output format: text, md, csv")
		check   = fs.Bool("check", false, "enable runtime invariant checks on every run (fails on any violation)")
		outPath = fs.String("o", "", "write output to this file instead of stdout (for go:generate)")
	)
	var faults ptbsim.FaultSpecFlag
	fs.Var(&faults, "faults", "fault-injection spec applied to every run, e.g. seed=42,drop=0.25")
	var telemetry ptbsim.TelemetryFlag
	fs.Var(&telemetry, "telemetry", "stream epoch telemetry from every run into one merged feed, e.g. every=2048,out=sweep.jsonl")
	var checkpoint ptbsim.CheckpointFlag
	fs.Var(&checkpoint, "checkpoint", "make the sweep resumable through this directory, e.g. every=500000,dir=sweep-ckpt: finished cells persist and are skipped on restart, partial cells snapshot and resume (keys: every, dir, stop)")
	resume := fs.String("resume", "", "resume the sweep saved in this directory (shorthand for -checkpoint dir=DIR at the default cadence)")
	if err := c.Parse(args); err != nil {
		return c.Exit(err)
	}
	p, err := figures.NewParams(*benches, *cores, *big, *relax)
	if err != nil {
		return c.Exit(cli.Usage(err))
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
	if *resume != "" && checkpoint.Spec == nil {
		checkpoint.Spec = &ptbsim.CheckpointSpec{Dir: *resume}
	}
	if checkpoint.Spec != nil {
		// One directory makes the whole sweep restartable: completed cells
		// persist in the result store and are skipped, partial cells leave
		// a snapshot and resume mid-run byte-identically.
		ck := checkpoint.Spec.Checkpoint()
		st, err := store.Open(ck.Dir)
		if err != nil {
			return c.Exit(err)
		}
		if n := len(st.Rejected()); n > 0 {
			fmt.Fprintf(stderr, "ptbsweep: %d unreadable cell files quarantined (recomputing those cells)\n", n)
		}
		if n := st.Len(); n > 0 && !*quiet {
			fmt.Fprintf(stderr, "ptbsweep: resuming: %d completed cells loaded from %s\n", n, ck.Dir)
		}
		opts = append(opts, ptbsim.WithCache(st), ptbsim.WithCheckpoint(ck))
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

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		// Precompute every needed run on the worker pool; the figure
		// builders then assemble tables from the cache.
		if _, err := e.RunAll(ctx, p.Configs()); err != nil {
			return c.Exit(err)
		}
		ids = figures.IDs
	}

	out, err := c.Output(*outPath)
	if err != nil {
		return c.Exit(err)
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		t, err := figures.Build(ctx, e, id, p)
		if errors.Is(err, figures.ErrUnknownID) {
			return c.Exit(cli.Usage(fmt.Errorf("unknown experiment %q", id)))
		}
		if err != nil {
			return c.Exit(err)
		}
		switch *format {
		case "md":
			t.RenderMarkdown(out)
		case "csv":
			t.RenderCSV(out)
		default:
			t.Render(out)
		}
	}
	return c.Exit(nil)
}
