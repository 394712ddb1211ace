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
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"ptbsim"
	"ptbsim/internal/figures"
	"ptbsim/internal/prof"
	"ptbsim/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run executes one ptbsweep invocation and returns its exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ptbsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
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
		parIn   = fs.Int("par-intra", 0, "shard each simulated chip across up to this many goroutine-stepped tiles (0 = serial; each chip uses the largest divisor of its core count that fits; output is identical at any value)")
	)
	var faults ptbsim.FaultSpecFlag
	fs.Var(&faults, "faults", "fault-injection spec applied to every run, e.g. seed=42,drop=0.25")
	var telemetry ptbsim.TelemetryFlag
	fs.Var(&telemetry, "telemetry", "stream epoch telemetry from every run into one merged feed, e.g. every=2048,out=sweep.jsonl")
	var checkpoint ptbsim.CheckpointFlag
	fs.Var(&checkpoint, "checkpoint", "make the sweep resumable through this directory, e.g. every=500000,dir=sweep-ckpt: finished cells persist and are skipped on restart, partial cells snapshot and resume (keys: every, dir, stop)")
	resume := fs.String("resume", "", "resume the sweep saved in this directory (shorthand for -checkpoint dir=DIR at the default cadence)")
	profFlags := prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	stopProf, err := profFlags.Start()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer stopProf()

	fail := func(err error) int {
		switch {
		case errors.Is(err, context.Canceled):
			fmt.Fprintln(stderr, "ptbsweep: interrupted")
			return 130
		case errors.Is(err, ptbsim.ErrRunStopped):
			fmt.Fprintln(stderr, "ptbsweep: crash drill stop:", err)
			fmt.Fprintln(stderr, "ptbsweep: rerun with the same -checkpoint dir to resume")
			return 3
		}
		fmt.Fprintln(stderr, err)
		return 1
	}

	p, err := figures.NewParams(*benches, *cores, *big, *relax)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	opts := []ptbsim.Option{
		ptbsim.WithScale(*scale),
		ptbsim.WithMaxCycles(figures.MaxCycles),
		ptbsim.WithParallelism(*par),
		ptbsim.WithIntraParallel(*parIn),
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
			return fail(err)
		}
		if n := len(st.Rejected()); n > 0 {
			fmt.Fprintf(stderr, "ptbsweep: %d unreadable cell files quarantined (recomputing those cells)\n", n)
		}
		if n := st.Len(); n > 0 && !*quiet {
			fmt.Fprintf(stderr, "ptbsweep: resuming: %d completed cells loaded from %s\n", n, ck.Dir)
		}
		opts = append(opts, ptbsim.WithCache(st), ptbsim.WithCheckpoint(ck))
		defer func() {
			if err := st.Err(); err != nil {
				fmt.Fprintln(stderr, "ptbsweep:", err)
			}
		}()
	}
	if telemetry.Spec != nil {
		tel, closeTel, err := telemetry.Spec.Start()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		// The experiment serializes the shared sink into one merged feed;
		// the per-sample run tags keep it unambiguous.
		opts = append(opts, ptbsim.WithObserver(tel.Every, tel.Observer), ptbsim.WithObserverRing(tel.Ring))
		defer func() {
			if err := closeTel(); err != nil {
				fmt.Fprintln(stderr, "ptbsweep: telemetry:", err)
			}
		}()
	}
	if !*quiet {
		opts = append(opts, ptbsim.WithProgress(figures.Progress(stderr)))
	}
	e := ptbsim.NewExperiment(opts...)
	defer e.Close()

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		// Precompute every needed run on the worker pool; the figure
		// builders then assemble tables from the cache.
		if _, err := e.RunAll(ctx, p.Configs()); err != nil {
			return fail(err)
		}
		ids = figures.IDs
	}

	out := stdout
	var f *os.File
	if *outPath != "" {
		if f, err = os.Create(*outPath); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer f.Close()
		out = f
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		t, err := figures.Build(ctx, e, id, p)
		if errors.Is(err, figures.ErrUnknownID) {
			fmt.Fprintf(stderr, "unknown experiment %q\n", id)
			return 2
		}
		if err != nil {
			return fail(err)
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
	if f != nil {
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}
	return 0
}
