// Command ptbreport runs the complete paper reproduction and writes a
// self-contained markdown report: every table and figure as a markdown
// table, preceded by the run configuration, ready to drop into a wiki or
// pull request. Runs execute on the parallel experiment engine (`-par N`
// bounds the worker pool), and SIGINT cancels the reproduction cleanly.
//
// Usage:
//
//	ptbreport -scale 0.25 -o report.md
//	ptbreport -scale 1.0 -cores 2,4,8,16 > full_report.md
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
	"syscall"
	"time"

	"ptbsim"
	"ptbsim/internal/figures"
	"ptbsim/internal/prof"
)

func main() {
	var (
		scale   = flag.Float64("scale", 0.25, "workload scale (1.0 = Table 2 size)")
		cores   = flag.String("cores", "", "comma-separated core counts (default 2,4,8,16)")
		benches = flag.String("benches", "", "comma-separated benchmarks (default all 14)")
		relax   = flag.Float64("relax", 0.20, "relaxed threshold for the Fig. 14 section")
		big     = flag.Int("bigcores", 16, "core count for the detailed figures")
		par     = flag.Int("par", runtime.NumCPU(), "parallel simulations")
		out     = flag.String("o", "", "output file (default stdout)")
		check   = flag.Bool("check", false, "enable runtime invariant checks on every run (fails on any violation)")
		render  = flag.String("render-telemetry", "", "render a telemetry JSONL file (from any tool's -telemetry flag) as per-epoch markdown tables and exit")
	)
	var faults ptbsim.FaultSpecFlag
	flag.Var(&faults, "faults", "fault-injection spec applied to every run, e.g. seed=42,drop=0.25")
	var telemetry ptbsim.TelemetryFlag
	flag.Var(&telemetry, "telemetry", "stream epoch telemetry from every run into one merged feed, e.g. every=2048,out=report.jsonl")
	profFlags := prof.Register(nil)
	flag.Parse()
	stopProf, err := profFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProf()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	if *render != "" {
		if err := renderTelemetry(w, *render); err != nil {
			fail(err)
		}
		return
	}

	p, err := figures.NewParams(*benches, *cores, *big, *relax)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	opts := []ptbsim.Option{
		ptbsim.WithScale(*scale),
		ptbsim.WithMaxCycles(figures.MaxCycles),
		ptbsim.WithParallelism(*par),
		ptbsim.WithProgress(figures.Progress(os.Stderr)),
	}
	if *check {
		opts = append(opts, ptbsim.WithInvariants())
	}
	if faults.Spec != nil {
		opts = append(opts, ptbsim.WithFaults(*faults.Spec))
	}
	if telemetry.Spec != nil {
		tel, closeTel, err := telemetry.Spec.Start()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opts = append(opts, ptbsim.WithObserver(tel.Every, tel.Observer), ptbsim.WithObserverRing(tel.Ring))
		defer func() {
			if err := closeTel(); err != nil {
				fmt.Fprintln(os.Stderr, "ptbreport: telemetry:", err)
			}
		}()
	}
	e := ptbsim.NewExperiment(opts...)
	defer e.Close()

	start := time.Now()
	if _, err := e.RunAll(ctx, p.Configs()); err != nil {
		fail(err)
	}
	var tables []*figures.Table
	for _, id := range figures.IDs {
		t, err := figures.Build(ctx, e, id, p)
		if err != nil {
			fail(err)
		}
		tables = append(tables, t)
	}

	fmt.Fprintln(w, "# PTB reproduction report")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Generated by `ptbreport` in %s — workload scale %.2f, benchmarks %d, core counts %v, detailed figures at %d cores.\n\n",
		time.Since(start).Round(time.Second), *scale, len(p.Benches), p.CoreCounts, *big)
	fmt.Fprintln(w, "Paper: Cebrián, Aragón, Kaxiras — *Power Token Balancing: Adapting")
	fmt.Fprintln(w, "CMPs to Power Constraints for Parallel Multithreaded Workloads*,")
	fmt.Fprintln(w, "IPDPS 2011. See EXPERIMENTS.md for the paper-vs-measured discussion.")
	fmt.Fprintln(w)
	for _, t := range tables {
		t.RenderMarkdown(w)
	}
}

func fail(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "ptbreport: interrupted")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// renderTelemetry reads a JSONL telemetry feed and renders one markdown
// table per run: a row per epoch with the chip and per-core mean power
// (pJ/cycle over the epoch) and the cumulative PTB token ledger. Samples
// from a merged sweep feed are regrouped by their run tags.
func renderTelemetry(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	samples, err := ptbsim.ReadTelemetry(f)
	if err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("ptbreport: no telemetry samples in %s", path)
	}

	type group struct {
		key     string
		samples []ptbsim.Sample
	}
	var groups []*group
	index := make(map[string]*group)
	for _, s := range samples {
		key := fmt.Sprintf("%s/%d/%s/%s", s.Bench, s.Cores, s.Tech, s.Policy)
		g, ok := index[key]
		if !ok {
			g = &group{key: key}
			index[key] = g
			groups = append(groups, g)
		}
		g.samples = append(g.samples, s)
	}

	for _, g := range groups {
		first := g.samples[0]
		label := fmt.Sprintf("%s on %d cores, %s", first.Bench, first.Cores, first.Tech)
		if first.Policy != "" {
			label += "/" + first.Policy
		}
		fmt.Fprintf(w, "## Telemetry: %s (budget %.1f pJ/cycle, %d epochs)\n\n", label, first.BudgetPJ, len(g.samples))
		fmt.Fprintf(w, "| epoch | cycle | chip pJ/cyc |")
		for i := 0; i < first.Cores; i++ {
			fmt.Fprintf(w, " core%d |", i)
		}
		fmt.Fprintf(w, " donated pJ | granted pJ | discarded pJ | in-flight pJ |\n")
		fmt.Fprintf(w, "|---|---|---|")
		for i := 0; i < first.Cores; i++ {
			fmt.Fprintf(w, "---|")
		}
		fmt.Fprintf(w, "---|---|---|---|\n")
		for _, s := range g.samples {
			epoch := fmt.Sprintf("%d", s.Epoch)
			if s.Partial {
				epoch += "*"
			}
			var chip float64
			for _, e := range s.EpochPJ {
				chip += e
			}
			cyc := float64(s.Cycles)
			if cyc == 0 {
				cyc = 1
			}
			fmt.Fprintf(w, "| %s | %d | %.1f |", epoch, s.Cycle, chip/cyc)
			for _, e := range s.EpochPJ {
				fmt.Fprintf(w, " %.1f |", e/cyc)
			}
			fmt.Fprintf(w, " %.0f | %.0f | %.0f | %.0f |\n",
				s.DonatedPJ, s.GrantedPJ, s.DiscardedPJ, s.InFlightPJ)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "`*` marks a partial tail epoch; per-core columns are the epoch's mean power in pJ/cycle, token columns cumulative since run start.")
	return nil
}
