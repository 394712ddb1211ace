// Command ptbgolden regenerates the golden run digests under
// testdata/golden/: one deterministic fingerprint line per configuration of
// the technique×benchmark matrix (see Result.Digest for the format). The
// committed file is the whole-simulator regression baseline — any
// behavioral change to the pipeline, caches, NoC, power model or budget
// controllers shifts at least one digest, and the golden test catches it.
//
// Output is byte-stable: no timestamps, deterministic run order, and
// digests independent of -par (simulations are single-threaded and
// deterministic). Invariant checking is on by default so a regenerated
// baseline is also a certified zero-violation matrix.
//
// Usage:
//
//	go generate ./...                   # rewrites testdata/golden/
//	ptbgolden -o matrix.txt -par 8
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"

	"ptbsim"
	"ptbsim/internal/cli"
)

func main() { cli.Main(run) }

// run executes one ptbgolden invocation and returns its exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c := cli.New("ptbgolden", stdout, stderr)
	fs := c.Flags
	var (
		scale   = fs.Float64("scale", 0.25, "workload scale (matches the committed baseline)")
		cores   = fs.String("cores", "4", "comma-separated CMP sizes for the matrix")
		benches = fs.String("benches", "", "comma-separated benchmarks (default: all 14)")
		techsIn = fs.String("techs", "", "comma-separated techniques (default: all)")
		cluster = fs.Int("cluster", 0, "PTB cluster size applied to the PTB-family runs (0 = one chip-wide balancer)")
		par     = fs.Int("par", runtime.NumCPU(), "parallel simulations (output is identical at any value)")
		check   = fs.Bool("check", true, "enable runtime invariant checks on every run")
		quiet   = fs.Bool("q", false, "suppress per-run progress")
		outPath = fs.String("o", "", "output file (default stdout)")
	)
	var faults ptbsim.FaultSpecFlag
	fs.Var(&faults, "faults", "fault-injection spec applied to every run (a zero-rate spec must reproduce the committed baseline byte-for-byte)")
	var telemetry ptbsim.TelemetryFlag
	fs.Var(&telemetry, "telemetry", "stream epoch telemetry from every run, e.g. every=2048,out=golden.jsonl (digests are identical with or without it)")
	if err := c.Parse(args); err != nil {
		return c.Exit(err)
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
	if faults.Spec != nil {
		opts = append(opts, ptbsim.WithFaults(*faults.Spec))
	}
	telOpts, err := c.ExperimentTelemetry(telemetry.Spec)
	if err != nil {
		return c.Exit(err)
	}
	opts = append(opts, telOpts...)
	if !*quiet {
		opts = append(opts, ptbsim.WithProgress(func(p ptbsim.Progress) {
			if p.Err == nil {
				fmt.Fprintf(stderr, "ran %3d/%d %s/%d/%s\n",
					p.Done, p.Total, p.Config.Benchmark, p.Config.Cores, p.Config.Technique)
			}
		}))
	}
	e := ptbsim.NewExperiment(opts...)
	c.Defer(func() error { e.Close(); return nil })

	techNames := ptbsim.TechniqueNames()
	techLabel := "all"
	if *techsIn != "" {
		techNames = strings.Split(*techsIn, ",")
		techLabel = *techsIn
	}
	var techs []ptbsim.Technique
	for _, name := range techNames {
		t, err := ptbsim.ParseTechnique(name)
		if err != nil {
			return c.Exit(err)
		}
		techs = append(techs, t)
	}
	var coreCounts []int
	for _, s := range strings.Split(*cores, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return c.Exit(fmt.Errorf("ptbgolden: bad -cores entry %q: %w", s, err))
		}
		coreCounts = append(coreCounts, n)
	}
	sweep := ptbsim.Sweep{
		CoreCounts: coreCounts,
		Techniques: techs,
		// The PTB family runs its headline Dynamic policy; the policy
		// dimension collapses for every other technique.
		Policies: []ptbsim.Policy{ptbsim.Dynamic},
	}
	if *benches != "" {
		sweep.Benchmarks = strings.Split(*benches, ",")
	}
	cfgs := sweep.Configs()
	if *cluster > 0 {
		for i := range cfgs {
			if cfgs[i].Technique == ptbsim.PTB || cfgs[i].Technique == ptbsim.PTBSpinGate {
				cfgs[i].PTBClusterSize = *cluster
			}
		}
	}
	results, err := e.RunAll(ctx, cfgs)
	if err != nil {
		return c.Exit(err)
	}

	w := bufio.NewWriter(out)
	benchLabel := "all"
	if *benches != "" {
		benchLabel = *benches
	}
	fmt.Fprintf(w, "# golden run digests: cores=%s scale=%g benchmarks=%s techniques=%s policies=dynamic cluster=%d\n",
		*cores, *scale, benchLabel, techLabel, *cluster)
	fmt.Fprintf(w, "# regenerate: go generate ./...  (or: make golden)\n")
	for _, r := range results {
		fmt.Fprintln(w, r.Digest())
	}
	return c.Exit(w.Flush())
}
