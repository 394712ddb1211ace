// Package figures builds the paper's evaluation artifacts — Tables 1–2,
// Figs 2–4 and 8–14, the §IV-D cores-at-TDP arithmetic and the
// spin-gating extension — as text tables on top of a ptbsim.Experiment.
//
// Every simulation-backed builder requests its runs from the experiment
// as one RunAll batch, so the runs execute on the experiment's worker
// pool, share its cache (and any persistent store behind WithCache), and
// every table normalizes against the same base cases. A full build first
// warms the cache with one RunAll over Params.Configs; the builders then
// assemble their tables from cached results.
package figures

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"ptbsim"
	"ptbsim/internal/cpu"
	"ptbsim/internal/mesh"
	"ptbsim/internal/metrics"
	"ptbsim/internal/power"
)

// Table is a rendered experiment artifact (one paper table or figure).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// RenderCSV writes the table as CSV with a leading comment line naming the
// artifact (machine-readable results for external plotting).
func (t *Table) RenderCSV(w io.Writer) {
	fmt.Fprintf(w, "# %s — %s\n", t.ID, t.Title)
	fmt.Fprintln(w, strings.Join(t.Header, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
	fmt.Fprintln(w)
}

// RenderMarkdown writes the table as a GitHub-flavored markdown table with
// a heading.
func (t *Table) RenderMarkdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	fmt.Fprintln(w)
}

// techSpec is one evaluated technique as the figures label it: the
// budget mechanism plus, for the PTB family, its distribution policy and
// trigger relaxation.
type techSpec struct {
	label string
	tech  ptbsim.Technique
	pol   ptbsim.Policy
	relax float64
}

// config is the run of ts on one benchmark and core count. The
// experiment supplies scale, cycle cap and the other sweep-wide knobs.
func (ts techSpec) config(bench string, cores int) ptbsim.Config {
	return ptbsim.Config{Benchmark: bench, Cores: cores, Technique: ts.tech, Policy: ts.pol, RelaxFrac: ts.relax}
}

var (
	baseCase = techSpec{label: "None", tech: ptbsim.None}
	dvfs     = techSpec{label: "DVFS", tech: ptbsim.DVFS}
	dfs      = techSpec{label: "DFS", tech: ptbsim.DFS}
	twoLevel = techSpec{label: "2Level", tech: ptbsim.TwoLevel}
)

func ptb(pol ptbsim.Policy) techSpec {
	return techSpec{label: "PTB+2Level", tech: ptbsim.PTB, pol: pol}
}

// figTechniques are the four techniques of the paper's comparison
// figures, in column order.
func figTechniques(pol ptbsim.Policy) []techSpec {
	return []techSpec{dvfs, dfs, twoLevel, ptb(pol)}
}

// grid lists the run of every technique on every benchmark × core count.
func grid(benches []string, coreCounts []int, techs []techSpec) []ptbsim.Config {
	var cfgs []ptbsim.Config
	for _, b := range benches {
		for _, n := range coreCounts {
			for _, ts := range techs {
				cfgs = append(cfgs, ts.config(b, n))
			}
		}
	}
	return cfgs
}

// runs indexes a batch of results by the config that requested them.
type runs map[ptbsim.Config]*ptbsim.Result

func (r runs) get(bench string, cores int, ts techSpec) *ptbsim.Result {
	return r[ts.config(bench, cores)]
}

func (r runs) base(bench string, cores int) *ptbsim.Result {
	return r.get(bench, cores, baseCase)
}

// fetch runs, as one batch on e, the base case and every technique in
// techs for each benchmark × core count.
func fetch(ctx context.Context, e *ptbsim.Experiment, benches []string, coreCounts []int, techs ...techSpec) (runs, error) {
	cfgs := grid(benches, coreCounts, append([]techSpec{baseCase}, techs...))
	res, err := e.RunAll(ctx, cfgs)
	if err != nil {
		return nil, err
	}
	out := make(runs, len(cfgs))
	for i, c := range cfgs {
		out[c] = res[i]
	}
	return out, nil
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// perBench appends one row per benchmark holding vals(b), then an "Avg."
// row of the column means.
func (t *Table) perBench(benches []string, vals func(b string) []float64) {
	sums := make([]float64, len(t.Header)-1)
	for _, b := range benches {
		row := []string{b}
		for i, v := range vals(b) {
			sums[i] += v
			row = append(row, f1(v))
		}
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"Avg."}
	for _, s := range sums {
		avg = append(avg, f1(s/float64(len(benches))))
	}
	t.Rows = append(t.Rows, avg)
}

// energyAoPB is a benchmark's normalized energy under each technique,
// followed by its normalized AoPB under each.
func (r runs) energyAoPB(bench string, cores int, techs []techSpec) []float64 {
	base := r.base(bench, cores)
	vals := make([]float64, 0, 2*len(techs))
	for _, ts := range techs {
		vals = append(vals, ptbsim.NormalizedEnergyPct(r.get(bench, cores, ts), base))
	}
	for _, ts := range techs {
		vals = append(vals, ptbsim.NormalizedAoPBPct(r.get(bench, cores, ts), base))
	}
	return vals
}

// Table1 reproduces the simulated CMP configuration.
func Table1() *Table {
	cfg := cpu.DefaultConfig()
	t := &Table{
		ID:     "Table 1",
		Title:  "Simulated CMP configuration",
		Header: []string{"Parameter", "Value"},
	}
	add := func(k, v string) { t.Rows = append(t.Rows, []string{k, v}) }
	add("Process technology", "32 nanometres")
	add("Frequency", "3000 MHz")
	add("VDD", "0.9 V")
	add("Instruction window", fmt.Sprintf("%d entries + %d Load Store Queue", cfg.ROBSize, cfg.LSQSize))
	add("Decode width", fmt.Sprintf("%d inst/cycle", cfg.DecodeWidth))
	add("Issue width", fmt.Sprintf("%d inst/cycle", cfg.IssueWidth))
	add("Functional units", fmt.Sprintf("%d Int Alu; %d Int Mult; %d FP Alu; %d FP Mult",
		cfg.NumIntAlu, cfg.NumIntMul, cfg.NumFPAlu, cfg.NumFPMul))
	add("Pipeline", fmt.Sprintf("%d stages", cfg.FrontendDepth+4))
	add("Branch predictor", fmt.Sprintf("64KB, %d bit Gshare", cfg.BpredBits))
	add("Coherence protocol", "MOESI")
	add("Memory latency", "300 cycles")
	add("L1 I-cache", "64KB, 2-way, 1 cycle latency")
	add("L1 D-cache", "64KB, 2-way, 1 cycle latency")
	add("L2 cache", "1MB/core, 4-way, unified, 12 cycles latency")
	add("Topology", "2D mesh")
	add("Link latency", fmt.Sprintf("%d cycles", mesh.DefaultLinkLatency))
	add("Flit size", fmt.Sprintf("%d bytes", mesh.FlitBytes))
	add("Link bandwidth", "1 flit/cycle")
	add("Peak power (rated, per core)", fmt.Sprintf("%.0f pJ/cycle (%.2f W)",
		power.PeakCoreCyclePJ(cfg.ROBSize)*power.SustainedPeakFrac,
		power.PeakCoreCyclePJ(cfg.ROBSize)*power.SustainedPeakFrac*1e-12/metrics.CycleSeconds))
	return t
}

// Table2 reproduces the benchmark catalog.
func Table2() *Table {
	t := &Table{
		ID:     "Table 2",
		Title:  "Evaluated benchmarks and input working sets",
		Header: []string{"Suite", "Benchmark", "Size"},
	}
	for _, b := range ptbsim.Benchmarks() {
		t.Rows = append(t.Rows, []string{b.Suite, b.Name, b.InputSize})
	}
	return t
}

// Fig2 reproduces the naive-split study: normalized energy and AoPB for a
// CMP with the legacy techniques (DVFS, DFS, 2level) under a 50% budget.
func Fig2(ctx context.Context, e *ptbsim.Experiment, benches []string, cores int) (*Table, error) {
	techs := []techSpec{dvfs, dfs, twoLevel}
	r, err := fetch(ctx, e, benches, []int{cores}, techs...)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Figure 2",
		Title: fmt.Sprintf("Normalized energy and AoPB, %d-core CMP, naive equal split, 50%% budget", cores),
		Header: []string{"Benchmark",
			"E.dvfs%", "E.dfs%", "E.2lvl%",
			"A.dvfs%", "A.dfs%", "A.2lvl%"},
	}
	t.perBench(benches, func(b string) []float64 { return r.energyAoPB(b, cores, techs) })
	return t, nil
}

// Fig3 reproduces the execution-time breakdown for a varying number of
// cores.
func Fig3(ctx context.Context, e *ptbsim.Experiment, benches []string, coreCounts []int) (*Table, error) {
	r, err := fetch(ctx, e, benches, coreCounts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Figure 3",
		Title:  "Execution time breakdown (%) for a varying number of cores",
		Header: []string{"Benchmark", "Cores", "Lock-Acq", "Lock-Rel", "Barrier", "Busy"},
	}
	for _, b := range benches {
		for _, n := range coreCounts {
			res := r.base(b, n)
			t.Rows = append(t.Rows, []string{
				b, fmt.Sprint(n),
				f1(res.LockAcqFrac * 100), f1(res.LockRelFrac * 100),
				f1(res.BarrierFrac * 100), f1(res.BusyFrac * 100),
			})
		}
	}
	return t, nil
}

// Fig4 reproduces the normalized spinning power for a varying number of
// cores.
func Fig4(ctx context.Context, e *ptbsim.Experiment, benches []string, coreCounts []int) (*Table, error) {
	r, err := fetch(ctx, e, benches, coreCounts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Figure 4",
		Title:  "Spinning power as % of total power, varying number of cores",
		Header: []string{"Benchmark"},
	}
	for _, n := range coreCounts {
		t.Header = append(t.Header, fmt.Sprintf("%d cores", n))
	}
	t.perBench(benches, func(b string) []float64 {
		var vals []float64
		for _, n := range coreCounts {
			vals = append(vals, r.base(b, n).SpinEnergyFrac*100)
		}
		return vals
	})
	return t, nil
}

// Fig8 reports the PTB transfer latencies (the implementation figure).
func Fig8() *Table {
	t := &Table{
		ID:     "Figure 8",
		Title:  "PTB load-balancer transfer latencies (cycles)",
		Header: []string{"Cores", "Send", "Process", "Return", "Total"},
	}
	for _, n := range ptbsim.CoreCounts() {
		send, process, ret := ptbsim.PTBLatency(n)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(send), fmt.Sprint(process),
			fmt.Sprint(ret), fmt.Sprint(send + process + ret),
		})
	}
	return t
}

// Fig9 reproduces the policy/core-count sweep: average normalized energy
// and AoPB across benchmarks for every {core count, policy} pair.
func Fig9(ctx context.Context, e *ptbsim.Experiment, benches []string, coreCounts []int) (*Table, error) {
	policies := []ptbsim.Policy{ptbsim.ToOne, ptbsim.ToAll}
	r, err := fetch(ctx, e, benches, coreCounts, append(figTechniques(ptbsim.ToOne), ptb(ptbsim.ToAll))...)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Figure 9",
		Title: "Average normalized energy and AoPB vs cores and PTB policy",
		Header: []string{"Config",
			"E.dvfs%", "E.dfs%", "E.2lvl%", "E.ptb%",
			"A.dvfs%", "A.dfs%", "A.2lvl%", "A.ptb%"},
	}
	for _, pol := range policies {
		for _, n := range coreCounts {
			sums := make([]float64, len(t.Header)-1)
			for _, b := range benches {
				for i, v := range r.energyAoPB(b, n, figTechniques(pol)) {
					sums[i] += v
				}
			}
			row := []string{fmt.Sprintf("%dCore_%s", n, pol)}
			for _, s := range sums {
				row = append(row, f1(s/float64(len(benches))))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// FigDetail reproduces the detailed per-benchmark energy/AoPB figures
// (Fig. 10 ToAll, Fig. 11 ToOne, Fig. 12 dynamic selector) at one core
// count.
func FigDetail(ctx context.Context, e *ptbsim.Experiment, id string, benches []string, cores int, pol ptbsim.Policy) (*Table, error) {
	techs := figTechniques(pol)
	r, err := fetch(ctx, e, benches, []int{cores}, techs...)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    id,
		Title: fmt.Sprintf("Detailed normalized energy and AoPB, %d-core CMP, PTB policy %s", cores, pol),
		Header: []string{"Benchmark",
			"E.dvfs%", "E.dfs%", "E.2lvl%", "E.ptb%",
			"A.dvfs%", "A.dfs%", "A.2lvl%", "A.ptb%"},
	}
	t.perBench(benches, func(b string) []float64 { return r.energyAoPB(b, cores, techs) })
	return t, nil
}

// Fig13 reproduces the performance figure: slowdown per benchmark with the
// dynamic policy selector.
func Fig13(ctx context.Context, e *ptbsim.Experiment, benches []string, cores int) (*Table, error) {
	techs := figTechniques(ptbsim.Dynamic)
	r, err := fetch(ctx, e, benches, []int{cores}, techs...)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Figure 13",
		Title:  fmt.Sprintf("Performance slowdown (%%), %d-core CMP, dynamic policy selector", cores),
		Header: []string{"Benchmark", "dvfs%", "dfs%", "2lvl%", "ptb%"},
	}
	t.perBench(benches, func(b string) []float64 {
		var vals []float64
		for _, ts := range techs {
			vals = append(vals, ptbsim.SlowdownPct(r.get(b, cores, ts), r.base(b, cores)))
		}
		return vals
	})
	return t, nil
}

// Fig14 reproduces the relaxed-PTB study: standard techniques plus PTB with
// a relaxed trigger threshold.
func Fig14(ctx context.Context, e *ptbsim.Experiment, benches []string, coreCounts []int, relax float64) (*Table, error) {
	policies := []ptbsim.Policy{ptbsim.ToOne, ptbsim.ToAll}
	var techs []techSpec
	for _, pol := range policies {
		rel := ptb(pol)
		rel.relax = relax
		techs = append(techs, ptb(pol), rel)
	}
	r, err := fetch(ctx, e, benches, coreCounts, techs...)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Figure 14",
		Title: fmt.Sprintf("Normalized energy and AoPB with relaxed PTB (+%.0f%% threshold)", relax*100),
		Header: []string{"Config",
			"E.ptb%", "E.relaxed%", "A.ptb%", "A.relaxed%"},
	}
	for i, pol := range policies {
		strict, rel := techs[2*i], techs[2*i+1]
		for _, n := range coreCounts {
			var e0, e1, a0, a1 float64
			for _, b := range benches {
				base := r.base(b, n)
				e0 += ptbsim.NormalizedEnergyPct(r.get(b, n, strict), base)
				e1 += ptbsim.NormalizedEnergyPct(r.get(b, n, rel), base)
				a0 += ptbsim.NormalizedAoPBPct(r.get(b, n, strict), base)
				a1 += ptbsim.NormalizedAoPBPct(r.get(b, n, rel), base)
			}
			k := float64(len(benches))
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%dCore_%s", n, pol),
				f1(e0 / k), f1(e1 / k), f1(a0 / k), f1(a1 / k),
			})
		}
	}
	return t, nil
}

// Sec4D reproduces the §IV.D cores-at-TDP arithmetic from the measured
// average AoPB errors of DVFS, plain 2level and PTB+2level.
func Sec4D(ctx context.Context, e *ptbsim.Experiment, benches []string, cores int) (*Table, error) {
	techs := []techSpec{dvfs, twoLevel, ptb(ptbsim.Dynamic)}
	r, err := fetch(ctx, e, benches, []int{cores}, techs...)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Section IV.D",
		Title:  fmt.Sprintf("Cores deployable at constant TDP (from measured %d-core AoPB errors)", cores),
		Header: []string{"Technique", "AoPB error %", "Per-core W (vs 3.125 ideal)", "Cores at 100W TDP"},
	}
	for _, ts := range techs {
		var sum float64
		for _, b := range benches {
			sum += ptbsim.NormalizedAoPBPct(r.get(b, cores, ts), r.base(b, cores))
		}
		aopbErr := sum / float64(len(benches)) / 100
		// The paper's arithmetic: 16 cores at 100W TDP → 6.25W/core; a 50%
		// budget ideally allows 32 cores at 3.125W; an AoPB error e inflates
		// per-core power to 3.125×(1+e).
		perCore := 3.125 * (1 + aopbErr)
		t.Rows = append(t.Rows, []string{
			ts.label, f1(aopbErr * 100), fmt.Sprintf("%.3f", perCore),
			fmt.Sprint(int(100 / perCore)),
		})
	}
	t.Rows = append(t.Rows, []string{"ideal", "0.0", "3.125", "32"})
	return t, nil
}

// LockBound are the lock-bound applications of the spin-gating extension
// table.
var LockBound = []string{"raytrace", "unstructured", "waternsq", "fluidanimate"}

var spinGate = techSpec{label: "PTB+spingate", tech: ptbsim.PTBSpinGate, pol: ptbsim.Dynamic}

// FigExt reports the spin-gating extension (the paper's future work): PTB
// versus PTB+spingate on the lock-bound applications.
func FigExt(ctx context.Context, e *ptbsim.Experiment, benches []string, cores int) (*Table, error) {
	r, err := fetch(ctx, e, benches, []int{cores}, ptb(ptbsim.Dynamic), spinGate)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Extension",
		Title: fmt.Sprintf("PTB as a spin detector: sleep-gating flagged cores, %d-core CMP", cores),
		Header: []string{"Benchmark",
			"E.ptb%", "E.gated%", "slow.ptb%", "slow.gated%"},
	}
	t.perBench(benches, func(b string) []float64 {
		base := r.base(b, cores)
		plain, gated := r.get(b, cores, ptb(ptbsim.Dynamic)), r.get(b, cores, spinGate)
		return []float64{
			ptbsim.NormalizedEnergyPct(plain, base),
			ptbsim.NormalizedEnergyPct(gated, base),
			ptbsim.SlowdownPct(plain, base),
			ptbsim.SlowdownPct(gated, base),
		}
	})
	return t, nil
}

// MaxCycles is the per-run cycle cap of a figure build (WithMaxCycles),
// above the library's 50M default. It is part of every run's cache key,
// and the committed results_sweep.txt is generated under it.
const MaxCycles int64 = 80_000_000

// IDs names every artifact Build knows, in the order of a full build.
var IDs = []string{"table1", "table2", "fig2", "fig3", "fig4", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13", "fig14", "sec4d", "ext"}

// ErrUnknownID rejects an artifact id outside IDs.
var ErrUnknownID = errors.New("figures: unknown experiment")

// Params are the sweep dimensions of a build.
type Params struct {
	// Benches feed every per-benchmark table.
	Benches []string
	// CoreCounts are the CMP sizes of Figs 3, 4, 9 and 14.
	CoreCounts []int
	// BigCores is the CMP size of Figs 2 and 10–13, §IV-D and the
	// extension.
	BigCores int
	// Relax is Fig. 14's trigger-threshold relaxation.
	Relax float64
	// LockBound are the extension table's benchmarks.
	LockBound []string
}

// Configs lists every run the artifacts in IDs need under p, for a warm
// phase that simulates them as one RunAll batch before the builders
// assemble their tables from the cache.
func (p Params) Configs() []ptbsim.Config {
	coreCounts := p.CoreCounts
	if !slices.Contains(coreCounts, p.BigCores) {
		coreCounts = append(slices.Clip(coreCounts), p.BigCores)
	}
	techs := []techSpec{baseCase, dvfs, dfs, twoLevel,
		ptb(ptbsim.ToAll), ptb(ptbsim.ToOne), ptb(ptbsim.Dynamic)}
	if p.Relax > 0 {
		for _, pol := range []ptbsim.Policy{ptbsim.ToAll, ptbsim.ToOne} {
			rel := ptb(pol)
			rel.relax = p.Relax
			techs = append(techs, rel)
		}
	}
	cfgs := grid(p.Benches, coreCounts, techs)
	return append(cfgs, grid(p.LockBound, []int{p.BigCores},
		[]techSpec{baseCase, ptb(ptbsim.Dynamic), spinGate})...)
}

// Build builds the artifact named id (one of IDs) under p.
func Build(ctx context.Context, e *ptbsim.Experiment, id string, p Params) (*Table, error) {
	switch id {
	case "table1":
		return Table1(), nil
	case "table2":
		return Table2(), nil
	case "fig2":
		return Fig2(ctx, e, p.Benches, p.BigCores)
	case "fig3":
		return Fig3(ctx, e, p.Benches, p.CoreCounts)
	case "fig4":
		return Fig4(ctx, e, p.Benches, p.CoreCounts)
	case "fig8":
		return Fig8(), nil
	case "fig9":
		return Fig9(ctx, e, p.Benches, p.CoreCounts)
	case "fig10":
		return FigDetail(ctx, e, "Figure 10", p.Benches, p.BigCores, ptbsim.ToAll)
	case "fig11":
		return FigDetail(ctx, e, "Figure 11", p.Benches, p.BigCores, ptbsim.ToOne)
	case "fig12":
		return FigDetail(ctx, e, "Figure 12", p.Benches, p.BigCores, ptbsim.Dynamic)
	case "fig13":
		return Fig13(ctx, e, p.Benches, p.BigCores)
	case "fig14":
		return Fig14(ctx, e, p.Benches, p.CoreCounts, p.Relax)
	case "sec4d":
		return Sec4D(ctx, e, p.Benches, p.BigCores)
	case "ext":
		return FigExt(ctx, e, p.LockBound, p.BigCores)
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownID, id)
}

// NewParams builds the Params of a command-line build from its flag
// values. benches and cores are comma-separated lists, empty for the
// defaults (every Table-2 benchmark; the paper's core counts). Naming the
// benchmarks also makes them the extension table's set.
func NewParams(benches, cores string, bigCores int, relax float64) (Params, error) {
	p := Params{BigCores: bigCores, Relax: relax, LockBound: LockBound, CoreCounts: ptbsim.CoreCounts()}
	if benches != "" {
		p.Benches = strings.Split(benches, ",")
		p.LockBound = p.Benches
	} else {
		for _, b := range ptbsim.Benchmarks() {
			p.Benches = append(p.Benches, b.Name)
		}
	}
	if cores != "" {
		p.CoreCounts = nil
		for _, s := range strings.Split(cores, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return Params{}, fmt.Errorf("bad -cores: %w", err)
			}
			p.CoreCounts = append(p.CoreCounts, n)
		}
	}
	return p, nil
}

// Progress returns a WithProgress callback that reports every fresh
// (simulated, not cached) run to w as one line.
func Progress(w io.Writer) func(ptbsim.Progress) {
	return func(p ptbsim.Progress) {
		if p.Err != nil || p.Cached {
			return
		}
		c := p.Config
		key := fmt.Sprintf("%s/%d/%s/%s/%.2f", c.Benchmark, c.Cores, c.Technique, c.Policy, c.RelaxFrac)
		fmt.Fprintf(w, "ran %-36s cycles=%d\n", key, p.Result.Cycles)
	}
}
