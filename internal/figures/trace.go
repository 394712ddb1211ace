package figures

import (
	"context"
	"fmt"
	"io"
	"strings"

	"ptbsim"
)

// plot is a power trace and its budget line, which Render draws as an
// ASCII chart.
type plot struct {
	trace  []float64
	budget float64
}

// chartWidth is the number of columns of a drawn trace.
const chartWidth = 100

// PowerTrace reproduces a power-trace figure: Fig. 5 (id "fig5", the
// per-cycle CMP power of 4-core ocean around the global budget, the PTB
// motivation) or Fig. 6 (id "fig6", the per-cycle power of a raytrace
// core contending for a lock, against its even share of the budget).
//
// The run takes base's WorkloadScale, CheckInvariants and Faults and is
// otherwise fixed: 4 cores, no power control, a 20M-cycle cap. It calls
// RunContext directly, never an Experiment, because a result served from
// a cache carries no samples. The table's rows are the samples; Render
// draws them as a chart instead.
func PowerTrace(ctx context.Context, id string, base ptbsim.Config) (*Table, error) {
	cfg := ptbsim.Config{
		WorkloadScale:   base.WorkloadScale,
		CheckInvariants: base.CheckInvariants,
		Faults:          base.Faults,
		Cores:           4,
		Technique:       ptbsim.None,
		MaxCycles:       20_000_000,
	}
	t := &Table{Header: []string{"sample", "power_pj", "budget_pj"}}
	every, core := int64(50), -1 // core -1 traces the whole chip
	switch id {
	case "fig5":
		cfg.Benchmark = "ocean"
		t.ID, t.Title = "Figure 5", "per-cycle CMP power vs the global power budget (4-core ocean)"
	case "fig6":
		cfg.Benchmark, every, core = "raytrace", 10, 2
		t.ID, t.Title = "Figure 6", "per-cycle power of a core contending for a lock (raytrace)"
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownID, id)
	}
	mo := &ptbsim.MemoryObserver{}
	cfg.Observe = &ptbsim.Telemetry{Every: every, Observer: mo}
	res, err := ptbsim.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	t.plot = &plot{budget: res.BudgetPJ}
	if core >= 0 {
		// A core's local budget is the global budget split evenly.
		t.plot.budget /= float64(cfg.Cores)
	}
	for _, s := range mo.Samples() {
		// The partial tail sample is skipped to match the figures'
		// fixed-period grids.
		if s.Partial {
			continue
		}
		v := s.ChipPJ
		if core >= 0 {
			v = s.CorePJ[core]
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(len(t.plot.trace)), f1(v), f1(t.plot.budget)})
		t.plot.trace = append(t.plot.trace, v)
	}
	return t, nil
}

// draw writes the trace as rows of a horizontal ASCII chart, chartWidth
// columns wide, marking the budget line.
func (p *plot) draw(w io.Writer) {
	trace, budget, width := p.trace, p.budget, chartWidth
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
