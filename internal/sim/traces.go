package sim

import "ptbsim/internal/workload"

// CoreCounts are the CMP sizes evaluated in the paper.
func CoreCounts() []int { return []int{2, 4, 8, 16} }

// Fig5Trace produces the per-cycle chip power trace versus the global
// budget for the PTB motivation figure. It returns subsampled chip power
// (pJ/cycle) and the budget line.
func Fig5Trace(scale float64) (trace []float64, budgetPJ float64) {
	spec, _ := workload.ByName("ocean")
	s, err := NewSystem(Config{
		Benchmark:     spec,
		Cores:         4,
		Technique:     TechNone,
		WorkloadScale: scale,
		TraceEvery:    50,
		MaxCycles:     20_000_000,
	})
	if err != nil {
		panic(err)
	}
	s.Run()
	return s.Collector().Trace(), s.GlobalBudgetPJ()
}

// Fig6Trace produces a single core's per-cycle power while it contends for
// a lock (the spinning-power-signature figure). It returns the subsampled
// core power and its local budget.
func Fig6Trace(scale float64) (coreTrace []float64, localBudgetPJ float64) {
	spec, _ := workload.ByName("raytrace")
	s, err := NewSystem(Config{
		Benchmark:     spec,
		Cores:         4,
		Technique:     TechNone,
		WorkloadScale: scale,
		TraceEvery:    10,
		TraceCore:     2,
		MaxCycles:     20_000_000,
	})
	if err != nil {
		panic(err)
	}
	s.Run()
	return s.CoreTrace(), s.GlobalBudgetPJ() / 4
}
