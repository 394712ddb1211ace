// Spindetect reproduces Figure 6 and the paper's observation that PTB's
// token stream doubles as a spinlock detector: when a core enters a
// spinning state its per-cycle power drops after the initial computation
// peak and stabilizes well under the budget. The example records a core's
// power trace through a lock-contended run using the public API, renders
// it, and then applies the same low-and-stable power-pattern rule the PTB
// balancer uses (no instruction inspection, no performance counters).
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"ptbsim"
)

func main() {
	const traceEvery = 25
	var mem ptbsim.MemoryObserver
	res, err := ptbsim.RunContext(context.Background(), ptbsim.Config{
		Benchmark:     "fluidanimate", // heavy fine-grained locking
		Cores:         4,
		WorkloadScale: 0.12,
		Observe:       &ptbsim.Telemetry{Every: traceEvery, Observer: &mem},
	})
	if err != nil {
		log.Fatal(err)
	}
	// Core 2's power every traceEvery cycles; the partial tail epoch at the
	// end of the run is not a full sample period, so it is left out.
	var coreTrace []float64
	for _, s := range mem.Samples() {
		if !s.Partial {
			coreTrace = append(coreTrace, s.CorePJ[2])
		}
	}
	localBudget := res.BudgetPJ / float64(res.Cores)

	fmt.Println("Figure 6 — power signature of a core through lock contention")
	fmt.Printf("core 2 of a 4-core CMP running fluidanimate; local budget %.0f pJ/cycle\n\n", localBudget)

	// Power-pattern spin detection on the sampled trace: low (under 55% of
	// the local budget) and stable (EWMA deviation under 30% of the mean)
	// for a sustained window.
	const (
		alpha      = 0.25
		lowFrac    = 0.55
		stableFrac = 0.30
		minSamples = 6
	)
	mean, dev := coreTrace[0], 0.0
	run := 0
	spinSamples, spinEntries := 0, 0
	spinning := false
	flags := make([]bool, len(coreTrace))
	for i, v := range coreTrace {
		mean += alpha * (v - mean)
		ad := v - mean
		if ad < 0 {
			ad = -ad
		}
		dev += alpha * (ad - dev)
		if mean < lowFrac*localBudget && dev < stableFrac*mean {
			run++
		} else {
			run = 0
		}
		was := spinning
		spinning = run >= minSamples
		if spinning {
			spinSamples++
			flags[i] = true
		}
		if spinning && !was {
			spinEntries++
		}
	}

	renderTrace(coreTrace, flags, localBudget)

	fmt.Printf("\ndetected %d spinning episodes covering %.1f%% of samples\n",
		spinEntries, 100*float64(spinSamples)/float64(len(coreTrace)))
	fmt.Printf("ground truth from the simulator: %.1f%% of time in lock-acquire\n",
		res.LockAcqFrac*100)
	fmt.Println("\nPTB exploits this for free: a spinning core's spare tokens flow to")
	fmt.Println("the lock holder, which leaves its critical section sooner.")
}

// renderTrace draws a compact ASCII strip: one column per bucket of
// samples, '#' height proportional to power, with detected-spin columns
// marked underneath.
func renderTrace(trace []float64, flags []bool, budget float64) {
	const cols = 96
	const rows = 12
	per := (len(trace) + cols - 1) / cols
	if per < 1 {
		per = 1
	}
	maxV := budget * 1.2
	for _, v := range trace {
		if v > maxV {
			maxV = v
		}
	}
	heights := make([]int, 0, cols)
	spin := make([]bool, 0, cols)
	for i := 0; i < len(trace); i += per {
		end := i + per
		if end > len(trace) {
			end = len(trace)
		}
		avg := 0.0
		sp := true
		for j := i; j < end; j++ {
			avg += trace[j]
			sp = sp && flags[j]
		}
		avg /= float64(end - i)
		h := int(avg / maxV * rows)
		if h >= rows {
			h = rows - 1
		}
		heights = append(heights, h)
		spin = append(spin, sp)
	}
	budgetRow := int(budget / maxV * rows)
	for r := rows - 1; r >= 0; r-- {
		var b strings.Builder
		for c := range heights {
			switch {
			case heights[c] >= r:
				b.WriteByte('#')
			case r == budgetRow:
				b.WriteByte('-')
			default:
				b.WriteByte(' ')
			}
		}
		mark := " "
		if r == budgetRow {
			mark = "<- local budget"
		}
		fmt.Printf("%s %s\n", b.String(), mark)
	}
	var b strings.Builder
	for _, s := range spin {
		if s {
			b.WriteByte('s')
		} else {
			b.WriteByte('.')
		}
	}
	fmt.Printf("%s <- detected spinning\n", b.String())
}
