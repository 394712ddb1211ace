package main

import (
	"fmt"
	"io"
	"os"

	"ptbsim"
)

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
		return fmt.Errorf("ptbsweep: no telemetry samples in %s", path)
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
