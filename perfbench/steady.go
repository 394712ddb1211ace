package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// steadiness runs the workload `runs` times per set, each run a fresh
// process with its own seed, and prints every end-to-end metric's median,
// quartiles, (q3−q1)/median and (max−min)/median. It flags each metric
// whose quartile spread, or whose range, exceeds its bound in
// BENCHMARK.json. With more than one set it compares each set's medians
// with the first set's and flags any that moved, either way, by more than
// the bound: two sets of the same code must agree.
func steadiness(name, build string, seconds, runs, sets int, out string) error {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var medians []map[string]float64
	summary := map[string]any{"workload": name, "seconds": seconds, "runs": runs}
	var setsOut []map[string][]float64
	for s := 0; s < sets; s++ {
		vals := map[string][]float64{}
		for r := 0; r < runs; r++ {
			seed := s*100 + r + 1
			cmd := exec.Command(self, "-build", build, "-workload", name, "-seed", strconv.Itoa(seed),
				"-seconds", strconv.Itoa(seconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("set %d seed %d: %w", s+1, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var o outcome
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
				return fmt.Errorf("set %d seed %d: result line: %w", s+1, seed, err)
			}
			var parts []string
			for _, b := range bounds {
				m, ok := o.Metrics[b.Name]
				if !ok {
					return fmt.Errorf("set %d seed %d: no %s in the result", s+1, seed, b.Name)
				}
				vals[b.Name] = append(vals[b.Name], m.Value)
				parts = append(parts, fmt.Sprintf("%s=%.4f", b.Name, m.Value))
			}
			for _, l := range lines {
				if v, ok := strings.CutPrefix(l, stealLine); ok {
					parts = append(parts, "steal="+strings.ReplaceAll(strings.TrimSpace(v), " ", ""))
				}
			}
			fmt.Printf("set %d seed %3d: correct=%t attempted=%d failed=%d %s\n",
				s+1, seed, o.Correct, o.Attempted, o.Failed, strings.Join(parts, " "))
		}
		fmt.Printf("\n%s, set %d: %d runs of %d s\n", name, s+1, runs, seconds)
		fmt.Printf("%-12s %-5s %12s %12s %12s %9s %9s %6s  %s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "range/med", "bound", "verdict")
		med := map[string]float64{}
		for _, b := range bounds {
			xs := vals[b.Name]
			q1, q2, q3 := quartiles(xs)
			s := sortedCopy(xs)
			iqr, rng := (q3-q1)/q2, (s[len(s)-1]-s[0])/q2
			verdict := "ok"
			switch {
			case iqr > b.Bound:
				verdict = "IQR ABOVE BOUND"
			case rng > b.Bound:
				verdict = "RANGE ABOVE BOUND"
			case iqr > b.Bound/3:
				verdict = "iqr above a third of the bound"
			}
			fmt.Printf("%-12s %-5s %12.4f %12.4f %12.4f %9.4f %9.4f %6.3f  %s\n", b.Name, b.Unit, q2, q1, q3, iqr, rng, b.Bound, verdict)
			med[b.Name] = q2
		}
		medians = append(medians, med)
		setsOut = append(setsOut, vals)
		fmt.Println()
	}
	for s := 1; s < len(medians); s++ {
		fmt.Printf("%s, set %d against set 1 (positive = worse)\n", name, s+1)
		for _, b := range bounds {
			worse := (medians[s][b.Name] - medians[0][b.Name]) / medians[0][b.Name]
			if b.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if math.Abs(worse) > b.Bound {
				verdict = "MEDIANS DIFFER BY MORE THAN THE BOUND"
			}
			fmt.Printf("%-12s %12.4f -> %12.4f %+8.4f (bound %.3f)  %s\n", b.Name, medians[0][b.Name], medians[s][b.Name], worse, b.Bound, verdict)
		}
		fmt.Println()
	}
	summary["sets"] = setsOut
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(out, fmt.Sprintf("steady-%s.json", name))
	fmt.Printf("values: %s\n", path)
	return os.WriteFile(path, data, 0o644)
}
