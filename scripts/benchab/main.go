// Command benchab summarizes an A/B benchmark run made by
// scripts/bench_ab.sh: a directory holding base-<i>.json and
// change-<i>.json, the result lines of perfbench runs taken in alternating
// pairs. For every end-to-end metric in BENCHMARK.json it prints each
// side's median and quartiles, the pairs the change won, and a verdict:
// a gain needs at least nine tenths of the pairs and a median gap wider
// than the base's quartile spread; a loss is a median worse than the
// base's by more than the metric's bound.
//
//	go run ./scripts/benchab .bench_build/ab/matrix-4c-<stamp>
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

type benchmark struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchab DIR")
		os.Exit(2)
	}
	if err := run(os.Args[1]); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

func run(dir string) error {
	var bm benchmark
	if err := readJSON("BENCHMARK.json", &bm); err != nil {
		return err
	}
	base, err := readSide(dir, "base")
	if err != nil {
		return err
	}
	change, err := readSide(dir, "change")
	if err != nil {
		return err
	}
	if len(base) != len(change) || len(base) == 0 {
		return fmt.Errorf("%s: %d base and %d change results, want equal and non-zero", dir, len(base), len(change))
	}
	for _, side := range []struct {
		name string
		rs   []result
	}{{"base", base}, {"change", change}} {
		var attempted, failed, incorrect int
		for _, r := range side.rs {
			attempted += r.Attempted
			failed += r.Failed
			if !r.Correct {
				incorrect++
			}
		}
		fmt.Printf("%-6s %d runs, %d incorrect, %d of %d ops failed\n", side.name, len(side.rs), incorrect, failed, attempted)
	}
	fmt.Printf("\n| metric | base median [q1, q3] | change median [q1, q3] | Δ median | change wins | verdict |\n|---|---|---|---:|---:|---|\n")
	for _, m := range bm.EndToEnd {
		b, c := values(base, m.Name), values(change, m.Name)
		lower := m.Better == "lower"
		wins := 0
		for i := range b {
			if (lower && c[i] < b[i]) || (!lower && c[i] > b[i]) {
				wins++
			}
		}
		b1, bm2, b3 := quartiles(b)
		c1, cm, c3 := quartiles(c)
		gap := cm - bm2
		if lower {
			gap = -gap // positive gap: the change is better
		}
		verdict := "within bound"
		switch {
		case 10*wins >= 9*len(b) && gap > b3-b1:
			verdict = "gain"
		case -gap > m.Bound*bm2:
			verdict = "worse beyond bound"
		case b3-b1 > m.Bound*bm2:
			verdict = "unresolved: base spread above bound"
		}
		fmt.Printf("| %s (%s) | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %+.1f%% | %d/%d | %s |\n",
			m.Name, m.Unit, bm2, b1, b3, cm, c1, c3, 100*(cm-bm2)/bm2, wins, len(b), verdict)
	}
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// readSide loads <side>-1.json, <side>-2.json, ... up to the first gap.
func readSide(dir, side string) ([]result, error) {
	var rs []result
	for i := 1; ; i++ {
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", side, i))
		if _, err := os.Stat(path); err != nil {
			return rs, nil
		}
		var r result
		if err := readJSON(path, &r); err != nil {
			return nil, err
		}
		rs = append(rs, r)
	}
}

func values(rs []result, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// quartiles returns the cut points of Python's statistics.quantiles(xs,
// n=4) (exclusive method), as perfbench's steadiness report does.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - 4*j
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
