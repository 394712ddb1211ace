// Command benchab summarizes an A/B benchmark run made by
// scripts/bench_ab.sh: a directory holding base-<i>.json and
// change-<i>.json, the result lines of perfbench runs taken in alternating
// pairs. For every end-to-end metric in BENCHMARK.json it prints each
// side's median and quartiles, the pairs the change won, and a verdict:
// a gain needs at least nine tenths of the pairs and a median gap wider
// than the base's quartile spread; a regression is a change worse than its
// paired base run by more than the metric's bound in every pair.
//
// It exits 1, after the whole summary, on a regression, on an incorrect
// change run, or on a change run that failed more ops than its base run.
//
//	go run ./scripts/benchab .bench_build/ab/matrix-4c-<stamp>
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type result struct {
	path      string
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmark struct {
	EndToEnd []metric `json:"end_to_end"`
}

// worseEveryPair is the verdict that fails the gate.
const worseEveryPair = "worse beyond bound in every pair"

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchab DIR")
		os.Exit(2)
	}
	if err := run("BENCHMARK.json", os.Args[1], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

// run prints the summary of the runs in dir against the end-to-end metrics
// of the benchmark file, and returns an error when the gate fails.
func run(benchmarkFile, dir string, w io.Writer) error {
	var bm benchmark
	if err := readJSON(benchmarkFile, &bm); err != nil {
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
	rows := make([]comparison, len(bm.EndToEnd))
	for i, m := range bm.EndToEnd {
		b, err := values(base, m.Name)
		if err != nil {
			return err
		}
		c, err := values(change, m.Name)
		if err != nil {
			return err
		}
		rows[i] = compare(m, b, c)
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
		fmt.Fprintf(w, "%-6s %d runs, %d incorrect, %d of %d ops failed\n", side.name, len(side.rs), incorrect, failed, attempted)
	}
	var fails []string
	for i, c := range change {
		if !c.Correct {
			fails = append(fails, c.path+" is incorrect")
		}
		if c.Failed > base[i].Failed {
			fails = append(fails, fmt.Sprintf("%s failed %d ops, its base run %d", c.path, c.Failed, base[i].Failed))
		}
	}
	fmt.Fprintf(w, "\n| metric | base median [q1, q3] | change median [q1, q3] | Δ median | change wins | verdict |\n|---|---|---|---:|---:|---|\n")
	for i, m := range bm.EndToEnd {
		r := rows[i]
		if r.verdict == worseEveryPair {
			fails = append(fails, m.Name+" is "+worseEveryPair)
		}
		fmt.Fprintf(w, "| %s (%s) | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %+.1f%% | %d/%d | %s |\n",
			m.Name, m.Unit, r.b[1], r.b[0], r.b[2], r.c[1], r.c[0], r.c[2], 100*(r.c[1]-r.b[1])/r.b[1], r.wins, len(base), r.verdict)
	}
	if len(fails) > 0 {
		return fmt.Errorf("gate failed: %s", strings.Join(fails, "; "))
	}
	return nil
}

// comparison is one metric's row of the summary: each side's quartiles,
// the pairs the change won and the verdict.
type comparison struct {
	b, c    [3]float64
	wins    int
	verdict string
}

// compare judges one metric from its paired base and change values.
func compare(m metric, b, c []float64) comparison {
	sign := 1.0 // sign * (change - base) is positive when the change is better
	if m.Better == "lower" {
		sign = -1
	}
	var r comparison
	worse := 0
	for i := range b {
		better := sign * (c[i] - b[i])
		if better > 0 {
			r.wins++
		}
		if -better > m.Bound*b[i] {
			worse++
		}
	}
	r.b[0], r.b[1], r.b[2] = quartiles(b)
	r.c[0], r.c[1], r.c[2] = quartiles(c)
	gap := sign * (r.c[1] - r.b[1])
	switch {
	case worse == len(b):
		r.verdict = worseEveryPair
	case 10*r.wins >= 9*len(b) && gap > r.b[2]-r.b[0]:
		r.verdict = "gain"
	case -gap > m.Bound*r.b[1]:
		r.verdict = fmt.Sprintf("unresolved: worse beyond bound in %d/%d pairs", worse, len(b))
	case r.b[2]-r.b[0] > m.Bound*r.b[1]:
		r.verdict = "unresolved: base spread above bound"
	default:
		r.verdict = "within bound"
	}
	return r
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
		r := result{path: path}
		if err := readJSON(path, &r); err != nil {
			return nil, err
		}
		rs = append(rs, r)
	}
}

// values returns each result's value of the named metric; a result line
// without it is an error, not a zero.
func values(rs []result, name string) ([]float64, error) {
	out := make([]float64, len(rs))
	for i, r := range rs {
		v, ok := r.Metrics[name]
		if !ok {
			return nil, fmt.Errorf("%s: no %s metric", r.path, name)
		}
		out[i] = v.Value
	}
	return out, nil
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
