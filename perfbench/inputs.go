package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"ptbsim"
)

// matrixGolden is the committed golden digest file matrix-4c replays.
const matrixGolden = "testdata/golden/matrix_scale025.txt"

// simOp is one golden cell: a configuration and the digest its Result must
// reproduce byte for byte.
type simOp struct {
	cfg    ptbsim.Config
	digest string
}

// goldenOps loads the cells of a golden file with the given core count.
// The configuration is rebuilt from each line's label the way cmd/ptbgolden
// generated it: PTB-family rows carry their policy, and invariants are on,
// since the final quiescent drain they add changes the NoC counts the
// digests pin.
func goldenOps(path string, cores int, scale float64) ([]simOp, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ops []simOp
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		label, _, _ := strings.Cut(line, " ")
		parts := strings.Split(label, "/")
		if len(parts) < 3 {
			return nil, fmt.Errorf("%s: bad label %q", path, label)
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("%s: bad core count in %q: %w", path, label, err)
		}
		if n != cores {
			continue
		}
		tech, err := ptbsim.ParseTechnique(parts[2])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		cfg := ptbsim.Config{Benchmark: parts[0], Cores: n, Technique: tech, WorkloadScale: scale, CheckInvariants: true}
		if len(parts) == 4 {
			if cfg.Policy, err = ptbsim.ParsePolicy(parts[3]); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
		}
		ops = append(ops, simOp{cfg: cfg, digest: line})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("%s: no %d-core rows", path, cores)
	}
	return ops, nil
}

// findOp returns the cell with the given label prefix.
func findOp(ops []simOp, label string) (simOp, error) {
	for _, op := range ops {
		if strings.HasPrefix(op.digest, label+" ") {
			return op, nil
		}
	}
	return simOp{}, fmt.Errorf("no golden cell %q", label)
}

// passOrder returns one pass over ops in a seeded order whose every prefix
// stays balanced across benchmarks: cells are grouped by technique, the
// groups are shuffled and so are the cells inside each. A run that stops
// mid-pass has therefore done whole rounds of benchmarks, whose costs
// differ the most, and its op mix barely depends on the seed.
func passOrder(ops []simOp, rng *rand.Rand) []simOp {
	groups := map[string][]simOp{}
	var techs []string
	for _, op := range ops {
		t := string(op.cfg.Technique)
		if _, ok := groups[t]; !ok {
			techs = append(techs, t)
		}
		groups[t] = append(groups[t], op)
	}
	var out []simOp
	for _, gi := range rng.Perm(len(techs)) {
		g := groups[techs[gi]]
		for _, i := range rng.Perm(len(g)) {
			out = append(out, g[i])
		}
	}
	return out
}

// simSchedule concatenates seeded passes until it holds at least n ops.
func simSchedule(ops []simOp, seed int64, n int) []simOp {
	rng := rand.New(rand.NewSource(seed))
	var out []simOp
	for len(out) < n {
		out = append(out, passOrder(ops, rng)...)
	}
	return out
}

// ptbFamily reports whether the technique runs the PTB balancer, the only
// ones a policy applies to.
func ptbFamily(t ptbsim.Technique) bool { return t == ptbsim.PTB || t == ptbsim.PTBSpinGate }

// coldScale is the workload scale of serve-cold's configurations:
// ptbserve's default. At 0.05, the shortest 4-core run, runs of one commit
// spread half again as much as at 0.25 (17.2 to 26.9 ops/s against 7.6 to
// 9.9 in eight interleaved pairs), likely because the store and journal
// fsyncs on each op's path weigh more next to a short run.
const coldScale = 0.25

// coldBudgets is the size of the budget-fraction grid coldConfigs draws
// from: 0.4000 to 0.9999 in steps of 0.0001, the precision of the
// service's cache key.
const coldBudgets = 6000

// coldConfigs draws n (at most coldBudgets) configurations a fresh server
// has never seen: a seeded benchmark (in shuffled rounds of all 14, like
// passOrder) and technique, and a distinct budget fraction per op from a
// seeded permutation of the grid, so every op is exactly one fresh
// simulation and no two ops share a cache key.
func coldConfigs(seed int64, n int) []ptbsim.Config {
	rng := rand.New(rand.NewSource(seed))
	var benches []string
	for _, b := range ptbsim.Benchmarks() {
		benches = append(benches, b.Name)
	}
	techs := ptbsim.TechniqueNames()
	budgets := rng.Perm(coldBudgets)[:n]
	var round []int
	out := make([]ptbsim.Config, n)
	for i := range out {
		if len(round) == 0 {
			round = rng.Perm(len(benches))
		}
		tech, _ := ptbsim.ParseTechnique(techs[rng.Intn(len(techs))]) // names come from TechniqueNames
		cfg := ptbsim.Config{
			Benchmark:     benches[round[0]],
			Cores:         4,
			Technique:     tech,
			BudgetFrac:    0.40 + 0.0001*float64(budgets[i]),
			WorkloadScale: coldScale,
		}
		round = round[1:]
		if ptbFamily(tech) {
			cfg.Policy = ptbsim.Dynamic
		}
		out[i] = cfg
	}
	return out
}

// coldWarmUp is the set-up of serve-cold: four fixed fresh simulations,
// outside the budget grid coldConfigs draws from, sent like the timed
// phase's ops, so that set-up is real work rather than the jitter of one
// boot.
func coldWarmUp() []ptbsim.Config {
	var out []ptbsim.Config
	for i := 0; i < 4; i++ {
		out = append(out, ptbsim.Config{Benchmark: "fft", Cores: 4, Technique: ptbsim.PTB, Policy: ptbsim.Dynamic,
			BudgetFrac: 0.30 + 0.01*float64(i), WorkloadScale: coldScale})
	}
	return out
}

// inputHash fingerprints a generated op list, so two runs with one seed
// are shown to send identical inputs.
func inputHash(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // configs and ints always marshal
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("sha256=%x", sum[:8])
}

func simConfigs(ops []simOp) []ptbsim.Config {
	out := make([]ptbsim.Config, len(ops))
	for i, op := range ops {
		out[i] = op.cfg
	}
	return out
}
