package ptbsim_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"ptbsim"
)

func TestConfigValidate(t *testing.T) {
	valid := ptbsim.Config{Benchmark: "fft", Cores: 2}
	cases := []struct {
		name string
		mut  func(*ptbsim.Config)
		want error // nil = config must validate
	}{
		{"minimal valid", func(c *ptbsim.Config) {}, nil},
		{"zero cores selects default", func(c *ptbsim.Config) { c.Cores = 0 }, nil},
		{"all techniques valid", func(c *ptbsim.Config) { c.Technique = ptbsim.MaxBIPS }, nil},
		{"full knobs valid", func(c *ptbsim.Config) {
			c.Technique = ptbsim.PTB
			c.Policy = ptbsim.Dynamic
			c.RelaxFrac = 0.2
			c.BudgetFrac = 0.5
			c.WorkloadScale = 0.25
			c.MaxCycles = 1000
			c.PTBClusterSize = 4
		}, nil},
		{"unknown benchmark", func(c *ptbsim.Config) { c.Benchmark = "linpack" }, ptbsim.ErrUnknownBenchmark},
		{"empty benchmark", func(c *ptbsim.Config) { c.Benchmark = "" }, ptbsim.ErrUnknownBenchmark},
		{"negative cores", func(c *ptbsim.Config) { c.Cores = -1 }, ptbsim.ErrBadCores},
		{"cores above bound", func(c *ptbsim.Config) { c.Cores = ptbsim.MaxCores + 1 }, ptbsim.ErrBadCores},
		{"unknown technique", func(c *ptbsim.Config) { c.Technique = "turbo" }, ptbsim.ErrUnknownTechnique},
		{"unknown policy", func(c *ptbsim.Config) { c.Policy = ptbsim.Policy(99) }, ptbsim.ErrUnknownPolicy},
		{"negative scale", func(c *ptbsim.Config) { c.WorkloadScale = -0.5 }, ptbsim.ErrBadScale},
		{"budget above one", func(c *ptbsim.Config) { c.BudgetFrac = 1.5 }, ptbsim.ErrBadBudget},
		{"negative relax", func(c *ptbsim.Config) { c.RelaxFrac = -0.1 }, ptbsim.ErrBadRelax},
		{"negative max cycles", func(c *ptbsim.Config) { c.MaxCycles = -1 }, ptbsim.ErrBadMaxCycles},
		{"negative cluster", func(c *ptbsim.Config) { c.PTBClusterSize = -2 }, ptbsim.ErrBadCluster},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want errors.Is(..., %v)", err, tc.want)
			}
		})
	}
}

func TestRunContextRejectsInvalidConfig(t *testing.T) {
	_, err := ptbsim.RunContext(context.Background(), ptbsim.Config{Benchmark: "nope"})
	if !errors.Is(err, ptbsim.ErrUnknownBenchmark) {
		t.Fatalf("err = %v, want ErrUnknownBenchmark", err)
	}
}

func TestParseTechnique(t *testing.T) {
	cases := []struct {
		in      string
		want    ptbsim.Technique
		wantErr bool
	}{
		{"none", ptbsim.None, false},
		{"dvfs", ptbsim.DVFS, false},
		{"dfs", ptbsim.DFS, false},
		{"2level", ptbsim.TwoLevel, false},
		{"twolevel", ptbsim.TwoLevel, false}, // documented alias
		{"ptb", ptbsim.PTB, false},
		{"ptbgate", ptbsim.PTBSpinGate, false},
		{"maxbips", ptbsim.MaxBIPS, false},
		{"PTB", ptbsim.PTB, false},   // case-insensitive
		{" ptb ", ptbsim.PTB, false}, // trimmed
		{"MaxBIPS", ptbsim.MaxBIPS, false},
		{"", "", true},
		{"turbo", "", true},
	}
	for _, tc := range cases {
		got, err := ptbsim.ParseTechnique(tc.in)
		if tc.wantErr {
			if !errors.Is(err, ptbsim.ErrUnknownTechnique) {
				t.Errorf("ParseTechnique(%q) err = %v, want ErrUnknownTechnique", tc.in, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseTechnique(%q) = %q, %v, want %q", tc.in, got, err, tc.want)
		}
	}
	// The help list must cover every technique, ptbgate and maxbips
	// included (the old -tech usage string omitted them).
	names := ptbsim.TechniqueNames()
	want := []string{"none", "dvfs", "dfs", "2level", "ptb", "ptbgate", "maxbips"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("TechniqueNames() = %v, want %v", names, want)
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in      string
		want    ptbsim.Policy
		wantErr bool
	}{
		{"toall", ptbsim.ToAll, false},
		{"toone", ptbsim.ToOne, false},
		{"dynamic", ptbsim.Dynamic, false},
		{"ToAll", ptbsim.ToAll, false},
		{" DYNAMIC ", ptbsim.Dynamic, false},
		{"", 0, true},
		{"fair", 0, true},
	}
	for _, tc := range cases {
		got, err := ptbsim.ParsePolicy(tc.in)
		if tc.wantErr {
			if !errors.Is(err, ptbsim.ErrUnknownPolicy) {
				t.Errorf("ParsePolicy(%q) err = %v, want ErrUnknownPolicy", tc.in, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v, want %v", tc.in, got, err, tc.want)
		}
	}
}

func TestSweepConfigs(t *testing.T) {
	s := ptbsim.Sweep{
		Benchmarks: []string{"fft"},
		CoreCounts: []int{2},
		Techniques: []ptbsim.Technique{ptbsim.None, ptbsim.DVFS, ptbsim.PTB},
		Policies:   []ptbsim.Policy{ptbsim.ToAll, ptbsim.ToOne, ptbsim.Dynamic},
		RelaxFracs: []float64{0, 0.2},
	}
	cfgs := s.Configs()
	// The policy dimension collapses for None and DVFS (1 config each),
	// and the relax dimension collapses for both too; PTB expands to
	// 3 policies × 2 relax values.
	want := 1 + 1 + 3*2
	if len(cfgs) != want {
		t.Fatalf("len(Configs) = %d, want %d", len(cfgs), want)
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		if c.Benchmark != "fft" || c.Cores != 2 {
			t.Fatalf("unexpected benchmark/cores in %+v", c)
		}
		key := string(c.Technique) + "/" + c.Policy.String()
		if c.RelaxFrac != 0 {
			key += "/relaxed"
		}
		if seen[key] {
			t.Fatalf("duplicate config %s", key)
		}
		seen[key] = true
		if err := c.Validate(); err != nil {
			t.Fatalf("generated config invalid: %v", err)
		}
	}

	// The zero sweep is the full base-case grid: 14 benchmarks × 4 sizes.
	if n := len((ptbsim.Sweep{}).Configs()); n != len(ptbsim.Benchmarks())*len(ptbsim.CoreCounts()) {
		t.Fatalf("zero Sweep has %d configs", n)
	}
}

// testSweep is a small but real grid used by the engine tests below.
func testSweep() ptbsim.Sweep {
	return ptbsim.Sweep{
		Benchmarks: []string{"fft", "radix"},
		CoreCounts: []int{2},
		Techniques: []ptbsim.Technique{ptbsim.None, ptbsim.DVFS, ptbsim.PTB},
		Policies:   []ptbsim.Policy{ptbsim.ToAll, ptbsim.Dynamic},
	}
}

// TestParallelMatchesSerial is the engine's determinism contract: the same
// sweep run serially and on a parallel pool must produce identical results.
// Run under -race this also exercises the engine for data races.
func TestParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	sweep := testSweep()

	serialExp := ptbsim.NewExperiment(ptbsim.WithScale(0.05), ptbsim.WithParallelism(1))
	serial, err := serialExp.RunSweep(ctx, sweep)
	if err != nil {
		t.Fatal(err)
	}
	parExp := ptbsim.NewExperiment(ptbsim.WithScale(0.05), ptbsim.WithParallelism(4))
	par, err := parExp.RunSweep(ctx, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], par[i]) {
			t.Errorf("result %d differs between serial and parallel runs:\nserial: %+v\npar:    %+v",
				i, serial[i], par[i])
		}
	}
}

// TestConcurrentRunsCoalesce checks the single-flight contract at the
// public layer: many goroutines requesting one configuration must share a
// single simulation (and, under -race, do so without races).
func TestConcurrentRunsCoalesce(t *testing.T) {
	cfg := ptbsim.Config{Benchmark: "fft", Cores: 2, Technique: ptbsim.PTB}

	var fresh int
	var mu sync.Mutex
	done := make(chan struct{})
	expProg := ptbsim.NewExperiment(ptbsim.WithScale(0.05), ptbsim.WithParallelism(4),
		ptbsim.WithProgress(func(p ptbsim.Progress) {
			mu.Lock()
			if !p.Cached {
				fresh++
			}
			mu.Unlock()
		}))
	const n = 8
	results := make([]*ptbsim.Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := expProg.Run(context.Background(), cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("concurrent runs did not finish")
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("result %d is a distinct object — run was not coalesced", i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if fresh != 1 {
		t.Fatalf("%d fresh simulations for one config, want 1", fresh)
	}
}

// TestCacheKeyKeepsFullFloatPrecision checks that an Experiment never
// serves one configuration's result for another whose float fields differ
// only past the fourth decimal: the two budgets below produce different
// digests when run directly, so they must miss each other's cache entry.
func TestCacheKeyKeepsFullFloatPrecision(t *testing.T) {
	ctx := context.Background()
	cfg := func(budget float64) ptbsim.Config {
		return ptbsim.Config{Benchmark: "ocean", Cores: 4, Technique: ptbsim.PTB,
			Policy: ptbsim.Dynamic, BudgetFrac: budget, WorkloadScale: 0.05}
	}
	a, b := cfg(0.50001), cfg(0.50004)
	wantA, err := ptbsim.RunContext(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := ptbsim.RunContext(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if wantA.Digest() == wantB.Digest() {
		t.Fatalf("budgets %v and %v give one digest; pick configs that differ", a.BudgetFrac, b.BudgetFrac)
	}

	var cached []bool
	e := ptbsim.NewExperiment(ptbsim.WithParallelism(1),
		ptbsim.WithProgress(func(p ptbsim.Progress) { cached = append(cached, p.Cached) }))
	for _, c := range []struct {
		cfg  ptbsim.Config
		want *ptbsim.Result
	}{{a, wantA}, {b, wantB}} {
		got, err := e.Run(ctx, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Digest() != c.want.Digest() {
			t.Errorf("BudgetFrac %v through the experiment:\n got  %s\n want %s",
				c.cfg.BudgetFrac, got.Digest(), c.want.Digest())
		}
	}
	if !reflect.DeepEqual(cached, []bool{false, false}) {
		t.Errorf("cached flags %v, want both runs fresh", cached)
	}
}

// TestSweepCancellation: cancelling mid-sweep must return promptly with an
// error wrapping context.Canceled.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	exp := ptbsim.NewExperiment(ptbsim.WithScale(1.0), ptbsim.WithParallelism(2),
		ptbsim.WithProgress(func(ptbsim.Progress) { cancel() }))

	// Full-scale runs take long enough that cancellation after the first
	// completed config must cut the rest of the sweep short.
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := exp.RunSweep(ctx, ptbsim.Sweep{
			Benchmarks: []string{"ocean", "raytrace", "barnes", "cholesky"},
			CoreCounts: []int{8, 16},
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want wrapped context.Canceled", err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("cancelled sweep did not return promptly")
	}
	t.Logf("sweep returned %s after cancellation", time.Since(start).Round(time.Millisecond))
}

func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	exp := ptbsim.NewExperiment(ptbsim.WithScale(0.05))
	if _, err := exp.Run(ctx, ptbsim.Config{Benchmark: "fft", Cores: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

// TestProgressStreaming checks that a sweep reports one serialized event
// per configuration with a consistent Done/Total ramp.
func TestProgressStreaming(t *testing.T) {
	var mu sync.Mutex
	var events []ptbsim.Progress
	exp := ptbsim.NewExperiment(ptbsim.WithScale(0.05), ptbsim.WithParallelism(4),
		ptbsim.WithProgress(func(p ptbsim.Progress) {
			mu.Lock()
			events = append(events, p)
			mu.Unlock()
		}))
	sweep := testSweep()
	total := len(sweep.Configs())
	if _, err := exp.RunSweep(context.Background(), sweep); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != total {
		t.Fatalf("%d progress events, want %d", len(events), total)
	}
	for i, p := range events {
		if p.Err != nil {
			t.Fatalf("event %d carries error %v", i, p.Err)
		}
		if p.Result == nil {
			t.Fatalf("event %d has nil result", i)
		}
		if p.Total != total || p.Done != i+1 {
			t.Fatalf("event %d has Done/Total %d/%d, want %d/%d", i, p.Done, p.Total, i+1, total)
		}
	}
}

func TestNormalizationHelpers(t *testing.T) {
	base := &ptbsim.Result{Cycles: 1000, EnergyJ: 2.0, AoPBJ: 0.5}
	r := &ptbsim.Result{Cycles: 1100, EnergyJ: 1.8, AoPBJ: 0.1}
	if got := ptbsim.SlowdownPct(r, base); got < 9.99 || got > 10.01 {
		t.Errorf("SlowdownPct = %v, want 10", got)
	}
	if got := ptbsim.NormalizedEnergyPct(r, base); got < -10.01 || got > -9.99 {
		t.Errorf("NormalizedEnergyPct = %v, want -10", got)
	}
	if got := ptbsim.NormalizedAoPBPct(r, base); got < 19.99 || got > 20.01 {
		t.Errorf("NormalizedAoPBPct = %v, want 20", got)
	}
	// Zero-valued bases must not divide by zero.
	zero := &ptbsim.Result{}
	if got := ptbsim.SlowdownPct(r, zero); got != 0 {
		t.Errorf("SlowdownPct(zero base) = %v", got)
	}
	if got := ptbsim.NormalizedEnergyPct(r, zero); got != 0 {
		t.Errorf("NormalizedEnergyPct(zero base) = %v", got)
	}
	if got := ptbsim.NormalizedAoPBPct(r, zero); got != 0 {
		t.Errorf("NormalizedAoPBPct(zero base) = %v", got)
	}
}
