package ptbsim_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"ptbsim"
)

// telemetryTestConfigs is the small cross-technique grid the telemetry
// identity tests run at scale 0.05 — the same set the parallelism-
// independence test uses, so the two "results never depend on X" gates
// cover identical ground.
func telemetryTestConfigs() []ptbsim.Config {
	return []ptbsim.Config{
		{Benchmark: "ocean", Cores: 4, Technique: ptbsim.None},
		{Benchmark: "ocean", Cores: 4, Technique: ptbsim.PTB, Policy: ptbsim.Dynamic},
		{Benchmark: "raytrace", Cores: 4, Technique: ptbsim.PTB, Policy: ptbsim.ToOne},
		{Benchmark: "fft", Cores: 4, Technique: ptbsim.TwoLevel},
	}
}

// TestDigestTelemetryIndependence demands byte-identical digests with an
// observer attached and without: observation is passive, so telemetry must
// never perturb a simulation. This is the zero-cost contract of the
// observability layer in its cheapest-to-run form; the non-short
// TestTelemetryGoldenMatrix pins the same property across the full matrix.
func TestDigestTelemetryIndependence(t *testing.T) {
	cfgs := telemetryTestConfigs()
	digests := func(opts ...ptbsim.Option) []string {
		e := ptbsim.NewExperiment(append([]ptbsim.Option{
			ptbsim.WithScale(0.05),
			ptbsim.WithInvariants(),
		}, opts...)...)
		results, err := e.RunAll(context.Background(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(results))
		for i, r := range results {
			out[i] = r.Digest()
		}
		return out
	}
	bare := digests()
	mo := &ptbsim.MemoryObserver{}
	observed := digests(ptbsim.WithObserver(512, mo))
	for i := range bare {
		if bare[i] != observed[i] {
			t.Errorf("config %d: digest depends on telemetry:\n off %s\n on  %s",
				i, bare[i], observed[i])
		}
	}
	// The observer must actually have seen every run: samples from all
	// four configurations and one run-completion event per config.
	if got := len(mo.Runs()); got != len(cfgs) {
		t.Errorf("ObserveRun fired %d times, want %d", got, len(cfgs))
	}
	seen := map[string]bool{}
	for _, s := range mo.Samples() {
		seen[s.Bench+"/"+s.Tech] = true
	}
	for _, cfg := range cfgs {
		key := cfg.Benchmark + "/" + string(cfg.Technique)
		if !seen[key] {
			t.Errorf("no telemetry samples from %s", key)
		}
	}
}

// TestTelemetryEnergyIdentity checks the recorder's accounting against the
// run's headline result: for each run, the epoch energies (including the
// partial tail flush) must telescope back to the total chip energy the
// metrics collector reports. A drift here means an epoch was dropped,
// double-counted, or sampled off the meter.
func TestTelemetryEnergyIdentity(t *testing.T) {
	for _, cfg := range telemetryTestConfigs() {
		mo := &ptbsim.MemoryObserver{}
		cfg.WorkloadScale = 0.05
		cfg.CheckInvariants = true
		cfg.Observe = &ptbsim.Telemetry{Every: 1000, Observer: mo}
		res, err := ptbsim.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", cfg.Benchmark, cfg.Technique, err)
		}
		var sumPJ float64
		var cycles int64
		for _, s := range mo.Samples() {
			for _, e := range s.EpochPJ {
				sumPJ += e
			}
			cycles += s.Cycles
		}
		wantPJ := res.EnergyJ * 1e12
		if diff := math.Abs(sumPJ - wantPJ); diff > 1e-6*wantPJ+1e-6 {
			t.Errorf("%s/%s: epoch energies sum to %.3f pJ, result says %.3f pJ",
				cfg.Benchmark, cfg.Technique, sumPJ, wantPJ)
		}
		if cycles != res.Cycles {
			t.Errorf("%s/%s: epochs cover %d cycles, run took %d",
				cfg.Benchmark, cfg.Technique, cycles, res.Cycles)
		}
	}
}

// TestTelemetryGoldenMatrix reruns the full golden matrix with a JSONL
// observer attached and demands (a) every digest byte-identical to the
// committed baseline — the observability-on half of the zero-cost
// contract — and (b) a well-formed merged feed: parseable, covering every
// configuration and every core, with per-run epochs numbered contiguously
// from zero and one run-completion record per configuration.
func TestTelemetryGoldenMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix (98 runs) skipped in -short")
	}
	want := readGoldenMatrix(t)

	var buf bytes.Buffer
	jo := ptbsim.NewJSONLObserver(&buf)
	e := ptbsim.NewExperiment(
		ptbsim.WithScale(0.25),
		ptbsim.WithParallelism(8),
		ptbsim.WithInvariants(),
		ptbsim.WithObserver(8192, jo),
	)
	results, err := e.RunSweep(context.Background(), goldenMatrixSweep(t))
	if err != nil {
		t.Fatalf("golden matrix run failed: %v", err)
	}
	if err := jo.Err(); err != nil {
		t.Fatalf("telemetry sink error: %v", err)
	}
	if len(results) != len(want) {
		t.Fatalf("matrix has %d runs, golden file has %d digests", len(results), len(want))
	}
	for i, r := range results {
		if got := r.Digest(); got != want[i] {
			t.Errorf("digest drift with telemetry attached at line %d:\n got  %s\n want %s",
				i+1, got, want[i])
		}
	}

	feed := buf.String()
	if got := strings.Count(feed, `"run":`); got != len(results) {
		t.Errorf("feed has %d run-completion records, want %d", got, len(results))
	}
	samples, err := ptbsim.ReadTelemetry(strings.NewReader(feed))
	if err != nil {
		t.Fatalf("feed does not round-trip: %v", err)
	}
	if len(samples) == 0 {
		t.Fatal("feed holds no samples")
	}
	epochs := map[string][]int64{}
	for _, s := range samples {
		if s.Cores != 4 || len(s.CorePJ) != 4 || len(s.EpochPJ) != 4 {
			t.Fatalf("sample from %s/%s is not 4-core shaped: %+v", s.Bench, s.Tech, s)
		}
		key := fmt.Sprintf("%s/%s/%s", s.Bench, s.Tech, s.Policy)
		epochs[key] = append(epochs[key], s.Epoch)
	}
	for _, r := range results {
		key := fmt.Sprintf("%s/%s/%s", r.Benchmark, r.Technique, r.Policy)
		es := epochs[key]
		if len(es) == 0 {
			t.Errorf("no samples from %s", key)
			continue
		}
		// The shared feed interleaves runs, but each run's own epochs
		// arrive in order and numbered 0..n-1.
		for i, e := range es {
			if e != int64(i) {
				t.Errorf("%s: epoch %d arrived in position %d", key, e, i)
				break
			}
		}
	}
}

// TestReadTelemetrySkipsRunRecords pins the feed-demultiplexing rule: a
// line with a "run" key is a run-completion record, everything else is a
// sample, and malformed lines report their line number.
func TestReadTelemetrySkipsRunRecords(t *testing.T) {
	var buf bytes.Buffer
	jo := ptbsim.NewJSONLObserver(&buf)
	s := &ptbsim.Sample{Bench: "fft", Cores: 2, Tech: "ptb", Epoch: 0, Cycle: 100,
		CorePJ: []float64{1, 2}}
	jo.Observe(s)
	jo.ObserveRun(ptbsim.Progress{Config: ptbsim.Config{Benchmark: "fft", Cores: 2, Technique: ptbsim.PTB}})
	s.Epoch, s.Cycle = 1, 200
	jo.Observe(s)
	if err := jo.Err(); err != nil {
		t.Fatal(err)
	}

	got, err := ptbsim.ReadTelemetry(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Epoch != 0 || got[1].Epoch != 1 {
		t.Fatalf("got %d samples %+v, want the two sample lines", len(got), got)
	}

	if _, err := ptbsim.ReadTelemetry(strings.NewReader("{}\nnot json\n")); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Fatalf("malformed line error %v does not carry its line number", err)
	}
}

// TestCSVObserverRejectsMixedCores pins the CSV sink's shape rule: the
// header is derived from the first sample's core count and later samples
// of a different width latch an error instead of writing ragged rows.
func TestCSVObserverRejectsMixedCores(t *testing.T) {
	var buf bytes.Buffer
	co := ptbsim.NewCSVObserver(&buf)
	co.Observe(&ptbsim.Sample{Bench: "fft", Cores: 2,
		CorePJ: []float64{1, 2}, TokensPJ: []float64{1, 2}, EpochPJ: []float64{1, 2},
		Modes: []int{0, 0}, Classes: []int{0, 0}})
	if err := co.Err(); err != nil {
		t.Fatal(err)
	}
	co.Observe(&ptbsim.Sample{Bench: "fft", Cores: 4,
		CorePJ: []float64{1, 2, 3, 4}, TokensPJ: []float64{1, 2, 3, 4}, EpochPJ: []float64{1, 2, 3, 4},
		Modes: []int{0, 0, 0, 0}, Classes: []int{0, 0, 0, 0}})
	if err := co.Err(); err == nil || !strings.Contains(err.Error(), "4-core sample in a 2-core feed") {
		t.Fatalf("mixed core counts not rejected: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("feed has %d lines, want header + one row", len(lines))
	}
	if cols := strings.Split(lines[0], ","); cols[0] != "bench" || len(cols) != len(strings.Split(lines[1], ",")) {
		t.Fatalf("header/row shape mismatch:\n %s\n %s", lines[0], lines[1])
	}
}

// TestJSONLRoundTripThroughExperiment drives a real run through a JSONL
// sink and parses the stream back with ReadTelemetry: every sample comes
// back tagged with its run.
func TestJSONLRoundTripThroughExperiment(t *testing.T) {
	var buf bytes.Buffer
	o := ptbsim.NewJSONLObserver(&buf)
	e := ptbsim.NewExperiment(ptbsim.WithScale(0.02), ptbsim.WithObserver(256, o))
	if _, err := e.Run(context.Background(), ptbsim.Config{
		Benchmark: "fft", Cores: 2, Technique: ptbsim.None,
	}); err != nil {
		t.Fatal(err)
	}
	if err := o.Err(); err != nil {
		t.Fatal(err)
	}
	samples, err := ptbsim.ReadTelemetry(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples on the wire")
	}
	for i, s := range samples {
		if s.Bench != "fft" || s.Cores != 2 {
			t.Fatalf("sample %d tagged %s/%d, want fft/2", i, s.Bench, s.Cores)
		}
	}
}

// TestJSONLRunRecordCarriesDigest pins that run-completion records embed
// the self-verifying result digest on the wire.
func TestJSONLRunRecordCarriesDigest(t *testing.T) {
	var buf bytes.Buffer
	o := ptbsim.NewJSONLObserver(&buf)
	e := ptbsim.NewExperiment(ptbsim.WithScale(0.02), ptbsim.WithObserver(0, o))
	res, err := e.Run(context.Background(), ptbsim.Config{
		Benchmark: "radix", Cores: 2, Technique: ptbsim.None,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Err(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"digest":"`+res.Digest()[:20]) {
		t.Fatalf("run record lacks the result digest; stream:\n%s", buf.String())
	}
}

// TestCSVHeader pins the CSV header's leading columns, which are part of
// the wire format's append-only guarantee.
func TestCSVHeader(t *testing.T) {
	var buf bytes.Buffer
	o := ptbsim.NewCSVObserver(&buf)
	e := ptbsim.NewExperiment(ptbsim.WithScale(0.02), ptbsim.WithObserver(256, o))
	if _, err := e.Run(context.Background(), ptbsim.Config{
		Benchmark: "fft", Cores: 2, Technique: ptbsim.None,
	}); err != nil {
		t.Fatal(err)
	}
	if err := o.Err(); err != nil {
		t.Fatal(err)
	}
	header, _, ok := strings.Cut(buf.String(), "\n")
	if !ok {
		t.Fatal("no CSV output")
	}
	if !strings.HasPrefix(header, "bench,cores,tech,policy,epoch,cycle,cycles,partial,budget_pj") {
		t.Fatalf("CSV header drifted: %s", header)
	}
}
