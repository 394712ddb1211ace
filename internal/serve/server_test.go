package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ptbsim"
	"ptbsim/internal/store"
)

// newTestServer wires the full stack — hub, store, experiment, server —
// the way cmd/ptbserve does.
func newTestServer(t *testing.T, dir string, expOpts ...ptbsim.Option) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub()
	opts := append([]ptbsim.Option{
		ptbsim.WithScale(0.02),
		ptbsim.WithParallelism(2),
		ptbsim.WithCache(st),
		ptbsim.WithObserver(256, hub),
	}, expOpts...)
	exp := ptbsim.NewExperiment(opts...)
	t.Cleanup(exp.Close)
	srv := New(exp, st, hub)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	req := runRequest{Config: ptbsim.Config{Benchmark: "fft", Cores: 2, Technique: ptbsim.None}}

	resp := postJSON(t, ts.URL+"/v1/runs", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var first runResponse
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	if first.Result == nil || first.Cached || first.Digest == "" {
		t.Fatalf("first run: result=%v cached=%v digest=%q", first.Result, first.Cached, first.Digest)
	}

	// Second identical request: served from cache, identical digest.
	resp2 := postJSON(t, ts.URL+"/v1/runs", req)
	defer resp2.Body.Close()
	var second runResponse
	if err := json.NewDecoder(resp2.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second identical run not served from cache")
	}
	if second.Digest != first.Digest {
		t.Errorf("digest drifted: %s vs %s", first.Digest, second.Digest)
	}

	// The result is addressable by its digest fragment.
	resp3, err := http.Get(ts.URL + "/v1/results/" + first.Digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/results/%s = %d", first.Digest, resp3.StatusCode)
	}
}

func TestRunEndpointRejectsBadConfig(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	resp := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: ptbsim.Config{Benchmark: "nope", Cores: 2}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestBackpressure429(t *testing.T) {
	// One worker, one queue slot: hammer distinct configs concurrently
	// until the queue overflows into 429 + Retry-After.
	_, ts := newTestServer(t, t.TempDir(),
		ptbsim.WithParallelism(1), ptbsim.WithQueue(1))
	benches := []string{"barnes", "ocean", "radix", "fft", "cholesky", "raytrace"}
	var wg sync.WaitGroup
	codes := make([]int, len(benches))
	retryAfter := make([]string, len(benches))
	for i, b := range benches {
		i, b := i, b
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/runs", runRequest{
				Config: ptbsim.Config{Benchmark: b, Cores: 16, Technique: ptbsim.PTB},
			})
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}()
	}
	wg.Wait()
	var rejected int
	for i, code := range codes {
		switch code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			rejected++
			if retryAfter[i] == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Errorf("unexpected status %d", code)
		}
	}
	if rejected == 0 {
		t.Skip("queue never overflowed (machine too fast for the window)")
	}
}

func TestSweepEndpointWarmSecondPass(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	req := sweepRequest{
		Benchmarks: []string{"fft", "radix"},
		CoreCounts: []int{2, 4},
		Techniques: []string{"none", "ptb"},
	}
	resp := postJSON(t, ts.URL+"/v1/sweeps", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var cold sweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&cold); err != nil {
		t.Fatal(err)
	}
	if cold.Total != 8 || cold.Failed != 0 {
		t.Fatalf("cold pass: total=%d failed=%d, want 8/0", cold.Total, cold.Failed)
	}
	if cold.Fresh+cold.Coalesced != 8 {
		t.Fatalf("cold pass: fresh=%d coalesced=%d, want sum 8", cold.Fresh, cold.Coalesced)
	}

	resp2 := postJSON(t, ts.URL+"/v1/sweeps", req)
	defer resp2.Body.Close()
	var warm sweepResponse
	if err := json.NewDecoder(resp2.Body).Decode(&warm); err != nil {
		t.Fatal(err)
	}
	if warm.Cached != warm.Total {
		t.Fatalf("warm pass: cached=%d of %d, want 100%%", warm.Cached, warm.Total)
	}
	for i := range cold.Results {
		if cold.Results[i].Digest != warm.Results[i].Digest {
			t.Errorf("result %d digest drifted: %s vs %s",
				i, cold.Results[i].Digest, warm.Results[i].Digest)
		}
	}
}

func TestSweepEndpointRejectsBadTechnique(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	resp := postJSON(t, ts.URL+"/v1/sweeps", sweepRequest{Techniques: []string{"warp"}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	postJSON(t, ts.URL+"/v1/runs", runRequest{
		Config: ptbsim.Config{Benchmark: "fft", Cores: 2, Technique: ptbsim.None},
	}).Body.Close()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Runs != 1 || st.Fresh != 1 || st.CacheLen != 1 {
		t.Errorf("stats after one run: %+v", st)
	}
	if st.StoreDir == "" {
		t.Error("stats lack the store directory")
	}
}

func TestTelemetrySSE(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/telemetry", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Drive one run while subscribed; both sample and run events must
	// arrive on the stream.
	go func() {
		postJSON(t, ts.URL+"/v1/runs", runRequest{
			Config: ptbsim.Config{Benchmark: "fft", Cores: 2, Technique: ptbsim.None},
		}).Body.Close()
	}()

	events := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			events[name] = true
		}
		if events["sample"] && events["run"] {
			return
		}
	}
	t.Fatalf("stream ended with events %v (scan err %v), want sample and run", events, sc.Err())
}

func TestShutdownDrainsAndPersists(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, dir)
	cfg := ptbsim.Config{Benchmark: "ocean", Cores: 2, Technique: ptbsim.None}

	resp := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: cfg})
	var first runResponse
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// A second server over the same store directory — the restart — must
	// answer from the persisted cache with an identical digest.
	_, ts2 := newTestServer(t, dir)
	resp2 := postJSON(t, ts2.URL+"/v1/runs", runRequest{Config: cfg})
	defer resp2.Body.Close()
	var second runResponse
	if err := json.NewDecoder(resp2.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("restarted server re-simulated a persisted config")
	}
	if second.Digest != first.Digest {
		t.Errorf("digest drifted across restart: %s vs %s", first.Digest, second.Digest)
	}
	if fmt.Sprint(second.Result.Digest()) != fmt.Sprint(first.Result.Digest()) {
		t.Error("full digests differ across restart")
	}
}

func TestTimeoutMSRejectsAbsurdValues(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	cfg := ptbsim.Config{Benchmark: "fft", Cores: 2, Technique: ptbsim.None}
	for _, ms := range []int64{-1, 3_600_001} {
		resp := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: cfg, TimeoutMS: ms})
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("timeout_ms=%d: status = %d, want 400", ms, resp.StatusCode)
		}
		resp2 := postJSON(t, ts.URL+"/v1/sweeps", sweepRequest{
			Benchmarks: []string{"fft"}, CoreCounts: []int{2}, Techniques: []string{"none"},
			TimeoutMS: ms,
		})
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusBadRequest {
			t.Errorf("sweep timeout_ms=%d: status = %d, want 400", ms, resp2.StatusCode)
		}
	}
}

func TestTimeoutMSDeadline504(t *testing.T) {
	// Full-scale barnes on 32 cores takes far longer than 1ms: the run
	// must fail with the structured 504-class deadline error.
	_, ts := newTestServer(t, t.TempDir(), ptbsim.WithScale(1))
	resp := postJSON(t, ts.URL+"/v1/runs", runRequest{
		Config:    ptbsim.Config{Benchmark: "barnes", Cores: 32, Technique: ptbsim.PTB},
		TimeoutMS: 1,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	var rr runResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Error == "" || !strings.Contains(rr.Error, "deadline") {
		t.Fatalf("504 body lacks a structured deadline error: %+v", rr)
	}
}

// waitJournalDrained polls until the journal has no pending records (the
// completion watcher runs on its own goroutine).
func waitJournalDrained(t *testing.T, jr *store.Journal) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if jr.Pending() == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("journal still has %d pending records", jr.Pending())
}

func TestJournalAcceptedThenDone(t *testing.T) {
	dir := t.TempDir()
	jr, pending, err := store.OpenJournal(filepath.Join(dir, "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if len(pending) != 0 {
		t.Fatalf("fresh journal has %d pending", len(pending))
	}
	srv, ts := newTestServer(t, dir)
	srv.AttachJournal(jr)

	resp := postJSON(t, ts.URL+"/v1/runs", runRequest{
		Config: ptbsim.Config{Benchmark: "fft", Cores: 2, Technique: ptbsim.None},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	waitJournalDrained(t, jr)
}

func TestJournalReplayRecoversInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "jobs.wal")
	cfg := ptbsim.Config{Benchmark: "radix", Cores: 2, Technique: ptbsim.None}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The "crashed" process: a job was accepted and journaled, but the
	// process died before completing it.
	jr0, _, err := store.OpenJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := jr0.Accept(store.JournalRecord{ID: "interrupted-job", Config: cfgJSON, Priority: 3}); err != nil {
		t.Fatal(err)
	}
	jr0.Close()

	// The reboot: replay must resubmit the job, complete it, and clear
	// the journal — zero accepted jobs lost.
	jr, pending, err := store.OpenJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if len(pending) != 1 {
		t.Fatalf("pending = %+v, want the interrupted job", pending)
	}
	srv, ts := newTestServer(t, dir)
	srv.AttachJournal(jr)
	n, err := srv.ReplayJournal(context.Background(), pending)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d jobs, want 1", n)
	}
	waitJournalDrained(t, jr)

	// The recomputed result is in the cache: the same config over HTTP
	// answers cached.
	resp := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: cfg})
	defer resp.Body.Close()
	var rr runResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Cached {
		t.Fatal("replayed job's result not served from cache")
	}
}

// TestJournalWriteFailureDegrades pins the degraded mode of a failing
// journal: once an accept write fails, the run is still answered with
// the result a fresh run computes, the failure is logged once on the
// standard logger, and /v1/stats reports the latched journal error (the
// acknowledgment is then not durable).
func TestJournalWriteFailureDegrades(t *testing.T) {
	var logged bytes.Buffer
	prevOut := log.Writer()
	log.SetOutput(&logged)
	defer log.SetOutput(prevOut)

	dir := t.TempDir()
	jr, _, err := store.OpenJournal(filepath.Join(dir, "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, dir)
	srv.AttachJournal(jr)
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := ptbsim.Config{Benchmark: "fft", Cores: 2, Technique: ptbsim.None}
	resp := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: cfg})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 despite the failed journal write", resp.StatusCode)
	}
	var rr runResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	fresh := cfg
	fresh.WorkloadScale = 0.02 // newTestServer's WithScale
	want, err := ptbsim.RunContext(context.Background(), fresh)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Cached || rr.Digest != fragmentOf(want) {
		t.Fatalf("degraded run: cached=%v digest=%q, want a fresh run's %q", rr.Cached, rr.Digest, fragmentOf(want))
	}

	stats, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer stats.Body.Close()
	var st statsJSON
	if err := json.NewDecoder(stats.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.JournalError == "" {
		t.Fatal("/v1/stats reports no journal_error after a failed accept write")
	}

	// A second failing accept must not log again.
	again := cfg
	again.Benchmark = "radix"
	resp2 := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: again})
	resp2.Body.Close()
	log.SetOutput(prevOut) // no more writes into logged past this point
	const line = "ptbserve: job journal write failed, later acknowledgments are not durable"
	if got := logged.String(); strings.Count(got, line) != 1 {
		t.Fatalf("log output %q, want exactly one line containing %q", got, line)
	}
}
