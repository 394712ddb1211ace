// Package serve is ptbserve's HTTP layer: the experiment engine behind a
// JSON API. The wire formats reuse the repo's stable schemas — Config and
// Result travel exactly as the ptbsim package marshals them (including
// the self-verifying result digest) — so anything that can read `ptbsim
// -json` output can read this API.
//
// Endpoints:
//
//	GET  /healthz            liveness
//	GET  /v1/stats           queue/cache/engine counters
//	POST /v1/runs            run one configuration (synchronous)
//	POST /v1/sweeps          run a sweep cross-product (synchronous)
//	GET  /v1/results/{sha}   look a cached result up by digest fragment
//	GET  /v1/telemetry       live SSE feed of samples and run completions
//
// Backpressure maps onto status codes: a full queue answers 429 with
// Retry-After, a draining server 503. Submitted work runs detached from
// the request — a client that disconnects mid-run wastes nothing, the
// result still lands in the cache.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"ptbsim"
	"ptbsim/internal/store"
)

// Server routes the HTTP API onto an Experiment. Construct with New,
// mount via Handler.
type Server struct {
	exp *ptbsim.Experiment
	st  *store.Store   // optional persistent cache, for /v1/results
	hub *Hub           // optional telemetry hub, for /v1/telemetry
	jr  *store.Journal // optional write-ahead journal of accepted jobs
	mux *http.ServeMux

	jrLogged atomic.Bool // the first journal write failure was logged

	started time.Time

	runs      atomic.Int64 // configurations answered (runs + sweep members)
	fresh     atomic.Int64 // ... simulated fresh
	cacheHits atomic.Int64 // ... answered from cache
	coalesced atomic.Int64 // ... coalesced onto an in-flight run
	rejected  atomic.Int64 // submissions refused (backpressure or draining)
	failed    atomic.Int64 // runs that ended in error
}

// New builds a server over exp. st may be nil (no /v1/results lookups,
// no persistence stats); hub may be nil (/v1/telemetry answers 404) —
// pass the same Hub the experiment was built with (WithObserver) to
// stream live telemetry.
func New(exp *ptbsim.Experiment, st *store.Store, hub *Hub) *Server {
	s := &Server{exp: exp, st: st, hub: hub, mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/runs", s.handleRun)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	s.mux.HandleFunc("GET /v1/results/{sha}", s.handleResult)
	s.mux.HandleFunc("GET /v1/telemetry", s.handleTelemetry)
	return s
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// AttachJournal installs a write-ahead journal of accepted jobs: every
// successfully submitted configuration is journaled (fsync'd) before the
// HTTP acknowledgment, and marked done once its result is in the cache.
// A SIGKILL'd server therefore reboots knowing exactly which accepted
// jobs never completed — feed them back through ReplayJournal. Once a
// journal write fails the journal latches the error: jobs are still
// answered correctly, but later acknowledgments are not durable, and
// /v1/stats reports the error as journal_error, and the first failure is
// logged once on the standard logger. Call before serving requests; nil
// detaches.
func (s *Server) AttachJournal(jr *store.Journal) { s.jr = jr }

// journalAccept records an accepted job in the journal — before any
// response bytes, so an acknowledgment can never outrun durability — and
// arms the completion watcher. Nil-journal servers skip both.
func (s *Server) journalAccept(job *ptbsim.Job, priority int) {
	if s.jr == nil {
		return
	}
	cfgJSON, err := json.Marshal(job.Config())
	if err == nil {
		err = s.jr.Accept(store.JournalRecord{ID: job.Key(), Config: cfgJSON, Priority: priority})
	}
	if err != nil && s.jrLogged.CompareAndSwap(false, true) {
		log.Printf("ptbserve: job journal write failed, later acknowledgments are not durable: %v", err)
	}
	go func() {
		// The watcher outlives the request: a client that disconnects
		// mid-run must not leave a completed job marked pending forever.
		_, runErr := job.Await(context.Background())
		if runErr != nil && errors.Is(runErr, ptbsim.ErrDraining) {
			// Shutdown interrupted the job before it ran; leave it
			// journaled so the next boot replays it.
			return
		}
		s.jr.Done(job.Key())
	}()
}

// ReplayJournal resubmits the pending records a recovering journal
// returned from OpenJournal: each record's config is decoded and
// submitted at its original priority, detached from any request (results
// land in the cache; completions clear the journal). It reports how many
// records were resubmitted; undecodable records are counted out and
// marked done rather than wedging recovery on every future boot.
func (s *Server) ReplayJournal(ctx context.Context, pending []store.JournalRecord) (int, error) {
	replayed := 0
	for _, rec := range pending {
		var cfg ptbsim.Config
		if err := json.Unmarshal(rec.Config, &cfg); err != nil {
			if s.jr != nil {
				s.jr.Done(rec.ID)
			}
			continue
		}
		job, err := s.exp.Submit(ctx, cfg, rec.Priority)
		if err != nil {
			return replayed, fmt.Errorf("replaying journaled job %s: %w", rec.ID, err)
		}
		s.journalAccept(job, rec.Priority)
		if s.jr != nil && job.Key() != rec.ID {
			// The record was journaled under a different key (an older
			// binary, say); clear it under its own ID once the replayed
			// job resolves so it doesn't haunt every future boot.
			go func(id string, job *ptbsim.Job) {
				if _, err := job.Await(context.Background()); errors.Is(err, ptbsim.ErrDraining) {
					return
				}
				s.jr.Done(id)
			}(rec.ID, job)
		}
		replayed++
	}
	return replayed, nil
}

// errorJSON is the wire form of every non-2xx response.
type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorJSON{Error: err.Error()})
}

// submitError maps engine admission failures onto status codes and
// counts the rejection.
func (s *Server) submitError(w http.ResponseWriter, err error) {
	s.rejected.Add(1)
	switch {
	case errors.Is(err, ptbsim.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ptbsim.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// account records one answered configuration's provenance.
func (s *Server) account(job *ptbsim.Job, err error) {
	s.runs.Add(1)
	switch {
	case err != nil:
		s.failed.Add(1)
	case job.Cached():
		s.cacheHits.Add(1)
	case job.Coalesced():
		s.coalesced.Add(1)
	default:
		s.fresh.Add(1)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":         true,
		"uptime_sec": int64(time.Since(s.started).Seconds()),
	})
}

// statsJSON is the /v1/stats wire form.
type statsJSON struct {
	UptimeSec   int64 `json:"uptime_sec"`
	QueueLen    int   `json:"queue_len"`
	QueueCap    int   `json:"queue_cap"`
	Running     int   `json:"running"`
	CacheLen    int   `json:"cache_len"`
	Parallelism int   `json:"parallelism"`

	Runs      int64 `json:"runs"`
	Fresh     int64 `json:"fresh"`
	CacheHits int64 `json:"cache_hits"`
	Coalesced int64 `json:"coalesced"`
	Rejected  int64 `json:"rejected"`
	Failed    int64 `json:"failed"`

	StoreDir      string `json:"store_dir,omitempty"`
	StoreRejected int    `json:"store_rejected,omitempty"`
	StoreError    string `json:"store_error,omitempty"`

	JournalPending int    `json:"journal_pending,omitempty"`
	JournalTorn    int    `json:"journal_torn,omitempty"`
	JournalError   string `json:"journal_error,omitempty"`

	Subscribers   int   `json:"telemetry_subscribers"`
	DroppedEvents int64 `json:"telemetry_dropped"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := statsJSON{
		UptimeSec:   int64(time.Since(s.started).Seconds()),
		QueueLen:    s.exp.QueueLen(),
		QueueCap:    s.exp.QueueCap(),
		Running:     s.exp.Running(),
		CacheLen:    s.exp.CacheLen(),
		Parallelism: s.exp.Parallelism(),
		Runs:        s.runs.Load(),
		Fresh:       s.fresh.Load(),
		CacheHits:   s.cacheHits.Load(),
		Coalesced:   s.coalesced.Load(),
		Rejected:    s.rejected.Load(),
		Failed:      s.failed.Load(),
	}
	if s.st != nil {
		st.StoreDir = s.st.Dir()
		st.StoreRejected = len(s.st.Rejected())
		if err := s.st.Err(); err != nil {
			st.StoreError = err.Error()
		}
	}
	if s.jr != nil {
		st.JournalPending = s.jr.Pending()
		st.JournalTorn = s.jr.Torn()
		if err := s.jr.Err(); err != nil {
			st.JournalError = err.Error()
		}
	}
	if s.hub != nil {
		st.Subscribers = s.hub.Subscribers()
		st.DroppedEvents = s.hub.Dropped()
	}
	writeJSON(w, http.StatusOK, st)
}

// runRequest is the POST /v1/runs wire form: the standard Config schema
// under "config", plus queue priority and an optional per-request
// wall-clock budget.
type runRequest struct {
	Config   ptbsim.Config `json:"config"`
	Priority int           `json:"priority,omitempty"`
	// TimeoutMS caps this run's wall-clock time in milliseconds
	// (0 = the server's default). A run that exceeds it fails 504.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// maxTimeoutMS bounds client-supplied timeout_ms at one hour — anything
// larger (or negative) is a malformed request, not a budget.
const maxTimeoutMS = 3_600_000

// submitOpts validates a request's timeout_ms and folds it into the
// submission options.
func submitOpts(priority int, timeoutMS int64) (ptbsim.SubmitOptions, error) {
	if timeoutMS < 0 || timeoutMS > maxTimeoutMS {
		return ptbsim.SubmitOptions{}, fmt.Errorf(
			"timeout_ms %d out of range [0, %d]", timeoutMS, maxTimeoutMS)
	}
	return ptbsim.SubmitOptions{
		Priority: priority,
		Timeout:  time.Duration(timeoutMS) * time.Millisecond,
	}, nil
}

// runResponse is one answered configuration. Digest is the short
// fragment usable with /v1/results/{sha}; the full self-verifying digest
// rides inside Result.
type runResponse struct {
	Config    ptbsim.Config  `json:"config"`
	Result    *ptbsim.Result `json:"result,omitempty"`
	Digest    string         `json:"digest,omitempty"`
	Cached    bool           `json:"cached"`
	Coalesced bool           `json:"coalesced"`
	ElapsedMS float64        `json:"elapsed_ms"`
	Error     string         `json:"error,omitempty"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	opts, err := submitOpts(req.Priority, req.TimeoutMS)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	start := time.Now()
	job, err := s.exp.SubmitOpts(r.Context(), req.Config, opts)
	if err != nil {
		s.submitError(w, err)
		return
	}
	s.journalAccept(job, req.Priority)
	res, runErr := job.Await(r.Context())
	s.account(job, runErr)
	resp := runResponse{
		Config: job.Config(), Result: res,
		Cached: job.Cached(), Coalesced: job.Coalesced(),
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	}
	if res != nil {
		resp.Digest = fragmentOf(res)
	}
	if runErr != nil {
		resp.Error = runErr.Error()
		var ce *ptbsim.CanceledError
		if errors.As(runErr, &ce) {
			// Client gone; the run continues detached and warms the cache.
			return
		}
		code := http.StatusInternalServerError
		if errors.Is(runErr, ptbsim.ErrRunDeadline) {
			// The run outlived its wall-clock budget — the 504-class
			// outcome a client with a timeout_ms asked to be told about.
			code = http.StatusGatewayTimeout
		}
		writeJSON(w, code, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// sweepRequest is the POST /v1/sweeps wire form, mirroring
// ptbsim.Sweep's cross-product dimensions with parsed names.
type sweepRequest struct {
	Benchmarks  []string  `json:"benchmarks,omitempty"`
	CoreCounts  []int     `json:"core_counts,omitempty"`
	Techniques  []string  `json:"techniques,omitempty"`
	Policies    []string  `json:"policies,omitempty"`
	RelaxFracs  []float64 `json:"relax_fracs,omitempty"`
	BudgetFracs []float64 `json:"budget_fracs,omitempty"`
	Priority    int       `json:"priority,omitempty"`
	// TimeoutMS caps each member run's wall-clock time in milliseconds
	// (0 = the server's default); members that exceed it fail in place.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// sweep converts the wire form through the public parsers.
func (r *sweepRequest) sweep() (ptbsim.Sweep, error) {
	s := ptbsim.Sweep{
		Benchmarks:  r.Benchmarks,
		CoreCounts:  r.CoreCounts,
		RelaxFracs:  r.RelaxFracs,
		BudgetFracs: r.BudgetFracs,
	}
	for _, name := range r.Techniques {
		t, err := ptbsim.ParseTechnique(name)
		if err != nil {
			return ptbsim.Sweep{}, err
		}
		s.Techniques = append(s.Techniques, t)
	}
	for _, name := range r.Policies {
		p, err := ptbsim.ParsePolicy(name)
		if err != nil {
			return ptbsim.Sweep{}, err
		}
		s.Policies = append(s.Policies, p)
	}
	return s, nil
}

// sweepResponse summarizes an answered sweep. Results come back in the
// sweep's deterministic expansion order.
type sweepResponse struct {
	Total     int           `json:"total"`
	Fresh     int           `json:"fresh"`
	Cached    int           `json:"cached"`
	Coalesced int           `json:"coalesced"`
	Failed    int           `json:"failed"`
	ElapsedMS float64       `json:"elapsed_ms"`
	Results   []runResponse `json:"results"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	sweep, err := req.sweep()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	opts, err := submitOpts(req.Priority, req.TimeoutMS)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cfgs := sweep.Configs()
	start := time.Now()

	// Submit the whole cross-product up front — duplicates dedup without
	// consuming queue slots — then await. If the queue fills partway, the
	// request fails 429 but the accepted prefix keeps running and warms
	// the cache, so a retry makes monotone progress.
	jobs := make([]*ptbsim.Job, 0, len(cfgs))
	for _, cfg := range cfgs {
		job, err := s.exp.SubmitOpts(r.Context(), cfg, opts)
		if err != nil {
			if errors.Is(err, ptbsim.ErrQueueFull) || errors.Is(err, ptbsim.ErrDraining) {
				s.submitError(w, fmt.Errorf("sweep config %d/%d: %w", len(jobs), len(cfgs), err))
				return
			}
			writeError(w, http.StatusBadRequest, err)
			return
		}
		s.journalAccept(job, req.Priority)
		jobs = append(jobs, job)
	}

	resp := sweepResponse{Total: len(jobs)}
	for _, job := range jobs {
		res, runErr := job.Await(r.Context())
		s.account(job, runErr)
		rr := runResponse{
			Config: job.Config(), Result: res,
			Cached: job.Cached(), Coalesced: job.Coalesced(),
		}
		if res != nil {
			rr.Digest = fragmentOf(res)
		}
		switch {
		case runErr != nil:
			rr.Error = runErr.Error()
			resp.Failed++
		case job.Cached():
			resp.Cached++
		case job.Coalesced():
			resp.Coalesced++
		default:
			resp.Fresh++
		}
		resp.Results = append(resp.Results, rr)
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if s.st == nil {
		writeError(w, http.StatusNotFound, errors.New("no persistent store attached"))
		return
	}
	frag := r.PathValue("sha")
	res, ok := s.st.ByDigest(frag)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no cached result with digest %q", frag))
		return
	}
	writeJSON(w, http.StatusOK, runResponse{
		Config: ptbsim.Config{
			Benchmark: res.Benchmark, Cores: res.Cores, Technique: res.Technique,
		},
		Result: res, Digest: frag, Cached: true,
	})
}

func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	if s.hub == nil {
		writeError(w, http.StatusNotFound, errors.New("telemetry disabled (no observer hub)"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ch, cancel := s.hub.subscribe()
	defer cancel()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
			flusher.Flush()
		}
	}
}

// Shutdown drains the experiment (finishing accepted work, flushing the
// write-through store) after the HTTP listener has stopped accepting;
// call it from the process's signal handler with a deadline context.
func (s *Server) Shutdown(ctx context.Context) error {
	if err := s.exp.Drain(ctx); err != nil {
		return fmt.Errorf("draining experiment: %w", err)
	}
	if s.st != nil {
		if err := s.st.Err(); err != nil {
			return err
		}
	}
	return nil
}
