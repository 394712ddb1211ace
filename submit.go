package ptbsim

import (
	"context"
	"time"

	"ptbsim/internal/sched"
)

// This file is the queue half of the Experiment API: a bounded priority
// queue with typed job states and context-aware Submit/Await, plus a
// pluggable result-cache backend. It is the experiment's one execution
// path — Run and RunAll are built on Submit — and Submit itself is the
// shape a long-running service (cmd/ptbserve) needs: admission control up
// front, a Job handle returned at once, and the wait bounded by the
// requester's own context.

// ResultCache is the pluggable cache backend of an Experiment: the
// default in-memory map and any persistent store (ptbserve's
// digest-verified on-disk store) satisfy one contract, declared once in
// the scheduler (Get, Put and Len, keyed by the canonical configuration
// key). Implementations must be safe for concurrent use, and Get must be
// fast — an IO-backed store should answer from an in-memory front and
// write through. Results handed to Put are shared; treat them as
// immutable.
type ResultCache = sched.Cache[*Result]

// WithCache installs a result-cache backend (default: a process-local
// map). Every entry point — Run, RunAll, RunSweep, Submit — reads and
// writes through it, so a persistent backend makes results survive
// restarts.
func WithCache(c ResultCache) Option {
	return func(e *Experiment) { e.cacheBackend = c }
}

// WithQueue bounds the queue: at most capacity configurations may be
// waiting for a worker (running jobs, cache hits and coalesced duplicates
// never count). Run and RunAll share the queue with Submit, so a RunAll
// larger than the bound fails its overflow slots with ErrQueueFull. Submit on a full queue fails with an error
// wrapping ErrQueueFull — the backpressure signal a service turns into
// 429. capacity <= 0 (the default) leaves the queue unbounded.
func WithQueue(capacity int) Option {
	return func(e *Experiment) { e.queueCap = capacity }
}

// ErrQueueFull rejects a Submit that found the bounded queue (WithQueue)
// at capacity; nothing was enqueued. Branch with errors.Is.
var ErrQueueFull = sched.ErrQueueFull

// ErrDraining rejects a Submit, Run or RunAll slot that arrived after
// Drain or Close: the experiment finishes (Drain) or abandons (Close) the
// work it already accepted but takes no more. Branch with errors.Is.
var ErrDraining = sched.ErrDraining

// CanceledError is the typed error for a request abandoned because the
// caller's context ended before admission or while its result was still
// being computed. It wraps the context error (errors.Is(err,
// context.Canceled) keeps working) and names the abandoned key; the run
// itself keeps going for any remaining callers.
type CanceledError = sched.CanceledError

// JobState is the lifecycle of a submitted Job: JobQueued → JobRunning →
// JobDone or JobFailed. A job resolved from the cache or coalesced onto
// another caller's run skips JobRunning.
type JobState = sched.State

// The job states.
const (
	JobQueued  = sched.StateQueued
	JobRunning = sched.StateRunning
	JobDone    = sched.StateDone
	JobFailed  = sched.StateFailed
)

// Job is one accepted submission: a handle on a configuration making its
// way through the experiment's queue. Duplicate submissions of one
// configuration share the underlying simulation but hold distinct
// handles, each with its own provenance.
type Job struct {
	cfg Config
	t   *sched.Ticket[*Result]
}

// Config returns the submitted configuration with the experiment's
// defaults applied (the same normalization Run performs).
func (j *Job) Config() Config { return j.cfg }

// Key returns the canonical cache key of the submitted configuration —
// the dedup identity, useful for logs and service bookkeeping.
func (j *Job) Key() string { return j.t.Key() }

// State reports the job's current lifecycle state.
func (j *Job) State() JobState { return j.t.State() }

// Cached reports whether the job was answered from the result cache at
// submission, without simulating.
func (j *Job) Cached() bool { return j.t.Cached() }

// Coalesced reports whether the job joined a simulation another caller
// had already queued or started.
func (j *Job) Coalesced() bool { return j.t.Coalesced() }

// Await blocks until the job resolves or ctx ends, returning the shared
// read-only Result. A cancelled wait returns a *CanceledError; the
// simulation itself keeps its queue slot and still runs (other callers
// may hold handles on it, and the result enters the cache either way).
// Await may be called any number of times, from any goroutine.
func (j *Job) Await(ctx context.Context) (*Result, error) {
	return j.t.Await(ctx)
}

// Submit validates and normalizes cfg, then enqueues it for the
// experiment's worker pool, returning the Job handle immediately.
// Priority orders the queue: higher runs sooner, equal priorities in
// submission order. Deduplication happens before queueing — a
// configuration already cached resolves on the spot, one already queued
// or running coalesces onto that simulation, and neither consumes a queue
// slot, so duplicates can never trip backpressure. A genuinely new
// configuration occupies a slot until a worker picks it up; with
// WithQueue set, Submit on a full queue fails with an error wrapping
// ErrQueueFull, and after Drain or Close with ErrDraining.
//
// ctx gates only admission; the simulation runs detached from the
// submitter (bound it with Job.Await). Each submission produces exactly
// one Progress event — with Cached set when it resolved without a fresh
// simulation — when it completes.
func (e *Experiment) Submit(ctx context.Context, cfg Config, priority int) (*Job, error) {
	return e.SubmitOpts(ctx, cfg, SubmitOptions{Priority: priority})
}

// SubmitOptions refines a submission beyond the configuration itself.
type SubmitOptions struct {
	// Priority orders the queue: higher runs sooner, equal priorities in
	// submission order.
	Priority int
	// Timeout, when > 0, bounds this job's wall-clock time: the run fails
	// with an error wrapping ErrRunDeadline once the budget is spent. It is
	// not part of the dedup identity — a submission that coalesces onto an
	// in-flight run inherits that run's deadline.
	Timeout time.Duration
}

// SubmitOpts is Submit with per-submission options; see Submit for the
// queueing, dedup and backpressure semantics.
func (e *Experiment) SubmitOpts(ctx context.Context, cfg Config, opts SubmitOptions) (*Job, error) {
	cfg, err := e.normalize(cfg)
	if err != nil {
		return nil, err
	}
	return e.submit(ctx, cfg, opts, e.emit)
}

// submit enqueues a normalized, validated configuration. notify receives
// its one Progress event, without Done/Total, when the submission
// resolves.
func (e *Experiment) submit(ctx context.Context, cfg Config, opts SubmitOptions, notify func(Progress)) (*Job, error) {
	t, err := e.eng.Submit(ctx, sched.Job[*Result]{
		Key:      e.key(cfg),
		Priority: opts.Priority,
		Run: func(ctx context.Context) (*Result, error) {
			return e.execute(ctx, cfg, opts.Timeout)
		},
		OnDone: func(ev sched.Event[*Result]) {
			notify(Progress{Config: cfg, Result: ev.Value, Err: ev.Err,
				Cached: ev.Err == nil && (ev.Cached || ev.Coalesced)})
		},
	})
	if err != nil {
		return nil, err
	}
	return &Job{cfg: cfg, t: t}, nil
}

// QueueLen reports the number of submissions waiting for a worker.
func (e *Experiment) QueueLen() int { return e.eng.QueueLen() }

// QueueCap reports the Submit queue bound (0 = unbounded).
func (e *Experiment) QueueCap() int { return e.eng.QueueCap() }

// Running reports the number of simulations currently executing on the
// worker pool.
func (e *Experiment) Running() int { return e.eng.Running() }

// CacheLen reports the number of results in the experiment's cache
// backend.
func (e *Experiment) CacheLen() int { return e.eng.Len() }

// Drain stops intake — every later Submit, Run or RunAll slot fails with
// ErrDraining — and waits until every simulation already accepted, from
// any entry point, has finished, or ctx ends. On a clean drain the
// workers have exited and Drain returns nil (results of the finished
// work are all in the cache backend, so a persistent store is fully
// flushed); on ctx expiry the remaining work keeps running and Drain
// returns the ctx error.
func (e *Experiment) Drain(ctx context.Context) error {
	return e.eng.Drain(ctx)
}

// Close shuts the experiment down without finishing queued work: intake
// stops, still-queued configurations resolve with ErrDraining, running
// simulations are cancelled, and Close waits for every worker to exit, so
// no telemetry sample or Progress event arrives after it returns. It is
// the only way to stop a simulation a caller has stopped waiting for.
func (e *Experiment) Close() {
	e.eng.Close()
}
