// Package sched is the reusable job scheduler underneath the public
// experiment API, the figure builders and the ptbserve service. Every job
// goes through one path: Submit puts it on a bounded priority queue that a
// pool of at most Workers goroutines serves, and the returned Ticket's
// Await waits for the result. On top of that path it provides:
//
//   - result caching — a key is computed at most once per scheduler, with
//     a pluggable Cache backend so an in-memory map and an on-disk store
//     share one contract;
//   - single-flight deduplication — a Submit for a key already queued or
//     running coalesces onto that run instead of computing it twice;
//   - backpressure and shutdown — a full queue rejects with ErrQueueFull,
//     Drain stops intake while finishing everything already accepted, and
//     Close abandons the queue and cancels running jobs;
//   - one cancellation rule — a caller's context bounds admission (Submit)
//     and the wait (Await), never the run: a cancelled wait returns a typed
//     *CanceledError while the job keeps going for every other caller, and
//     only Close stops running jobs;
//   - on-demand workers — Submit starts a worker while fewer than Workers
//     are active, and a worker exits when the queue is empty, so an idle
//     scheduler holds no goroutines and needs no Close to release them;
//   - per-run panic recovery — a panicking job is retried once (transient
//     corruption) and surfaces as a *PanicError if it panics again;
//   - completion events — a submission's OnDone callback receives the
//     value, coalescing/caching provenance and any error.
//
// The scheduler is generic over the job result type; the simulator layers
// instantiate it with their result structs.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// PanicError reports a job that panicked on both attempts.
type PanicError struct {
	// Key identifies the failing job.
	Key string
	// Value is the recovered panic value of the second attempt.
	Value any
	// Stack is the goroutine stack captured at the second panic.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: job %q panicked twice: %v", e.Key, e.Value)
}

// CanceledError reports a request abandoned because the caller's context
// ended before admission or while its result was still being computed.
// The computation itself keeps going for any remaining callers; only this
// caller's wait is abandoned. It wraps the context error, so
// errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) keep working, while errors.As recovers which
// key was abandoned.
type CanceledError struct {
	// Key identifies the abandoned request.
	Key string
	// Err is the caller's context error (context.Canceled or
	// context.DeadlineExceeded).
	Err error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("sched: request %q abandoned: %v", e.Key, e.Err)
}

// Unwrap exposes the context error to errors.Is.
func (e *CanceledError) Unwrap() error { return e.Err }

// Cache is the pluggable result-cache backend: the in-memory MemCache and
// any persistent store (ptbserve's digest-verified on-disk store) share
// this contract. Implementations must be safe for concurrent use; Get is
// called with scheduler internals locked and must be fast (IO-backed
// implementations should answer from an in-memory front and write
// through). A backend that can fail should latch its first error and
// surface it out of band — a lost Put degrades the cache, not the result.
type Cache[V any] interface {
	// Get reports the cached value for key, if any.
	Get(key string) (V, bool)
	// Put stores a successful result. Called at most once per key unless
	// an earlier entry was lost.
	Put(key string, v V)
	// Len reports the number of cached results.
	Len() int
}

// MemCache is the default Cache: a mutex-guarded map.
type MemCache[V any] struct {
	mu sync.Mutex
	m  map[string]V
}

// NewMemCache returns an empty in-memory cache.
func NewMemCache[V any]() *MemCache[V] {
	return &MemCache[V]{m: make(map[string]V)}
}

// Get reports the cached value for key, if any.
func (c *MemCache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

// Put stores a value.
func (c *MemCache[V]) Put(key string, v V) {
	c.mu.Lock()
	c.m[key] = v
	c.mu.Unlock()
}

// Len reports the number of cached results.
func (c *MemCache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Event describes one resolved submission, delivered to its Job.OnDone
// callback.
type Event[V any] struct {
	// Key identifies the job.
	Key string
	// Value is the job result (the zero value on error).
	Value V
	// Err is the job error, if any.
	Err error
	// Cached marks a request served from the result cache without running.
	Cached bool
	// Coalesced marks a request that waited on another caller's in-flight
	// run of the same key.
	Coalesced bool
	// Retried marks a run that panicked once and succeeded on retry.
	Retried bool
}

// flight is one in-progress run other callers can wait on. Tickets
// subscribe for completion callbacks; subscriptions added after the
// flight resolved fire immediately.
type flight[V any] struct {
	done    chan struct{}
	val     V
	err     error
	retried bool

	mu       sync.Mutex
	resolved bool
	subs     []func()
}

// subscribe registers fn to run once when the flight resolves (now, if it
// already has). Callbacks run on whichever goroutine resolves the flight.
func (fl *flight[V]) subscribe(fn func()) {
	fl.mu.Lock()
	if fl.resolved {
		fl.mu.Unlock()
		fn()
		return
	}
	fl.subs = append(fl.subs, fn)
	fl.mu.Unlock()
}

// resolve publishes the flight's outcome: it fires every subscription
// exactly once, then closes done. Subscriptions run first so that a
// waiter released by done sees its ticket's final state and its OnDone
// event already delivered.
func (fl *flight[V]) resolve() {
	fl.mu.Lock()
	fl.resolved = true
	subs := fl.subs
	fl.subs = nil
	fl.mu.Unlock()
	for _, fn := range subs {
		fn()
	}
	close(fl.done)
}

// Option configures a Scheduler at construction.
type Option[V any] func(*Scheduler[V])

// WithCache installs a result-cache backend (default: a fresh MemCache).
func WithCache[V any](c Cache[V]) Option[V] {
	return func(s *Scheduler[V]) { s.cache = c }
}

// WithQueueCap bounds the Submit queue: at most n tickets may be waiting
// for a worker (running jobs, cache hits and coalesced submissions do not
// count). Submit on a full queue fails with ErrQueueFull. n <= 0 (the
// default) leaves the queue unbounded.
func WithQueueCap[V any](n int) Option[V] {
	return func(s *Scheduler[V]) { s.queueCap = n }
}

// Scheduler caches and deduplicates keyed jobs and runs them from a
// priority queue on at most Workers goroutines. The zero value is not
// usable; construct with New.
type Scheduler[V any] struct {
	workers  int
	queueCap int
	cache    Cache[V]

	mu       sync.Mutex
	cond     *sync.Cond // broadcast when a worker exits: wakes Drain
	inflight map[string]*flight[V]
	pending  queue[V]
	seq      uint64
	active   int  // worker goroutines started and not yet exited
	running  int  // jobs currently executing on workers
	draining bool // Drain or Close called: no new Submits

	baseCtx    context.Context
	baseCancel context.CancelFunc
	workerWG   sync.WaitGroup
}

// New returns a scheduler that runs at most workers jobs at once;
// workers < 1 selects runtime.NumCPU().
func New[V any](workers int, opts ...Option[V]) *Scheduler[V] {
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	s := &Scheduler[V]{
		workers:  workers,
		inflight: make(map[string]*flight[V]),
	}
	for _, o := range opts {
		o(s)
	}
	if s.cache == nil {
		s.cache = NewMemCache[V]()
	}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	return s
}

// Workers reports the bound on concurrently running jobs.
func (s *Scheduler[V]) Workers() int { return s.workers }

// Cached reports the cached value for key, if any.
func (s *Scheduler[V]) Cached(key string) (V, bool) {
	return s.cache.Get(key)
}

// Len reports the number of cached results.
func (s *Scheduler[V]) Len() int {
	return s.cache.Len()
}

// finish publishes a completed flight: the result enters the cache (on
// success) strictly before the flight leaves the in-flight table, so a
// concurrent request always sees either the flight or the cache entry —
// never a gap that would re-run the job.
func (s *Scheduler[V]) finish(key string, fl *flight[V]) {
	if fl.err == nil {
		s.cache.Put(key, fl.val)
	}
	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	fl.resolve()
}

// runProtected executes fn with panic recovery, retrying once.
func (s *Scheduler[V]) runProtected(ctx context.Context, key string, fn func(context.Context) (V, error)) (v V, err error, retried bool) {
	v, err, pe := attempt(ctx, key, fn)
	if pe == nil {
		return v, err, false
	}
	v, err, pe = attempt(ctx, key, fn)
	if pe == nil {
		return v, err, true
	}
	return v, pe, true
}

func attempt[V any](ctx context.Context, key string, fn func(context.Context) (V, error)) (v V, err error, pe *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			pe = &PanicError{Key: key, Value: r, Stack: debug.Stack()}
		}
	}()
	v, err = fn(ctx)
	return v, err, nil
}

// Job is one keyed unit of work for Submit.
type Job[V any] struct {
	// Key identifies the job for caching and deduplication.
	Key string
	// Run computes the result. Its context is the scheduler's, cancelled
	// only by Close — never by a submitter's context.
	Run func(context.Context) (V, error)
	// Priority orders the queue: higher runs sooner; equal priorities run
	// in submission order.
	Priority int
	// OnDone, when non-nil, is invoked exactly once when this submission
	// resolves — with Cached or Coalesced set when the result came from
	// the cache or another caller's run. It runs on whichever goroutine
	// resolves the ticket and must be safe for concurrent use.
	OnDone func(Event[V])
}
