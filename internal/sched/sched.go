// Package sched is the reusable job scheduler underneath the public
// experiment API, the figure builders and the ptbserve service. It runs
// keyed, deterministic jobs with:
//
//   - result caching — a key is computed at most once per scheduler, with
//     a pluggable Cache backend so an in-memory map and an on-disk store
//     share one contract;
//   - single-flight deduplication — concurrent requests for the same key
//     coalesce onto one in-flight run instead of computing it twice,
//     whether they arrive through Do, ForEach or Submit;
//   - a bounded priority queue — Submit enqueues work for a persistent
//     worker pool, returning a Ticket with typed states and a
//     context-aware Await; a full queue rejects with ErrQueueFull
//     (backpressure), and Drain stops intake while finishing everything
//     already accepted;
//   - context cancellation — callers waiting on a run return as soon as
//     their context is done with a typed *CanceledError, and pool sweeps
//     stop dispatching;
//   - per-run panic recovery — a panicking job is retried once (transient
//     corruption) and surfaces as a *PanicError if it panics again;
//   - streaming events — one callback per completed request, carrying the
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
// ended while its result was still being computed — by this caller or by
// another one it had coalesced onto. The computation itself keeps going
// for any remaining callers; only this caller's wait is abandoned. It
// wraps the context error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) keep working, while errors.As
// recovers which key was abandoned — the typed replacement for the old
// engine's bare ctx.Err() next to a zero value.
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

// Event describes one completed request, streamed to the scheduler's
// event callback and to per-submission OnDone callbacks.
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

// resolve publishes the flight's outcome: it closes done and fires every
// subscription exactly once.
func (fl *flight[V]) resolve() {
	fl.mu.Lock()
	fl.resolved = true
	subs := fl.subs
	fl.subs = nil
	fl.mu.Unlock()
	close(fl.done)
	for _, fn := range subs {
		fn()
	}
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

// Scheduler caches and deduplicates keyed jobs, fans sweeps out over a
// bounded worker pool, and queues Submitted work for a persistent pool of
// the same size. The zero value is not usable; construct with New.
type Scheduler[V any] struct {
	workers  int
	queueCap int
	onEvent  func(Event[V])
	cache    Cache[V]

	mu       sync.Mutex
	cond     *sync.Cond // signaled on queue pushes and lifecycle changes
	inflight map[string]*flight[V]
	pending  queue[V]
	seq      uint64
	running  int  // queued jobs currently executing on workers
	draining bool // Drain called: no new Submits
	closed   bool // Close called or Drain finished: workers exit

	workersOnce sync.Once
	baseCtx     context.Context
	baseCancel  context.CancelFunc
	workerWG    sync.WaitGroup
}

// New returns a scheduler whose sweeps and Submit queue use the given
// number of workers; workers < 1 selects runtime.NumCPU().
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

// Workers reports the pool size.
func (s *Scheduler[V]) Workers() int { return s.workers }

// SetEventFunc installs the streaming callback. Events are delivered
// synchronously from whichever goroutine completes a request; fn must be
// safe for concurrent use (or do its own locking).
func (s *Scheduler[V]) SetEventFunc(fn func(Event[V])) {
	s.mu.Lock()
	s.onEvent = fn
	s.mu.Unlock()
}

func (s *Scheduler[V]) emit(ev Event[V]) {
	s.mu.Lock()
	fn := s.onEvent
	s.mu.Unlock()
	if fn != nil {
		fn(ev)
	}
}

// Cached reports the cached value for key, if any.
func (s *Scheduler[V]) Cached(key string) (V, bool) {
	return s.cache.Get(key)
}

// Len reports the number of cached results.
func (s *Scheduler[V]) Len() int {
	return s.cache.Len()
}

// Do returns the result for key, computing it with fn at most once no
// matter how many goroutines ask concurrently — fn runs on the caller's
// goroutine, not the Submit pool. Successful results are cached; errors
// are not, so a later request retries. A caller whose ctx ends while
// another caller's run is in flight returns a *CanceledError immediately
// (the run itself keeps going for the others); a flight that completed in
// the same instant wins the race and its result is returned instead.
func (s *Scheduler[V]) Do(ctx context.Context, key string, fn func(context.Context) (V, error)) (V, error) {
	var zero V
	if err := ctx.Err(); err != nil {
		return zero, &CanceledError{Key: key, Err: err}
	}
	s.mu.Lock()
	if v, ok := s.cache.Get(key); ok {
		s.mu.Unlock()
		s.emit(Event[V]{Key: key, Value: v, Cached: true})
		return v, nil
	}
	if fl, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		return s.await(ctx, key, fl)
	}
	fl := &flight[V]{done: make(chan struct{})}
	s.inflight[key] = fl
	s.mu.Unlock()

	fl.val, fl.err, fl.retried = s.runProtected(ctx, key, fn)

	s.finish(key, fl)
	s.emit(Event[V]{Key: key, Value: fl.val, Err: fl.err, Retried: fl.retried})
	return fl.val, fl.err
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

// await waits for another caller's flight, honoring ctx. On cancellation
// it re-checks the flight first: a result that is already complete is
// delivered rather than dropped for a *CanceledError.
func (s *Scheduler[V]) await(ctx context.Context, key string, fl *flight[V]) (V, error) {
	var zero V
	select {
	case <-fl.done:
	case <-ctx.Done():
		select {
		case <-fl.done:
			// The flight resolved in the same instant the context died;
			// prefer the real result over a cancellation error.
		default:
			return zero, &CanceledError{Key: key, Err: ctx.Err()}
		}
	}
	s.emit(Event[V]{Key: key, Value: fl.val, Err: fl.err, Coalesced: true, Retried: fl.retried})
	return fl.val, fl.err
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

// Job is one keyed unit of work for ForEach and Submit.
type Job[V any] struct {
	// Key identifies the job for caching and deduplication.
	Key string
	// Run computes the result.
	Run func(context.Context) (V, error)
	// Priority orders Submitted jobs: higher runs sooner; equal
	// priorities run in submission order. Ignored by ForEach.
	Priority int
	// OnDone, when non-nil, is invoked exactly once when this submission
	// resolves — with Cached or Coalesced set when the result came from
	// the cache or another caller's run. It runs on whichever goroutine
	// resolves the ticket and must be safe for concurrent use. Ignored by
	// ForEach (use onDone there).
	OnDone func(Event[V])
}

// ForEach runs every job through Do on at most Workers goroutines and
// returns the results in job order. The first job error cancels the
// remaining jobs and is returned alongside the partial results (failed or
// skipped slots hold the zero value). Duplicate keys coalesce onto one
// run. onDone, when non-nil, is invoked once per completed slot from
// whichever worker finished it (it must be safe for concurrent use);
// slots skipped after a failure get no callback.
func (s *Scheduler[V]) ForEach(ctx context.Context, jobs []Job[V], onDone func(i int, v V, err error)) ([]V, error) {
	results := make([]V, len(jobs))
	if len(jobs) == 0 {
		return results, ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	s.mu.Lock()
	workers := s.workers
	s.mu.Unlock()
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				v, err := s.Do(ctx, jobs[i].Key, jobs[i].Run)
				if onDone != nil {
					onDone(i, v, err)
				}
				if err != nil {
					errOnce.Do(func() {
						firstErr = fmt.Errorf("sched: job %q: %w", jobs[i].Key, err)
						cancel()
					})
					continue
				}
				results[i] = v
			}
		}()
	}
dispatch:
	for i := range jobs {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return results, firstErr
	}
	return results, ctx.Err()
}

// ForEachAll runs every job through Do on at most Workers goroutines and
// returns per-slot results and errors in job order. Unlike ForEach, a job
// error does not cancel the rest of the pool — every job still runs, so
// callers get every completable result plus the full error picture. Only
// the caller's context stops the sweep early: slots never dispatched
// because ctx ended hold ctx.Err() (and the zero value). onDone, when
// non-nil, fires once per dispatched slot from whichever worker finished
// it (it must be safe for concurrent use); undispatched slots get no
// callback.
func (s *Scheduler[V]) ForEachAll(ctx context.Context, jobs []Job[V], onDone func(i int, v V, err error)) ([]V, []error) {
	results := make([]V, len(jobs))
	errs := make([]error, len(jobs))
	if len(jobs) == 0 {
		return results, errs
	}

	s.mu.Lock()
	workers := s.workers
	s.mu.Unlock()
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				v, err := s.Do(ctx, jobs[i].Key, jobs[i].Run)
				results[i], errs[i] = v, err
				if onDone != nil {
					onDone(i, v, err)
				}
			}
		}()
	}
	// dispatched is written only here (the dispatching goroutine) and read
	// only after wg.Wait, so it needs no lock.
	dispatched := make([]bool, len(jobs))
dispatch:
	for i := range jobs {
		select {
		case next <- i:
			dispatched[i] = true
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		for i := range jobs {
			if !dispatched[i] {
				errs[i] = err
			}
		}
	}
	return results, errs
}
