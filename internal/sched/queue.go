package sched

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrQueueFull rejects a Submit that found the bounded queue at capacity
// (see WithQueueCap) — the scheduler's backpressure signal. The caller
// should shed load or retry later; nothing was enqueued.
var ErrQueueFull = errors.New("sched: job queue full")

// ErrDraining rejects a Submit that arrived after Drain (or Close): the
// scheduler finishes the work it already accepted but takes no more.
var ErrDraining = errors.New("sched: scheduler draining, not accepting jobs")

// State is the lifecycle of a submitted Ticket.
type State int32

const (
	// StateQueued: accepted, waiting for a worker (or for another
	// caller's in-flight run of the same key).
	StateQueued State = iota
	// StateRunning: executing on a worker.
	StateRunning
	// StateDone: resolved with a value.
	StateDone
	// StateFailed: resolved with an error.
	StateFailed
)

// String names the state for logs and the service API.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Ticket is one accepted submission: a handle on a job that resolves to a
// value or an error. Duplicate submissions of one key share the
// underlying run but hold distinct tickets, each with its own provenance
// (Cached/Coalesced) and OnDone callback.
type Ticket[V any] struct {
	key       string
	fl        *flight[V]
	state     atomic.Int32
	cached    bool
	coalesced bool
}

// Key reports the job key this ticket resolves.
func (t *Ticket[V]) Key() string { return t.key }

// State reports the ticket's current lifecycle state.
func (t *Ticket[V]) State() State { return State(t.state.Load()) }

// Cached reports whether the ticket was answered from the result cache at
// submission, without any run.
func (t *Ticket[V]) Cached() bool { return t.cached }

// Coalesced reports whether the ticket joined a run another caller had
// already queued or started.
func (t *Ticket[V]) Coalesced() bool { return t.coalesced }

// Await blocks until the ticket resolves or ctx ends. A cancelled wait
// returns a *CanceledError; the job itself keeps its place in the queue
// and still runs (other callers may hold tickets on it, and the result
// enters the cache either way). Await may be called any number of times,
// from any goroutine.
func (t *Ticket[V]) Await(ctx context.Context) (V, error) {
	var zero V
	select {
	case <-t.fl.done:
	case <-ctx.Done():
		select {
		case <-t.fl.done:
			// Resolved in the same instant the context died; prefer the
			// real result over a cancellation error.
		default:
			return zero, &CanceledError{Key: t.key, Err: ctx.Err()}
		}
	}
	return t.fl.val, t.fl.err
}

// event builds the ticket's resolution event from the flight outcome.
func (t *Ticket[V]) event() Event[V] {
	return Event[V]{
		Key:       t.key,
		Value:     t.fl.val,
		Err:       t.fl.err,
		Cached:    t.cached,
		Coalesced: t.coalesced,
		Retried:   t.fl.retried,
	}
}

// qitem is one queued job on the priority heap.
type qitem[V any] struct {
	ticket *Ticket[V]
	run    func(context.Context) (V, error)
	pri    int
	seq    uint64
}

// queue is a max-heap by priority, FIFO within a priority level.
type queue[V any] []*qitem[V]

func (q queue[V]) Len() int { return len(q) }
func (q queue[V]) Less(i, j int) bool {
	if q[i].pri != q[j].pri {
		return q[i].pri > q[j].pri
	}
	return q[i].seq < q[j].seq
}
func (q queue[V]) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *queue[V]) Push(x any)   { *q = append(*q, x.(*qitem[V])) }
func (q *queue[V]) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// QueueLen reports the number of jobs waiting for a worker (not counting
// running jobs or coalesced submissions).
func (s *Scheduler[V]) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// QueueCap reports the Submit queue bound (0 = unbounded).
func (s *Scheduler[V]) QueueCap() int { return s.queueCap }

// Running reports the number of jobs currently executing.
func (s *Scheduler[V]) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// Submit enqueues a job for the worker pool and returns its Ticket
// immediately, starting a worker if fewer than Workers are active. The
// scheduler deduplicates before queueing: a key already in the cache
// resolves the ticket on the spot (Cached), and a key already queued or
// running coalesces onto that run (Coalesced) — neither consumes a queue
// slot, so duplicates can never trip backpressure. A genuinely new key
// occupies one slot until a worker picks it up; if the bounded queue is
// full, Submit fails with an error wrapping ErrQueueFull, and after Drain
// or Close with ErrDraining.
//
// ctx gates only admission (a done ctx refuses the submission); the job
// itself runs under the scheduler's lifetime, detached from the
// submitter, so one impatient caller cannot kill a run others coalesced
// onto. Use Ticket.Await(ctx) to bound the wait.
func (s *Scheduler[V]) Submit(ctx context.Context, job Job[V]) (*Ticket[V], error) {
	if err := ctx.Err(); err != nil {
		return nil, &CanceledError{Key: job.Key, Err: err}
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w (job %q)", ErrDraining, job.Key)
	}
	if v, ok := s.cache.Get(job.Key); ok {
		s.mu.Unlock()
		fl := &flight[V]{done: make(chan struct{}), val: v}
		t := &Ticket[V]{key: job.Key, fl: fl, cached: true}
		t.state.Store(int32(StateDone))
		fl.resolve()
		if job.OnDone != nil {
			job.OnDone(t.event())
		}
		return t, nil
	}
	if fl, ok := s.inflight[job.Key]; ok {
		s.mu.Unlock()
		t := &Ticket[V]{key: job.Key, fl: fl, coalesced: true}
		s.attach(t, job.OnDone)
		return t, nil
	}
	if s.queueCap > 0 && len(s.pending) >= s.queueCap {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w (cap %d, job %q)", ErrQueueFull, s.queueCap, job.Key)
	}
	fl := &flight[V]{done: make(chan struct{})}
	s.inflight[job.Key] = fl
	t := &Ticket[V]{key: job.Key, fl: fl}
	s.seq++
	heap.Push(&s.pending, &qitem[V]{ticket: t, run: job.Run, pri: job.Priority, seq: s.seq})
	if s.active < s.workers {
		s.active++
		s.workerWG.Add(1)
		go s.worker()
	}
	s.mu.Unlock()
	s.attach(t, job.OnDone)
	return t, nil
}

// attach subscribes the ticket's state transition and OnDone callback to
// its flight's resolution.
func (s *Scheduler[V]) attach(t *Ticket[V], onDone func(Event[V])) {
	t.fl.subscribe(func() {
		if t.fl.err != nil {
			t.state.Store(int32(StateFailed))
		} else {
			t.state.Store(int32(StateDone))
		}
		if onDone != nil {
			onDone(t.event())
		}
	})
}

// worker runs queued jobs, highest priority first, until the queue is
// empty, then exits.
func (s *Scheduler[V]) worker() {
	defer s.workerWG.Done()
	s.mu.Lock()
	for len(s.pending) > 0 {
		it := heap.Pop(&s.pending).(*qitem[V])
		s.running++
		s.mu.Unlock()

		t := it.ticket
		t.state.Store(int32(StateRunning))
		t.fl.val, t.fl.err, t.fl.retried = s.runProtected(s.baseCtx, t.key, it.run)
		s.finish(t.key, t.fl)

		s.mu.Lock()
		s.running--
	}
	s.active--
	s.mu.Unlock()
	s.cond.Broadcast() // wake Drain waiters
}

// Drain stops intake — every later Submit fails with ErrDraining — and
// waits until every job already accepted (queued or running) has finished
// and its worker has exited, or ctx ends. On ctx expiry the remaining work
// keeps running and Drain returns the ctx error. Drain is idempotent.
func (s *Scheduler[V]) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			// Taking the lock orders this wakeup after Drain's check of
			// ctx, so the broadcast cannot slip in before its Wait.
			s.mu.Lock()
			s.mu.Unlock()
			s.cond.Broadcast()
		case <-watchDone:
		}
	}()

	// A queued or running job always has an active worker, so no active
	// worker means nothing pending and nothing running.
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.active > 0 && ctx.Err() == nil {
		s.cond.Wait()
	}
	return ctx.Err()
}

// Close shuts the scheduler down without finishing queued work: intake
// stops, jobs still in the queue resolve with ErrDraining, the base
// context of running jobs is cancelled, and Close waits for every active
// worker to exit. Tickets already resolved are unaffected. Close is
// idempotent.
func (s *Scheduler[V]) Close() {
	s.mu.Lock()
	s.draining = true
	abandoned := s.pending
	s.pending = nil
	for _, it := range abandoned {
		delete(s.inflight, it.ticket.key)
	}
	s.mu.Unlock()
	s.baseCancel()
	for _, it := range abandoned {
		it.ticket.fl.err = fmt.Errorf("%w (job %q)", ErrDraining, it.ticket.key)
		it.ticket.fl.resolve()
	}
	s.workerWG.Wait()
}
