package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSubmitAwait covers the basic queued lifecycle: a submitted job runs
// on the persistent pool, Await returns its value, and the ticket walks
// Queued → Done.
func TestSubmitAwait(t *testing.T) {
	s := New[int](2)
	defer s.Close()
	tk, err := s.Submit(context.Background(), Job[int]{
		Key: "a",
		Run: func(context.Context) (int, error) { return 41, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := tk.Await(context.Background())
	if err != nil || v != 41 {
		t.Fatalf("Await = %d, %v", v, err)
	}
	if st := tk.State(); st != StateDone {
		t.Fatalf("state = %v, want done", st)
	}
	if tk.Cached() || tk.Coalesced() {
		t.Fatalf("fresh ticket marked cached=%t coalesced=%t", tk.Cached(), tk.Coalesced())
	}
}

// TestSubmitDedups checks all three admission paths: a fresh key queues, a
// duplicate of a queued/running key coalesces without a queue slot, and a
// cached key resolves instantly — with exactly one execution in total.
func TestSubmitDedups(t *testing.T) {
	s := New[int](1)
	defer s.Close()
	var calls int32
	release := make(chan struct{})
	started := make(chan struct{})
	run := func(context.Context) (int, error) {
		atomic.AddInt32(&calls, 1)
		close(started)
		<-release
		return 7, nil
	}
	t1, err := s.Submit(context.Background(), Job[int]{Key: "k", Run: run})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	t2, err := s.Submit(context.Background(), Job[int]{Key: "k", Run: run})
	if err != nil {
		t.Fatal(err)
	}
	if !t2.Coalesced() {
		t.Fatal("duplicate submit of an in-flight key did not coalesce")
	}
	close(release)
	for _, tk := range []*Ticket[int]{t1, t2} {
		if v, err := tk.Await(context.Background()); err != nil || v != 7 {
			t.Fatalf("Await = %d, %v", v, err)
		}
	}
	t3, err := s.Submit(context.Background(), Job[int]{Key: "k", Run: run})
	if err != nil {
		t.Fatal(err)
	}
	if !t3.Cached() || t3.State() != StateDone {
		t.Fatalf("cached submit: cached=%t state=%v", t3.Cached(), t3.State())
	}
	if v, err := t3.Await(context.Background()); err != nil || v != 7 {
		t.Fatalf("cached Await = %d, %v", v, err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
}

// TestPriorityOrdering submits jobs at mixed priorities onto a single
// blocked worker and checks execution order: higher priority first, FIFO
// within a level.
func TestPriorityOrdering(t *testing.T) {
	s := New[int](1)
	defer s.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	if _, err := s.Submit(context.Background(), Job[int]{
		Key: "block",
		Run: func(context.Context) (int, error) { close(started); <-release; return 0, nil },
	}); err != nil {
		t.Fatal(err)
	}
	<-started // the worker is busy; everything below queues up

	var mu sync.Mutex
	var order []string
	mk := func(key string, pri int) Job[int] {
		return Job[int]{
			Key:      key,
			Priority: pri,
			Run: func(context.Context) (int, error) {
				mu.Lock()
				order = append(order, key)
				mu.Unlock()
				return 0, nil
			},
		}
	}
	var last *Ticket[int]
	for _, j := range []Job[int]{
		mk("low-1", 0), mk("hi-1", 2), mk("mid-1", 1), mk("hi-2", 2), mk("low-2", 0),
	} {
		tk, err := s.Submit(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		if j.Key == "low-2" {
			last = tk
		}
	}
	close(release)
	if _, err := last.Await(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []string{"hi-1", "hi-2", "mid-1", "low-1", "low-2"}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("execution order = %v, want %v", order, want)
	}
}

// TestQueueFullBackpressure fills a bounded queue behind a blocked worker
// and checks the overflow Submit fails with ErrQueueFull — while a
// duplicate of an already-queued key still coalesces (dedup never trips
// backpressure) and capacity frees once the queue moves.
func TestQueueFullBackpressure(t *testing.T) {
	s := New[int](1, WithQueueCap[int](2))
	defer s.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	if _, err := s.Submit(context.Background(), Job[int]{
		Key: "block",
		Run: func(context.Context) (int, error) { close(started); <-release; return 0, nil },
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	ok := func(context.Context) (int, error) { return 1, nil }
	var queued []*Ticket[int]
	for _, k := range []string{"q1", "q2"} {
		tk, err := s.Submit(context.Background(), Job[int]{Key: k, Run: ok})
		if err != nil {
			t.Fatalf("submit %s: %v", k, err)
		}
		queued = append(queued, tk)
	}
	if _, err := s.Submit(context.Background(), Job[int]{Key: "q3", Run: ok}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
	}
	if tk, err := s.Submit(context.Background(), Job[int]{Key: "q1", Run: ok}); err != nil || !tk.Coalesced() {
		t.Fatalf("duplicate of queued key: tk=%+v err=%v, want coalesced, nil", tk, err)
	}
	close(release)
	for _, tk := range queued {
		if _, err := tk.Await(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if tk, err := s.Submit(context.Background(), Job[int]{Key: "q3", Run: ok}); err != nil {
		t.Fatalf("submit after queue moved: %v", err)
	} else if _, err := tk.Await(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDrainFinishesAccepted checks the graceful-drain contract: queued and
// running jobs all finish, their results land in the cache, later Submits
// are refused with ErrDraining, and Drain returns only when idle.
func TestDrainFinishesAccepted(t *testing.T) {
	s := New[int](2)
	var calls int32
	keys := []string{"a", "b", "c", "d", "e"}
	for _, k := range keys {
		k := k
		if _, err := s.Submit(context.Background(), Job[int]{
			Key: k,
			Run: func(context.Context) (int, error) {
				atomic.AddInt32(&calls, 1)
				time.Sleep(5 * time.Millisecond)
				return len(k), nil
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := atomic.LoadInt32(&calls); got != int32(len(keys)) {
		t.Fatalf("%d jobs ran, want %d — drain dropped accepted work", got, len(keys))
	}
	for _, k := range keys {
		if _, ok := s.Cached(k); !ok {
			t.Fatalf("key %q missing from cache after drain", k)
		}
	}
	if _, err := s.Submit(context.Background(), Job[int]{Key: "late", Run: func(context.Context) (int, error) { return 0, nil }}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain err = %v, want ErrDraining", err)
	}
}

// TestDrainHonorsContext: a drain bounded by an already-expired context
// returns promptly with the context error instead of blocking on a stuck
// job.
func TestDrainHonorsContext(t *testing.T) {
	s := New[int](1)
	defer s.Close()
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	if _, err := s.Submit(context.Background(), Job[int]{
		Key: "stuck",
		Run: func(context.Context) (int, error) { close(started); <-release; return 0, nil },
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain err = %v, want DeadlineExceeded", err)
	}
}

// TestCloseAbandonsQueue: Close resolves still-queued tickets with
// ErrDraining instead of leaving Await hanging forever.
func TestCloseAbandonsQueue(t *testing.T) {
	s := New[int](1)
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	if _, err := s.Submit(context.Background(), Job[int]{
		Key: "block",
		Run: func(context.Context) (int, error) { close(started); <-release; return 0, nil },
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	tk, err := s.Submit(context.Background(), Job[int]{
		Key: "queued",
		Run: func(context.Context) (int, error) { return 1, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	go s.Close()
	if _, err := tk.Await(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("abandoned ticket Await err = %v, want ErrDraining", err)
	}
}

// TestSubmitOnDoneExactlyOnce: every submission — fresh, coalesced and
// cached — fires its OnDone exactly once with the right provenance.
func TestSubmitOnDoneExactlyOnce(t *testing.T) {
	s := New[int](1)
	defer s.Close()
	var fresh, coal, cached int32
	count := func(n *int32) func(Event[int]) {
		return func(ev Event[int]) {
			if ev.Err != nil {
				t.Errorf("OnDone err = %v", ev.Err)
			}
			atomic.AddInt32(n, 1)
		}
	}
	release := make(chan struct{})
	started := make(chan struct{})
	t1, err := s.Submit(context.Background(), Job[int]{
		Key:    "k",
		Run:    func(context.Context) (int, error) { close(started); <-release; return 3, nil },
		OnDone: count(&fresh),
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	t2, err := s.Submit(context.Background(), Job[int]{Key: "k", OnDone: count(&coal)})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	for _, tk := range []*Ticket[int]{t1, t2} {
		if _, err := tk.Await(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(context.Background(), Job[int]{Key: "k", OnDone: count(&cached)}); err != nil {
		t.Fatal(err)
	}
	// OnDone for t1/t2 fires from the worker goroutine right before the
	// global event; both tickets are resolved, so the counters are stable.
	if fresh != 1 || coal != 1 || cached != 1 {
		t.Fatalf("OnDone counts fresh=%d coalesced=%d cached=%d, want 1 each", fresh, coal, cached)
	}
}

// TestFailedTicketState: a job error resolves the ticket as StateFailed
// and the error is not cached (a later submit retries).
func TestFailedTicketState(t *testing.T) {
	s := New[int](1)
	defer s.Close()
	boom := errors.New("boom")
	var calls int32
	run := func(context.Context) (int, error) {
		if atomic.AddInt32(&calls, 1) == 1 {
			return 0, boom
		}
		return 9, nil
	}
	tk, err := s.Submit(context.Background(), Job[int]{Key: "flaky", Run: run})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Await(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Await err = %v, want boom", err)
	}
	if st := tk.State(); st != StateFailed {
		t.Fatalf("state = %v, want failed", st)
	}
	tk2, err := s.Submit(context.Background(), Job[int]{Key: "flaky", Run: run})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := tk2.Await(context.Background()); err != nil || v != 9 {
		t.Fatalf("retry Await = %d, %v", v, err)
	}
}

// TestPluggableCacheBackend: a custom Cache answers submissions of the
// keys it holds, sees the Puts of fresh runs, and answers later
// submissions of those without re-running.
func TestPluggableCacheBackend(t *testing.T) {
	backend := NewMemCache[int]()
	backend.Put("warm", 99)
	s := New[int](1, WithCache[int](Cache[int](backend)))
	defer s.Close()
	var calls int32
	run := func(context.Context) (int, error) { atomic.AddInt32(&calls, 1); return 5, nil }
	if v, err := submitAwait(s, context.Background(), "warm", run); err != nil || v != 99 {
		t.Fatalf("warm = %d, %v — backend not consulted", v, err)
	}
	if v, err := submitAwait(s, context.Background(), "cold", run); err != nil || v != 5 {
		t.Fatalf("cold = %d, %v", v, err)
	}
	if v, ok := backend.Get("cold"); !ok || v != 5 {
		t.Fatalf("backend.Get(cold) = %d, %t — run result not written through", v, ok)
	}
	tk, err := s.Submit(context.Background(), Job[int]{Key: "cold", Run: run})
	if err != nil {
		t.Fatal(err)
	}
	if !tk.Cached() {
		t.Fatal("submit of a backend-cached key did not resolve from cache")
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
}
