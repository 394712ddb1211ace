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

// submitAwait submits one job and waits for its result under ctx.
func submitAwait(s *Scheduler[int], ctx context.Context, key string, fn func(context.Context) (int, error)) (int, error) {
	tk, err := s.Submit(ctx, Job[int]{Key: key, Run: fn})
	if err != nil {
		return 0, err
	}
	return tk.Await(ctx)
}

func TestDoCachesResults(t *testing.T) {
	e := New[int](2)
	var calls int32
	fn := func(context.Context) (int, error) {
		atomic.AddInt32(&calls, 1)
		return 42, nil
	}
	for i := 0; i < 3; i++ {
		v, err := submitAwait(e, context.Background(), "k", fn)
		if err != nil || v != 42 {
			t.Fatalf("Submit/Await = %d, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if v, ok := e.Cached("k"); !ok || v != 42 {
		t.Fatalf("Cached = %d, %v", v, ok)
	}
	if e.Len() != 1 {
		t.Fatalf("Len = %d", e.Len())
	}
}

func TestDoErrorsAreNotCached(t *testing.T) {
	e := New[int](1)
	var calls int32
	boom := errors.New("boom")
	fn := func(context.Context) (int, error) {
		if atomic.AddInt32(&calls, 1) == 1 {
			return 0, boom
		}
		return 7, nil
	}
	if _, err := submitAwait(e, context.Background(), "k", fn); !errors.Is(err, boom) {
		t.Fatalf("first run err = %v", err)
	}
	v, err := submitAwait(e, context.Background(), "k", fn)
	if err != nil || v != 7 {
		t.Fatalf("retry = %d, %v", v, err)
	}
}

// TestSingleFlight is the duplicate-simulation-race regression test: many
// goroutines asking for one key must trigger exactly one execution.
func TestSingleFlight(t *testing.T) {
	e := New[int](4)
	var calls int32
	release := make(chan struct{})
	fn := func(context.Context) (int, error) {
		atomic.AddInt32(&calls, 1)
		<-release
		return 1, nil
	}
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = submitAwait(e, context.Background(), "same", fn)
		}(i)
	}
	// Let the goroutines pile up on the flight, then release the one run.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times for one key, want 1", calls)
	}
}

// TestWaiterHonorsCancellation: a caller coalesced onto a running job
// returns as soon as its context is cancelled, while the run goes on.
func TestWaiterHonorsCancellation(t *testing.T) {
	e := New[int](2)
	defer e.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	slow, err := e.Submit(context.Background(), Job[int]{Key: "slow", Run: func(context.Context) (int, error) {
		close(started)
		<-release
		return 1, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	waiter, err := e.Submit(ctx, Job[int]{Key: "slow", Run: func(context.Context) (int, error) { return 2, nil }})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := waiter.Await(ctx)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter did not return promptly")
	}
	if st := slow.State(); st != StateRunning {
		t.Fatalf("run state after the waiter left = %v, want running", st)
	}
}

func TestPanicRetriesOnce(t *testing.T) {
	e := New[int](1)
	defer e.Close()
	events := make(chan Event[int], 2)
	var calls int32
	tk, err := e.Submit(context.Background(), Job[int]{
		Key: "flaky",
		Run: func(context.Context) (int, error) {
			if atomic.AddInt32(&calls, 1) == 1 {
				panic("transient")
			}
			return 9, nil
		},
		OnDone: func(ev Event[int]) { events <- ev },
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := tk.Await(context.Background())
	if err != nil || v != 9 {
		t.Fatalf("Await = %d, %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2", calls)
	}
	if ev := <-events; !ev.Retried || ev.Value != 9 {
		t.Fatalf("event = %+v, want a retried event carrying 9", ev)
	}
	if len(events) != 0 {
		t.Fatalf("%d extra events, want exactly one", len(events))
	}
}

func TestDoublePanicSurfacesError(t *testing.T) {
	e := New[int](1)
	_, err := submitAwait(e, context.Background(), "broken", func(context.Context) (int, error) {
		panic("hard")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Key != "broken" || pe.Value != "hard" || len(pe.Stack) == 0 {
		t.Fatalf("panic error incomplete: %+v", pe)
	}
}

// TestForEachRunsAllAndDedups: a batch of submissions with duplicate keys
// resolves every ticket, in submission order, with one run per key.
func TestForEachRunsAllAndDedups(t *testing.T) {
	e := New[int](4)
	var calls int32
	tickets := make([]*Ticket[int], 20)
	for i := range tickets {
		v := i % 5 // four duplicates of each key
		tk, err := e.Submit(context.Background(), Job[int]{
			Key: fmt.Sprint("k", v),
			Run: func(context.Context) (int, error) {
				atomic.AddInt32(&calls, 1)
				return v, nil
			},
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		v, err := tk.Await(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if v != i%5 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i%5)
		}
	}
	if calls != 5 {
		t.Fatalf("fn ran %d times, want 5 (dedup)", calls)
	}
}

// TestForEachBoundsConcurrency: however many jobs are queued, at most
// Workers run at once, and the workers exit once the queue is empty.
func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	e := New[int](workers)
	var cur, peak int32
	tickets := make([]*Ticket[int], 24)
	for i := range tickets {
		i := i
		tk, err := e.Submit(context.Background(), Job[int]{
			Key: fmt.Sprint(i),
			Run: func(context.Context) (int, error) {
				n := atomic.AddInt32(&cur, 1)
				for {
					p := atomic.LoadInt32(&peak)
					if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				atomic.AddInt32(&cur, -1)
				return i, nil
			},
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		if _, err := tk.Await(context.Background()); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if peak > workers {
		t.Fatalf("observed %d concurrent jobs, pool bound is %d", peak, workers)
	}
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	active := e.active
	e.mu.Unlock()
	if active != 0 {
		t.Fatalf("%d workers still active after the queue emptied", active)
	}
}

// TestForEachHonorsCancelledContext: a submission under an already
// cancelled context is refused with a typed error and never runs.
func TestForEachHonorsCancelledContext(t *testing.T) {
	e := New[int](2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int32
	_, err := e.Submit(ctx, Job[int]{Key: "a", Run: func(context.Context) (int, error) {
		atomic.AddInt32(&ran, 1)
		return 1, nil
	}})
	var ce *CanceledError
	if !errors.As(err, &ce) || ce.Key != "a" || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a *CanceledError for \"a\" wrapping context.Canceled", err)
	}
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Fatal("a job ran under a cancelled context")
	}
}
