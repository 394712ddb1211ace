package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCanceledWaiterGetsTypedError is the regression test for the
// cache-lookup/cancellation race: a coalesced waiter whose context dies
// must come back with a typed *CanceledError naming the key — never a
// bare ctx error next to a silent zero value, and never (zero, nil).
func TestCanceledWaiterGetsTypedError(t *testing.T) {
	s := New[int](2)
	defer s.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if _, err := s.Submit(context.Background(), Job[int]{Key: "slow", Run: func(context.Context) (int, error) {
		close(started)
		<-release
		return 1, nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-started
	waiter, err := s.Submit(context.Background(), Job[int]{Key: "slow", Run: func(context.Context) (int, error) { return 2, nil }})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = waiter.Await(ctx)
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *CanceledError", err, err)
	}
	if ce.Key != "slow" {
		t.Fatalf("CanceledError.Key = %q, want \"slow\"", ce.Key)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v does not unwrap to context.Canceled", err)
	}
}

// TestSubmitCancelRaceOnSameKey hammers one digest key with concurrent
// Submit/Await pairs whose contexts cancel at random points while other
// callers run to completion — the -race regression for concurrent
// Submit/cancel on the same key. Every outcome must be either the true
// value or a typed *CanceledError; (zero, nil) would be the silent-zero
// bug, and a bare context error would be the untyped one.
func TestSubmitCancelRaceOnSameKey(t *testing.T) {
	s := New[int](4)
	defer s.Close()
	const (
		rounds  = 50
		callers = 8
		want    = 1234
	)
	for round := 0; round < rounds; round++ {
		key := "digest-" + string(rune('a'+round%26)) + string(rune('0'+round/26))
		var wg sync.WaitGroup
		var bad atomic.Value
		for c := 0; c < callers; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithCancel(context.Background())
				if c%2 == 0 {
					cancel() // half the callers race an already-dead context
				} else {
					defer cancel()
				}
				tk, err := s.Submit(ctx, Job[int]{
					Key: key,
					Run: func(context.Context) (int, error) { return want, nil },
				})
				if err == nil {
					var v int
					v, err = tk.Await(ctx)
					if err == nil {
						if v != want {
							bad.Store(v)
						}
						return
					}
				}
				var ce *CanceledError
				if !errors.As(err, &ce) || ce.Key != key || !errors.Is(err, context.Canceled) {
					bad.Store(err)
				}
			}()
		}
		wg.Wait()
		if v := bad.Load(); v != nil {
			t.Fatalf("round %d: bad outcome %v — want the value or a typed *CanceledError", round, v)
		}
	}
}

// TestAwaitPrefersCompletedFlight: when cancellation and completion land
// in the same instant, the completed result wins — the waiter never drops
// a real value for a cancellation error it can no longer act on.
func TestAwaitPrefersCompletedFlight(t *testing.T) {
	s := New[int](1)
	defer s.Close()
	tk, err := s.Submit(context.Background(), Job[int]{
		Key: "fast",
		Run: func(context.Context) (int, error) { return 6, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Resolve first, then await with a dead context: the done channel is
	// already closed, so the result must come back despite cancellation.
	if _, err := tk.Await(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if v, err := tk.Await(ctx); err != nil || v != 6 {
		t.Fatalf("Await(dead ctx) after completion = %d, %v, want 6, nil", v, err)
	}
}
