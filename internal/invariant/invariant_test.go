package invariant

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestEpochGating(t *testing.T) {
	c := New(100)
	var calls int
	c.Register("counter", func() error { calls++; return nil })
	for cycle := int64(1); cycle <= 1000; cycle++ {
		c.Tick(cycle)
	}
	if calls != 10 {
		t.Fatalf("epoch-100 check ran %d times over 1000 cycles, want 10", calls)
	}
	if c.Evals() != 10 {
		t.Fatalf("Evals() = %d, want 10", c.Evals())
	}
}

func TestDefaultEpochSelected(t *testing.T) {
	for _, epoch := range []int64{0, -5} {
		if got := New(epoch).Epoch(); got != DefaultEpoch {
			t.Errorf("New(%d).Epoch() = %d, want DefaultEpoch %d", epoch, got, DefaultEpoch)
		}
	}
}

func TestFinalOnlyChecks(t *testing.T) {
	c := New(1)
	var epochCalls, finalCalls int
	c.Register("epoch", func() error { epochCalls++; return nil })
	c.RegisterFinal("final", func() error { finalCalls++; return nil })
	for cycle := int64(1); cycle <= 5; cycle++ {
		c.Tick(cycle)
	}
	if finalCalls != 0 {
		t.Fatalf("final-only check ran %d times before Finalize", finalCalls)
	}
	c.Finalize(5)
	if finalCalls != 1 {
		t.Fatalf("final-only check ran %d times after Finalize, want 1", finalCalls)
	}
	if epochCalls != 6 { // 5 ticks + once more at Finalize
		t.Fatalf("epoch check ran %d times, want 6", epochCalls)
	}
}

func TestFinalizeEvaluatesInRegistrationOrder(t *testing.T) {
	c := New(1)
	var order []string
	c.Register("a", func() error { order = append(order, "a"); return nil })
	c.RegisterFinal("b", func() error { order = append(order, "b"); return nil })
	c.Register("c", func() error { order = append(order, "c"); return nil })
	c.Finalize(1)
	if got := strings.Join(order, ""); got != "abc" {
		t.Fatalf("Finalize order %q, want \"abc\"", got)
	}
}

func TestViolationRecordingAndCap(t *testing.T) {
	c := New(1)
	c.Register("broken", func() error { return errors.New("boom") })
	for cycle := int64(1); cycle <= maxRecorded+10; cycle++ {
		c.Tick(cycle)
	}
	if got := len(c.Violations()); got != maxRecorded {
		t.Fatalf("recorded %d violations, want cap %d", got, maxRecorded)
	}
	var verr *ViolationError
	err := c.Err()
	if !errors.As(err, &verr) {
		t.Fatalf("Err() = %T, want *ViolationError", err)
	}
	if verr.Dropped != 10 {
		t.Fatalf("Dropped = %d, want 10", verr.Dropped)
	}
	if !errors.Is(err, ErrViolated) {
		t.Fatal("Err() does not wrap ErrViolated")
	}
	if msg := err.Error(); !strings.Contains(msg, "broken") || !strings.Contains(msg, "beyond cap") {
		t.Fatalf("error message misses check name or drop count: %q", msg)
	}
}

func TestViolationCarriesCycleAndName(t *testing.T) {
	c := New(10)
	c.Register("ledger", func() error { return fmt.Errorf("off by one") })
	c.Tick(30)
	vs := c.Violations()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1", len(vs))
	}
	if vs[0].Cycle != 30 || vs[0].Check != "ledger" {
		t.Fatalf("violation = %+v, want cycle 30 / check %q", vs[0], "ledger")
	}
	if s := vs[0].String(); !strings.Contains(s, "cycle 30") || !strings.Contains(s, "ledger") {
		t.Fatalf("String() = %q", s)
	}
}

func TestNilCheckerIsDisabled(t *testing.T) {
	var c *Checker
	c.Tick(1024) // must not panic
	c.Finalize(2048)
	if c.Err() != nil || c.Violations() != nil || c.Evals() != 0 {
		t.Fatal("nil checker reports activity")
	}
}

func TestCloseTo(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{0, 0, true},
		{1e9, 1e9 + 0.5, true},    // ULP-scale drift on a large sum
		{1e9, 1e9 + 10, false},    // whole-event mismatch
		{0, 1e-7, true},           // below the absolute floor
		{0, 1e-3, false},          // above it
		{-5, -5.0000000001, true}, // sign handled
		{-5, 5, false},            // sign mismatch
		{1234.5, 1234.5, true},    // exact
		{100, 100.000001, true},   // within atol near small magnitudes
	}
	for _, tc := range cases {
		if got := CloseTo(tc.a, tc.b); got != tc.want {
			t.Errorf("CloseTo(%g, %g) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestTickFiresOnModuloBoundaries checks the next-boundary gate against
// cycle%epoch == 0 on consecutive cycles, forward jumps, repeats and
// rewinds.
func TestTickFiresOnModuloBoundaries(t *testing.T) {
	var cs []int64
	for c := int64(-250); c <= 1000; c++ {
		cs = append(cs, c)
	}
	cs = append(cs, 1000, 1000, 1337, 1400, 1400, 1401, 5, 6, 7, 0, -7, -100, 99, 100, 101, 4096, 4095, 4097, 1<<40, 1<<40+1)
	for _, epoch := range []int64{1, 3, 7, 64, 100} {
		c := New(epoch)
		c.Register("noop", func() error { return nil })
		for _, cycle := range cs {
			before := c.Evals()
			c.Tick(cycle)
			if fired, want := c.Evals() != before, cycle%epoch == 0; fired != want {
				t.Fatalf("epoch %d cycle %d: fired=%v, want %v", epoch, cycle, fired, want)
			}
		}
	}
}
