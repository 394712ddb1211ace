package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{nil, 0},
		{flag.ErrHelp, 0},
		{errors.New("boom"), 1},
		{Usage(errors.New("bad flag")), 2},
		{fmt.Errorf("run: %w", context.Canceled), 130},
	} {
		c := New("tool", io.Discard, io.Discard)
		if got := c.Exit(tc.err); got != tc.want {
			t.Errorf("Exit(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestExitRunsCleanups checks that Exit runs every cleanup in reverse
// order on a failing path too, and that a failed cleanup fails an
// otherwise successful run.
func TestExitRunsCleanups(t *testing.T) {
	var order []int
	var stderr bytes.Buffer
	c := New("tool", io.Discard, &stderr)
	c.Defer(func() error { order = append(order, 1); return nil })
	c.Defer(func() error { order = append(order, 2); return nil })
	if got := c.Exit(context.Canceled); got != 130 || fmt.Sprint(order) != "[2 1]" {
		t.Fatalf("Exit = %d, cleanup order %v; want 130, [2 1]", got, order)
	}
	if !strings.Contains(stderr.String(), "tool: interrupted") {
		t.Fatalf("stderr %q lacks the interrupt notice", stderr.String())
	}

	c = New("tool", io.Discard, &stderr)
	c.Defer(func() error { return errors.New("close failed") })
	if got := c.Exit(nil); got != 1 {
		t.Fatalf("Exit after a failed cleanup = %d, want 1", got)
	}
}
