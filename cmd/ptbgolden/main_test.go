package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ptbsim"
)

// cancelOnProgress is a stderr that cancels the run at its first "ran"
// progress line, so the matrix is interrupted with cells still to go.
type cancelOnProgress struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	cancel context.CancelFunc
}

func (w *cancelOnProgress) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if bytes.HasPrefix(p, []byte("ran ")) {
		w.cancel()
	}
	return w.buf.Write(p)
}

// TestInterruptedFeedParses interrupts a matrix mid-run and checks that
// the telemetry feed still ends on a whole record: exit 130, and every
// line of the feed parses.
func TestInterruptedFeedParses(t *testing.T) {
	dir := t.TempDir()
	feed := filepath.Join(dir, "feed.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stderr := &cancelOnProgress{cancel: cancel}
	var stdout bytes.Buffer
	code := run(ctx, []string{
		"-benches", "fft,radix,ocean", "-techs", "none,ptb", "-scale", "0.05", "-par", "1",
		"-telemetry", "every=256,out=" + feed, "-o", filepath.Join(dir, "matrix.txt"),
	}, &stdout, stderr)
	if code != 130 {
		t.Fatalf("exit %d, want 130 (stderr %q)", code, stderr.buf.String())
	}
	if !strings.Contains(stderr.buf.String(), "ptbgolden: interrupted") {
		t.Errorf("stderr lacks the interrupt notice: %q", stderr.buf.String())
	}
	data, err := os.ReadFile(feed)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatalf("feed of %d bytes does not end on a whole line", len(data))
	}
	samples, err := ptbsim.ReadTelemetry(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("interrupted feed does not parse: %v", err)
	}
	if len(samples) == 0 {
		t.Fatal("interrupted feed holds no samples")
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-telemetry", "format=xml"},
		{"-o", filepath.Join(t.TempDir(), "missing", "matrix.txt")},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
	}
}
