package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ptbsim"
)

func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "ocean") {
		t.Fatalf("-list output lacks ocean:\n%s", stdout.String())
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-tech", "turbo"},
		{"-telemetry", "every=-1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
	}
}

// TestInterruptedRunClosesFeed interrupts a long run mid-flight with a
// telemetry feed attached: exit 130, and the feed is flushed and closed
// on a whole record.
func TestInterruptedRunClosesFeed(t *testing.T) {
	feed := filepath.Join(t.TempDir(), "feed.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// Interrupt once the run has streamed a few buffer-loads, so the
		// feed's tail is mid-buffer when the run stops.
		for ctx.Err() == nil {
			if st, err := os.Stat(feed); err == nil && st.Size() >= 3*4096 {
				cancel()
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	var stdout, stderr bytes.Buffer
	code := run(ctx, []string{"-bench", "ocean", "-cores", "16", "-scale", "2", "-nobase",
		"-telemetry", "every=1000,out=" + feed}, &stdout, &stderr)
	if code != 130 {
		t.Fatalf("exit %d, want 130 (stderr %q)", code, stderr.String())
	}
	data, err := os.ReadFile(feed)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := ptbsim.ReadTelemetry(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("interrupted feed does not parse: %v", err)
	}
	if len(samples) == 0 {
		t.Fatal("interrupted feed holds no samples")
	}
}
