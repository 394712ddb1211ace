package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
)

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-cores", "two"},
		{"-o", filepath.Join(t.TempDir(), "missing", "report.md")},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
	}
}

// TestRenderTelemetry renders the feed of a small sweep: one table per
// run, read back through ReadTelemetry.
func TestRenderTelemetry(t *testing.T) {
	feed := filepath.Join(t.TempDir(), "feed.jsonl")
	var stdout, stderr bytes.Buffer
	args := []string{"-scale", "0.05", "-benches", "fft", "-cores", "2", "-bigcores", "2", "-par", "2", "-telemetry", "every=4096,out=" + feed, "-o", filepath.Join(t.TempDir(), "report.md")}
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("report: exit %d (stderr %q)", code, stderr.String())
	}
	stdout.Reset()
	if code := run(context.Background(), []string{"-render-telemetry", feed}, &stdout, &stderr); code != 0 {
		t.Fatalf("render: exit %d (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "## Telemetry: fft on 2 cores") {
		t.Fatalf("rendered feed lacks the fft tables:\n%.500s", stdout.String())
	}
}
