package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptbsim"
)

// TestAssertMonotoneFails drives the -assert-monotone failure path: at
// drop rate 1 every token batch dies before it is sent, so the accounting
// error falls back to 0 after rate 0.9. The run must exit 1 with its
// table and telemetry feed both written out whole.
func TestAssertMonotoneFails(t *testing.T) {
	dir := t.TempDir()
	feed := filepath.Join(dir, "feed.jsonl")
	table := filepath.Join(dir, "table.txt")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-scale", "0.02", "-cores", "2", "-rates", "0.9,1", "-par", "1", "-q", "-assert-monotone",
		"-telemetry", "every=1024,out=" + feed, "-o", table,
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "not monotone") {
		t.Errorf("stderr lacks the monotonicity failure: %q", stderr.String())
	}
	out, err := os.ReadFile(table)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "NON-MONOTONE") {
		t.Errorf("table does not mark the non-monotone row:\n%s", out)
	}
	f, err := os.Open(feed)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := ptbsim.ReadTelemetry(f)
	if err != nil {
		t.Fatalf("feed does not parse: %v", err)
	}
	if len(samples) == 0 {
		t.Fatal("feed holds no samples")
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-rates", "0,2"},
		{"-cores", "two"},
		{"-policy", "tosome"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
	}
}
