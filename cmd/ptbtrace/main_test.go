package main

import (
	"bytes"
	"context"
	"testing"

	"ptbsim"
)

// TestFigTraces checks the Fig. 5/6 traces the telemetry observer
// produces: both non-empty under a positive budget, and the spinning
// core's trace not flat (activity peaks over the spin floor).
func TestFigTraces(t *testing.T) {
	cfg := ptbsim.Config{WorkloadScale: 0.05}
	trace, budget, _, err := figTrace(context.Background(), "fig5", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 || budget <= 0 {
		t.Fatalf("fig5: %d samples, budget %v", len(trace), budget)
	}
	ct, local, _, err := figTrace(context.Background(), "fig6", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct) == 0 || local <= 0 {
		t.Fatalf("fig6: %d samples, budget %v", len(ct), local)
	}
	minV, maxV := ct[0], ct[0]
	for _, v := range ct {
		minV, maxV = min(minV, v), max(maxV, v)
	}
	if maxV <= minV {
		t.Fatal("fig6 trace is flat")
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig7"},
		{"-faults", "drop=2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
	}
}
