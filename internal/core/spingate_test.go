package core

import (
	"testing"

	"ptbsim/internal/budget"
)

func TestSpinGateGatesFlaggedCores(t *testing.T) {
	st := newPTBState(2, 2000, nil) // local 1000
	b := NewBalancer(2, PolicyToAll, budget.None{})
	g := NewSpinGate(b)

	// Train the detector: core 1 low and stable, core 0 busy.
	for cyc := int64(0); cyc < 2000; cyc++ {
		setEst(st, cyc, 950, 200)
		g.Tick(st)
	}
	if !b.Detector().Spinning(1) {
		t.Fatal("precondition: core 1 should be flagged")
	}
	if g.GatedCycles() == 0 {
		t.Fatal("no cycles gated")
	}
	// The duty cycle must leave a polling window open every period.
	slept, open := 0, 0
	for cyc := int64(2048); cyc < 2048+defaultGatePeriod; cyc++ {
		setEst(st, cyc, 950, 200)
		g.Tick(st)
		if st.Cores[1].Knobs().SleepGate {
			slept++
		} else {
			open++
		}
	}
	if slept == 0 || open == 0 {
		t.Fatalf("duty cycle broken: slept=%d open=%d", slept, open)
	}
	if int64(open) > defaultGateOpen+1 {
		t.Fatalf("open window too wide: %d", open)
	}
	// The busy core must never be sleep-gated.
	if st.Cores[0].Knobs().SleepGate {
		t.Fatal("busy core gated")
	}
}

func TestSpinGateReleasesWhenBusy(t *testing.T) {
	st := newPTBState(1, 1000, nil)
	b := NewBalancer(1, PolicyToAll, budget.None{})
	g := NewSpinGate(b)
	for cyc := int64(0); cyc < 2000; cyc++ {
		setEst(st, cyc, 150)
		g.Tick(st)
	}
	if !b.Detector().Spinning(0) {
		t.Fatal("precondition: should be flagged")
	}
	// Core resumes useful work: the masked detector sees only open-window
	// samples, which destabilize the pattern and release the gate quickly.
	released := int64(-1)
	for cyc := int64(2000); cyc < 4000; cyc++ {
		noise := float64(cyc%5) * 200
		setEst(st, cyc, 900+noise)
		g.Tick(st)
		if !st.Cores[0].Knobs().SleepGate && !b.Detector().Spinning(0) {
			released = cyc
			break
		}
	}
	if released < 0 {
		t.Fatal("gate never released after core resumed useful work")
	}
	if released > 2000+4*defaultGatePeriod {
		t.Fatalf("release took %d cycles, want within a few periods", released-2000)
	}
}

func TestSpinGateDetectorMaskPreventsLivelock(t *testing.T) {
	// Without the mask, a sleeping core's near-zero estimate would keep it
	// flagged forever. Verify the mask suppresses updates: feed sleep-like
	// power only on sleep cycles and busy power in open windows — the core
	// must eventually unflag.
	st := newPTBState(1, 1000, nil)
	b := NewBalancer(1, PolicyToAll, budget.None{})
	g := NewSpinGate(b)
	for cyc := int64(0); cyc < 1000; cyc++ {
		setEst(st, cyc, 150)
		g.Tick(st)
	}
	unflagged := false
	for cyc := int64(1000); cyc < 3000; cyc++ {
		if st.Cores[0].Knobs().SleepGate {
			setEst(st, cyc, 40) // frozen core
		} else {
			noise := float64(cyc%4) * 250
			setEst(st, cyc, 850+noise) // working hard in its window
		}
		g.Tick(st)
		if !b.Detector().Spinning(0) {
			unflagged = true
			break
		}
	}
	if !unflagged {
		t.Fatal("masked detector never released a working core (livelock)")
	}
}
