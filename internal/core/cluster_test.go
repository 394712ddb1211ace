package core

import (
	"testing"

	"ptbsim/internal/budget"
)

func TestClusteredBalancerKeepsTokensLocal(t *testing.T) {
	// 8 cores in two clusters of 4 (local budget 1000 each). Cluster 0 has
	// spare (both donors); cluster 1 is entirely over budget. Tokens must
	// NOT cross: cluster 1 receives nothing, cluster 0's needy cores do.
	st := newPTBState(8, 8000, nil)
	rec := &recorder{}
	c := NewClusteredBalancer(8, 4, PolicyToAll, rec)

	for cyc := int64(1); cyc <= 12; cyc++ {
		setEst(st, cyc,
			200, 200, 1900, 1900, // cluster 0 over its group budget: donors + needy
			1400, 1400, 1400, 1400) // cluster 1: all over, no spare
		c.Tick(st)
	}
	final := rec.extras[len(rec.extras)-1]
	if final[2] <= 0 || final[3] <= 0 {
		t.Fatalf("cluster 0's needy cores got nothing: %v", final)
	}
	for i := 4; i < 8; i++ {
		if final[i] != 0 {
			t.Fatalf("tokens crossed clusters: %v", final)
		}
	}
}

func TestClusteredBalancerUsesShortLatency(t *testing.T) {
	c := NewClusteredBalancer(16, 4, PolicyToAll, budget.None{})
	if len(c.Groups()) != 4 {
		t.Fatalf("%d groups for 16 cores / 4", len(c.Groups()))
	}
	for _, g := range c.Groups() {
		if g.lat.Total() != LatencyFor(4).Total() {
			t.Fatalf("cluster latency %d, want the 4-core latency %d",
				g.lat.Total(), LatencyFor(4).Total())
		}
	}
}

func TestClusteredBalancerUnevenGroups(t *testing.T) {
	c := NewClusteredBalancer(10, 4, PolicyToOne, budget.None{})
	if len(c.Groups()) != 3 {
		t.Fatalf("%d groups for 10 cores / 4", len(c.Groups()))
	}
	if c.Groups()[2].n != 2 {
		t.Fatalf("trailing group has %d cores, want 2", c.Groups()[2].n)
	}
	// Run it to make sure the uneven view works.
	st := newPTBState(10, 10000, nil)
	for cyc := int64(1); cyc <= 8; cyc++ {
		ests := make([]float64, 10)
		for i := range ests {
			ests[i] = 1200
		}
		ests[0] = 100
		setEst(st, cyc, ests...)
		c.Tick(st)
	}
}
