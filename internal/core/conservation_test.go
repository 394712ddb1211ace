package core

import (
	"strings"
	"testing"

	"ptbsim/internal/budget"
)

// TestCheckConservationThroughBalancing drives a real over-budget balancing
// sequence (collect → flight → land → distribute) and asserts the token
// ledger conserves at every step, including while tokens are in flight.
func TestCheckConservationThroughBalancing(t *testing.T) {
	b := NewBalancer(4, PolicyToAll, &recorder{})
	st := newPTBState(4, 400, nil)
	for cycle := int64(1); cycle <= 20; cycle++ {
		// Core 0 idles far under budget, cores 1-3 run hot: the chip is
		// over budget and core 0's slack goes on the wire every cycle.
		setEst(st, cycle, 10, 150, 150, 150)
		b.Tick(st)
		if err := b.CheckConservation(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	donated, granted, discarded, _ := b.Stats()
	if donated == 0 {
		t.Fatal("scenario never donated; conservation was checked vacuously")
	}
	if got := granted + discarded + b.PendingPJ(); got == 0 {
		t.Fatal("donated tokens vanished")
	}
}

// TestCheckConservationDetectsLeak corrupts the ledger in the ways a real
// accounting bug would and verifies each is reported.
func TestCheckConservationDetectsLeak(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(b *Balancer)
		wantMsg string
	}{
		{"granted-without-donation", func(b *Balancer) {
			b.grantedPJ = 25
		}, "token leak"},
		{"lost-in-flight", func(b *Balancer) {
			b.donatedPJ = 100 // donated but neither granted, discarded nor flying
		}, "token leak"},
		{"negative-ledger", func(b *Balancer) {
			b.donatedPJ = -5
			b.grantedPJ = -5
		}, "negative token ledger"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			b := NewBalancer(4, PolicyToAll, &recorder{})
			tc.corrupt(b)
			err := b.CheckConservation()
			if err == nil {
				t.Fatal("ledger corruption went undetected")
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("error %q does not mention %q", err, tc.wantMsg)
			}
		})
	}
}

// TestCheckConservationNamesCluster verifies CheckConservation checks
// every cluster's balancer and names the broken one, and that a lone
// chip-wide balancer's error text is the balancer's own.
func TestCheckConservationNamesCluster(t *testing.T) {
	c := NewClusteredBalancer(8, 4, PolicyToAll, budget.None{})
	if err := CheckConservation(c.Groups()); err != nil {
		t.Fatalf("fresh clusters violate: %v", err)
	}
	c.Groups()[1].grantedPJ = 42
	err := CheckConservation(c.Groups())
	if err == nil {
		t.Fatal("cluster ledger corruption went undetected")
	}
	if !strings.Contains(err.Error(), "cluster 1") {
		t.Fatalf("error %q does not name the broken cluster", err)
	}

	b := NewBalancer(4, PolicyToAll, budget.None{})
	b.grantedPJ = 42
	err = CheckConservation([]*Balancer{b})
	if err == nil || err.Error() != b.CheckConservation().Error() {
		t.Fatalf("lone balancer error %q, want the balancer's own %q", err, b.CheckConservation())
	}
}
