package core

import (
	"fmt"

	"ptbsim/internal/budget"
)

// ClusteredBalancer is the paper's scalability proposal (§III.E.2): "one
// approach to make PTB more scalable (>32 cores) consists of clustering the
// PTB load-balancer into groups of 8 or 16 cores and replicating the
// structure as needed." Each cluster runs its own balancer — with the
// *short* transfer latency of its own size — over its slice of the chip;
// tokens never cross cluster boundaries. The inner power-saving technique
// still runs chip-wide afterwards.
//
// The paper's results show a group of 8–16 cores is enough to balance
// power effectively, so the cross-cluster loss is small.
type ClusteredBalancer struct {
	groupSize int
	groups    []*Balancer
	views     []*budget.ChipState
	inner     budget.Controller
	built     bool
}

// NewClusteredBalancer creates per-cluster balancers of groupSize cores
// each (the trailing cluster may be smaller). The views are built lazily on
// the first Tick, when the full ChipState is available.
func NewClusteredBalancer(n, groupSize int, policy Policy, inner budget.Controller) *ClusteredBalancer {
	if groupSize < 2 {
		groupSize = 2
	}
	if groupSize > n {
		groupSize = n
	}
	c := &ClusteredBalancer{groupSize: groupSize, inner: inner}
	for start := 0; start < n; start += groupSize {
		size := groupSize
		if start+size > n {
			size = n - start
		}
		c.groups = append(c.groups, NewBalancerLatency(size, policy, budget.None{}, LatencyFor(size)))
	}
	return c
}

// Groups returns the per-cluster balancers, in core order.
func (c *ClusteredBalancer) Groups() []*Balancer { return c.groups }

// CheckConservation verifies token conservation for each balancer in bals.
// Tokens never cross cluster boundaries, so every cluster must balance its
// own ledger; with more than one balancer the error names the cluster.
func CheckConservation(bals []*Balancer) error {
	for i, b := range bals {
		if err := b.CheckConservation(); err != nil {
			if len(bals) > 1 {
				return fmt.Errorf("cluster %d: %w", i, err)
			}
			return err
		}
	}
	return nil
}

// build creates one ChipState view per cluster, aliasing subslices of the
// chip-wide state so grants and donations write through.
func (c *ClusteredBalancer) build(st *budget.ChipState) {
	n := st.NCores
	for gi := range c.groups {
		start := gi * c.groupSize
		end := start + c.groupSize
		if end > n {
			end = n
		}
		groupBudget := 0.0
		for i := start; i < end; i++ {
			groupBudget += st.LocalBudgetPJ[i]
		}
		c.views = append(c.views, &budget.ChipState{
			NCores:         end - start,
			GlobalBudgetPJ: groupBudget,
			LocalBudgetPJ:  st.LocalBudgetPJ[start:end],
			ExtraPJ:        st.ExtraPJ[start:end],
			DonatedPJ:      st.DonatedPJ[start:end],
			EstPJ:          st.EstPJ[start:end],
			Cores:          st.Cores[start:end],
			Meter:          st.Meter,
			Sync:           st.Sync,
		})
	}
	c.built = true
}

// Tick balances every cluster independently, then runs the chip-wide inner
// technique.
func (c *ClusteredBalancer) Tick(st *budget.ChipState) {
	if !c.built {
		c.build(st)
	}
	for gi, g := range c.groups {
		v := c.views[gi]
		v.Cycle = st.Cycle
		v.ChipEstPJ = 0
		for _, e := range v.EstPJ {
			v.ChipEstPJ += e
		}
		g.BalanceOnly(v)
	}
	c.inner.Tick(st)
}
