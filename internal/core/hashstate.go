package core

import "ptbsim/internal/statehash"

// HashState folds the balancer's mutable state into h for state
// digests: the token ledger, in-flight batches, the spin detector, and
// the fault-mode report view. The needy scratch list is excluded (it is
// rebuilt from scratch each round). The field order is append-only.
func (b *Balancer) HashState(h *statehash.Hasher) {
	h.WriteInt(b.n)
	b.inner.HashState(h)
	h.WriteInt(len(b.flights))
	for i := range b.flights {
		h.WriteI64(b.flights[i].arriveAt)
		h.WriteF64(b.flights[i].total)
		h.WriteInt(b.flights[i].attempts)
	}
	b.detector.hashState(h)
	for _, m := range b.detectorMask {
		h.WriteBool(m)
	}
	h.WriteF64(b.donatedPJ)
	h.WriteF64(b.grantedPJ)
	h.WriteF64(b.discardedPJ)
	h.WriteI64(b.rounds)
	h.WriteI64(b.toOneRounds)
	h.WriteI64(b.toAllRounds)
	for _, v := range b.estView {
		h.WriteF64(v)
	}
	for _, c := range b.lastReport {
		h.WriteI64(c)
	}
	h.WriteF64(b.lostPJ)
	h.WriteF64(b.dupPJ)
	h.WriteI64(b.retries)
	h.WriteI64(b.reportsLost)
	h.WriteI64(b.staleFallbackCycles)
}

func (d *PowerPatternDetector) hashState(h *statehash.Hasher) {
	for i := 0; i < d.n; i++ {
		h.WriteF64(d.mean[i])
		h.WriteF64(d.dev[i])
		h.WriteI64(d.run[i])
		h.WriteBool(d.flagged[i])
	}
	h.WriteI64(d.transitions)
}

// HashState folds every per-cluster balancer into h. The lazily built
// views mirror slices of the chip state, which is hashed separately.
func (c *ClusteredBalancer) HashState(h *statehash.Hasher) {
	h.WriteBool(c.built)
	c.inner.HashState(h)
	h.WriteInt(len(c.groups))
	for _, g := range c.groups {
		g.HashState(h)
	}
}

// HashState folds the spin gate's sleep schedule into h on top of the
// wrapped balancer.
func (g *SpinGate) HashState(h *statehash.Hasher) {
	g.bal.HashState(h)
	for _, s := range g.sleeping {
		h.WriteBool(s)
	}
	h.WriteI64(g.gatedCycles)
}
