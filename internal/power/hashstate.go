package power

import "ptbsim/internal/statehash"

// HashState folds the meter's full energy ledger into h for state
// digests. The field order is append-only.
func (m *Meter) HashState(h *statehash.Hasher) {
	for i := 0; i < m.nCores; i++ {
		h.WriteF64(m.vScaleSq[i])
		h.WriteF64(m.vScaleLeak[i])
		h.WriteF64(m.cycleEnergy[i])
		h.WriteF64(m.totalEnergy[i])
	}
	for _, e := range m.byKind {
		h.WriteF64(e)
	}
	for _, c := range m.counts {
		h.WriteI64(c)
	}
}

// HashState folds the Power Token History Table into h.
func (t *PTHT) HashState(h *statehash.Hasher) {
	for _, e := range t.entries {
		h.WriteU64(uint64(e))
	}
}

// HashState folds the sensor drift random walk into h. Nil-safe: a run
// without fault injection has no sensor bank.
func (s *NoisySensor) HashState(h *statehash.Hasher) {
	if s == nil {
		return
	}
	for _, d := range s.drift {
		h.WriteF64(d)
	}
}
