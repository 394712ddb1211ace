package metrics

import "ptbsim/internal/statehash"

// HashState folds the collector's accumulated statistics into h for
// state digests: everything that reaches Result digests is covered
// by the accumulators below. The field order is append-only.
func (c *Collector) HashState(h *statehash.Hasher) {
	h.WriteI64(c.cycles)
	h.WriteF64(c.chipEnergyPJ)
	h.WriteF64(c.aopbPJ)
	h.WriteI64(c.overCycles)
	h.WriteF64(c.sumChip)
	h.WriteF64(c.sumChipSq)
	for _, v := range c.classCycles {
		h.WriteI64(v)
	}
	for _, v := range c.classEnergy {
		h.WriteF64(v)
	}
	for _, v := range c.perCoreLast {
		h.WriteF64(v)
	}
}
