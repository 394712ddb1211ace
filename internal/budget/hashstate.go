package budget

import "ptbsim/internal/statehash"

// HashState folds the chip-wide budget state into h for state
// digests. Cores, Meter and Sync are hashed by their own packages. The
// field order is append-only.
func (st *ChipState) HashState(h *statehash.Hasher) {
	h.WriteI64(st.Cycle)
	h.WriteF64(st.GlobalBudgetPJ)
	for i := 0; i < st.NCores; i++ {
		h.WriteF64(st.LocalBudgetPJ[i])
		h.WriteF64(st.ExtraPJ[i])
		h.WriteF64(st.DonatedPJ[i])
		h.WriteF64(st.EstPJ[i])
	}
	h.WriteF64(st.ChipEstPJ)
}

// HashState folds the DVFS controller's window accumulators and governor
// position into h.
func (c *DVFSController) HashState(h *statehash.Hasher) {
	h.WriteString(c.name)
	for _, a := range c.acc {
		h.WriteF64(a)
	}
	h.WriteF64(c.chip)
	h.WriteI64(c.count)
	h.WriteI64(c.trans)
	h.WriteF64(c.Relax)
	c.gov.HashState(h)
}

// HashState folds the 2-level hybrid's state into h.
func (t *TwoLevel) HashState(h *statehash.Hasher) {
	t.DVFS.HashState(h)
	for _, c := range t.techniqueCycles {
		h.WriteI64(c)
	}
}

// HashState folds the MaxBIPS window state into h.
func (m *MaxBIPS) HashState(h *statehash.Hasher) {
	for i := range m.accEst {
		h.WriteF64(m.accEst[i])
		h.WriteI64(m.lastRet[i])
		h.WriteInt(m.idx[i])
	}
	h.WriteI64(m.count)
	h.WriteI64(m.transitions)
}

// HashState of the no-control technique: stateless.
func (None) HashState(h *statehash.Hasher) {}
