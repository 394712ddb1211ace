package thermal

import "ptbsim/internal/statehash"

// HashState folds the thermal RC state and its statistics into h for
// state digests. The field order is append-only.
func (m *Model) HashState(h *statehash.Hasher) {
	for i := 0; i < m.nCores; i++ {
		h.WriteF64(m.tempC[i])
		h.WriteF64(m.accPJ[i])
		h.WriteF64(m.sum[i])
		h.WriteF64(m.sumSq[i])
	}
	h.WriteI64(m.accCycles)
	h.WriteI64(m.n)
}
