package mem

import "ptbsim/internal/statehash"

// HashState folds the memory controller's mutable state into h for
// state digests. The field order is append-only.
func (m *Memory) HashState(h *statehash.Hasher) {
	for _, f := range m.nextFree {
		h.WriteI64(f)
	}
	h.WriteI64(m.accesses)
}
