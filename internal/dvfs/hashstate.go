package dvfs

import "ptbsim/internal/statehash"

// HashState folds the governor's ladder positions into h for state
// digests. The mode table is static configuration. The field order is
// append-only.
func (g *Governor) HashState(h *statehash.Hasher) {
	for _, i := range g.idx {
		h.WriteInt(i)
	}
	h.WriteI64(g.transitions)
	h.WriteI64(g.glitches)
}
