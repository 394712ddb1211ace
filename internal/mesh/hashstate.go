package mesh

import "ptbsim/internal/statehash"

// HashState folds the mesh's mutable state into h for state
// digests. In-flight messages live in the event queue (via AtArg) and
// are covered by the eventq and component hashes; here only the link
// reservations and counters matter. The freeMsg pool is excluded —
// recycled records carry no information. The field order is append-only.
func (m *Mesh) HashState(h *statehash.Hasher) {
	for _, f := range m.nextFree {
		h.WriteI64(f)
	}
	h.WriteI64(m.messages)
	h.WriteI64(m.flitHops)
	h.WriteI64(m.stallCycles)
	h.WriteI64(m.retransmits)
}
