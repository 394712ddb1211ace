package syncprim

import "ptbsim/internal/statehash"

// HashState folds the chip's logical synchronization state into h for
// state digests. The field order is append-only.
func (t *Table) HashState(h *statehash.Hasher) {
	for i := range t.locks {
		l := &t.locks[i]
		h.WriteBool(l.held)
		h.WriteInt(l.holder)
		h.WriteI64(l.acquisitions)
		h.WriteI64(l.contended)
	}
	for i := range t.barriers {
		b := &t.barriers[i]
		h.WriteInt(b.parties)
		h.WriteInt(b.count)
		h.WriteI64(b.generation)
		h.WriteI64(b.episodes)
	}
	for _, s := range t.state {
		h.WriteInt(int(s))
	}
}
