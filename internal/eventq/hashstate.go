package eventq

import "ptbsim/internal/statehash"

// HashState folds the queue's observable schedule into h for state
// digests: the counters plus the multiset of pending event cycles, in
// deterministic wheel order. Event payloads are closures and cannot be
// hashed — the component state they would mutate is hashed separately,
// and the cycle multiset pins the schedule's shape. The free list is
// excluded. The field order is append-only.
func (q *Queue) HashState(h *statehash.Hasher) {
	h.WriteInt(q.count)
	h.WriteI64(q.now)
	if q.count > 0 {
		h.WriteI64(q.nextDue)
	}
	for b := range q.buckets {
		for e := q.buckets[b]; e != nil; e = e.next {
			h.WriteI64(e.cycle)
		}
	}
}
