package fault

import "ptbsim/internal/statehash"

// HashState folds all four injection domains' rng streams and fired
// counters into h for state digests — the injector is deterministic
// state like any other component. Nil-safe: a run without fault
// injection hashes nothing. The field order is append-only.
func (i *Injector) HashState(h *statehash.Hasher) {
	if i == nil {
		return
	}
	h.WriteU64(i.token.rng.State())
	h.WriteI64(i.token.fired)
	h.WriteU64(i.link.rng.State())
	h.WriteI64(i.link.fired)
	h.WriteU64(i.sensor.rng.State())
	h.WriteI64(i.sensor.fired)
	h.WriteU64(i.dvfs.rng.State())
	h.WriteI64(i.dvfs.fired)
}
