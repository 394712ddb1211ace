package sim

import "ptbsim/internal/statehash"

// StateHash digests every mutable result-determining component of the
// system: cores (ROB, fetch pipe, predictor, PTHT), workload generators
// (rng streams, branch patterns), caches and directory, mesh, memory,
// event queue schedule, power meter ledger, budget state, the active
// controller (balancer ledger and in-flight token batches included),
// collector, thermal model, sync table, and the fault engine's rng
// streams. Telemetry (obs) is deliberately excluded: it is
// result-neutral and not part of the stable config schema, so an observed
// and an unobserved run hash alike.
func (s *System) StateHash() [32]byte {
	h := statehash.NewHasher()
	h.WriteI64(s.cycle)
	h.WriteI64(s.fastCycles)
	h.WriteBool(s.hitMax)
	s.q.HashState(h)
	for _, c := range s.cores {
		c.HashState(h)
	}
	for _, g := range s.gens {
		g.HashState(h)
	}
	s.hier.HashState(h)
	s.net.HashState(h)
	s.meter.HashState(h)
	s.st.HashState(h)
	s.ctl.HashState(h)
	s.col.HashState(h)
	s.therm.HashState(h)
	s.sync.HashState(h)
	s.faults.HashState(h)
	s.sensor.HashState(h)
	return h.Sum()
}
