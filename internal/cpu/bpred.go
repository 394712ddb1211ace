package cpu

import "ptbsim/internal/power"

// gshare is the branch predictor of Table 1: a gshare with 16 bits of
// global history, 2^16 two-bit saturating counters indexed by the PC XOR
// the history register.
type gshare struct {
	// packed holds the counters four to a byte, counter i in bits
	// 2*(i%4) and up of byte i/4. Each is stored XOR 2, so the zero value
	// is 2, weakly taken: loop branches train instantly.
	packed  []uint8
	history uint64
	mask    uint64

	meter *power.Meter
	core  int

	lookups, correct int64
}

func newGshare(bits uint, meter *power.Meter, core int) *gshare {
	return &gshare{
		packed: make([]uint8, (1<<bits+3)/4),
		mask:   (1 << bits) - 1,
		meter:  meter,
		core:   core,
	}
}

func (g *gshare) index(pc uint64) uint64 {
	return ((pc >> 2) ^ g.history) & g.mask
}

// counter returns counter i, 0 (strongly not taken) to 3 (strongly taken).
func (g *gshare) counter(i uint64) uint8 {
	return (g.packed[i>>2]>>((i&3)*2))&3 ^ 2
}

// setCounter stores c, 0 to 3, as counter i.
func (g *gshare) setCounter(i uint64, c uint8) {
	sh := (i & 3) * 2
	b := &g.packed[i>>2]
	*b = *b&^(3<<sh) | (c^2)<<sh
}

// predict returns the prediction for the branch at pc and charges the
// lookup energy.
func (g *gshare) predict(pc uint64) bool {
	if g.meter != nil {
		g.meter.Add(g.core, power.EvBpred, 1)
	}
	g.lookups++
	return g.counter(g.index(pc)) >= 2
}

// update trains the predictor with the actual outcome and shifts the
// history. The simulator resolves predictions at fetch (the correct-path
// stream is known), so history is always the true history — equivalent to a
// machine with perfect history repair on misprediction.
func (g *gshare) update(pc uint64, taken, predicted bool) {
	if g.meter != nil {
		g.meter.Add(g.core, power.EvBpred, 1)
	}
	if taken == predicted {
		g.correct++
	}
	i := g.index(pc)
	c := g.counter(i)
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	g.setCounter(i, c)
	g.history = ((g.history << 1) | b2u(taken)) & g.mask
}

// Accuracy returns the fraction of correct predictions so far.
func (g *gshare) Accuracy() float64 {
	if g.lookups == 0 {
		return 1
	}
	return float64(g.correct) / float64(g.lookups)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
