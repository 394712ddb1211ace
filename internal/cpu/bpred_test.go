package cpu

import (
	"testing"

	"ptbsim/internal/xrand"
)

// byteGshare is gshare with one byte per counter, initialized to 2: the
// reference the packed table must match.
type byteGshare struct {
	counters         []uint8
	history, mask    uint64
	lookups, correct int64
}

func newByteGshare(bits uint) *byteGshare {
	g := &byteGshare{counters: make([]uint8, 1<<bits), mask: 1<<bits - 1}
	for i := range g.counters {
		g.counters[i] = 2
	}
	return g
}

func (g *byteGshare) index(pc uint64) uint64 { return ((pc >> 2) ^ g.history) & g.mask }

func (g *byteGshare) predict(pc uint64) bool {
	g.lookups++
	return g.counters[g.index(pc)] >= 2
}

func (g *byteGshare) update(pc uint64, taken, predicted bool) {
	if taken == predicted {
		g.correct++
	}
	i := g.index(pc)
	c := g.counters[i]
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	g.counters[i] = c
	g.history = ((g.history << 1) | b2u(taken)) & g.mask
}

// TestPackedGshareMatchesBytePerCounter drives the packed predictor and
// the byte-per-counter reference with one seeded branch stream: strongly
// biased branches, whose counters saturate at 0 and 3 and must stay there,
// mixed with coin-flip ones. Every prediction, every counter, the history
// register and the lookup and correct counts must agree, on the Table-1
// table and on a small one whose counter count is not a multiple of four
// bytes' worth.
func TestPackedGshareMatchesBytePerCounter(t *testing.T) {
	for _, bits := range []uint{16, 8, 1} {
		got, want := newGshare(bits, nil, 0), newByteGshare(bits)
		rng := xrand.New(uint64(bits))
		type branch struct {
			pc    uint64
			pTake float64
		}
		var branches []branch
		for i := 0; i < 64; i++ {
			p := []float64{0, 1, 0.02, 0.98, 0.5}[i%5]
			branches = append(branches, branch{uint64(0x4000 + 4*rng.Intn(1<<14)), p})
		}
		saw := [4]bool{}
		for i := 0; i < 100_000; i++ {
			b := branches[rng.Intn(len(branches))]
			taken := rng.Bool(b.pTake)
			pg, pw := got.predict(b.pc), want.predict(b.pc)
			if pg != pw {
				t.Fatalf("bits %d, branch %d: prediction %v, reference %v", bits, i, pg, pw)
			}
			idx := want.index(b.pc)
			got.update(b.pc, taken, pg)
			want.update(b.pc, taken, pw)
			if g, w := got.counter(idx), want.counters[idx]; g != w {
				t.Fatalf("bits %d, branch %d: counter %d = %d, reference %d", bits, i, idx, g, w)
			}
			saw[want.counters[idx]] = true
			if i%10_000 == 0 || i == 99_999 {
				for j, w := range want.counters {
					if g := got.counter(uint64(j)); g != w {
						t.Fatalf("bits %d, branch %d: counter %d = %d, reference %d", bits, i, j, g, w)
					}
				}
			}
		}
		if !saw[0] || !saw[3] {
			t.Fatalf("bits %d: counters never saturated (saw 0: %v, saw 3: %v)", bits, saw[0], saw[3])
		}
		if got.history != want.history || got.lookups != want.lookups || got.correct != want.correct {
			t.Fatalf("bits %d: history/lookups/correct %#x/%d/%d, reference %#x/%d/%d", bits,
				got.history, got.lookups, got.correct, want.history, want.lookups, want.correct)
		}
	}
}
