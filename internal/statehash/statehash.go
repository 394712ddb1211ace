// Package statehash digests simulator state. Every stateful component
// exposes a HashState(*Hasher) method that feeds its mutable
// result-determining fields through a Hasher in a fixed order; the
// chained sha256 Sum is then a fingerprint of the whole system at one
// cycle. Two runs whose digests agree at a cycle are in the same state
// there, so the digests localize where two builds or configs diverge.
package statehash

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"
)

// Hasher accumulates simulator state into a sha256 digest. Components
// expose a HashState(*Hasher) method feeding every mutable
// result-determining field through it in a fixed order; the final Sum is
// the state digest.
//
// The rules for HashState implementations:
//   - hash values, never pointers or addresses;
//   - walk maps in sorted-key order (Go map iteration is randomized);
//   - skip pools, scratch buffers and telemetry — anything whose content
//     cannot influence future results;
//   - keep the field order append-only: reordering changes every digest.
type Hasher struct {
	h   [32]byte // running chain: sha256(prev || block)
	buf []byte
	n   int
}

// NewHasher returns a Hasher with an empty chain.
func NewHasher() *Hasher {
	return &Hasher{buf: make([]byte, 0, 4096)}
}

// flush folds the buffered bytes into the chain.
func (h *Hasher) flush() {
	if len(h.buf) == 0 {
		return
	}
	s := sha256.New()
	s.Write(h.h[:])
	s.Write(h.buf)
	s.Sum(h.h[:0])
	h.buf = h.buf[:0]
	h.n++
}

func (h *Hasher) grow(n int) {
	if len(h.buf)+n > cap(h.buf) {
		h.flush()
	}
}

// WriteU64 appends one unsigned 64-bit value.
func (h *Hasher) WriteU64(v uint64) {
	h.grow(8)
	h.buf = binary.LittleEndian.AppendUint64(h.buf, v)
}

// WriteI64 appends one signed 64-bit value.
func (h *Hasher) WriteI64(v int64) { h.WriteU64(uint64(v)) }

// WriteInt appends one int.
func (h *Hasher) WriteInt(v int) { h.WriteU64(uint64(int64(v))) }

// WriteF64 appends one float64, bit-exactly.
func (h *Hasher) WriteF64(v float64) { h.WriteU64(math.Float64bits(v)) }

// WriteBool appends one bool.
func (h *Hasher) WriteBool(v bool) {
	if v {
		h.WriteU64(1)
	} else {
		h.WriteU64(0)
	}
}

// WriteBytes appends a length-prefixed byte string.
func (h *Hasher) WriteBytes(b []byte) {
	h.WriteU64(uint64(len(b)))
	for len(b) > 0 {
		h.grow(1)
		n := cap(h.buf) - len(h.buf)
		if n > len(b) {
			n = len(b)
		}
		h.buf = append(h.buf, b[:n]...)
		b = b[n:]
	}
}

// WriteString appends a length-prefixed string.
func (h *Hasher) WriteString(s string) {
	h.WriteU64(uint64(len(s)))
	for len(s) > 0 {
		h.grow(1)
		n := cap(h.buf) - len(h.buf)
		if n > len(s) {
			n = len(s)
		}
		h.buf = append(h.buf, s[:n]...)
		s = s[n:]
	}
}

// Sum returns the digest over everything written so far. The Hasher
// remains usable; further writes extend the chain.
func (h *Hasher) Sum() [32]byte {
	h.flush()
	return h.h
}

// SortedKeys returns m's keys in ascending order — the canonical
// iteration order for hashing map-shaped state.
func SortedKeys[M ~map[uint64]V, V any](m M) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
