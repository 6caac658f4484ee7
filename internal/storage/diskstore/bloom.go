package diskstore

// Per-(label, property-key) bloom filters over the property values
// present at Finalize time (format v5 and later). The compiled scan step probes
// them before a property-constraint label scan: a negative answer is
// definitive — no vertex with that label carried that value when the
// base was built — so the scan can be skipped entirely. Positive answers
// carry the usual bloom false-positive rate, sized here to stay under 1%.
//
// Filters are double-hashed (Kirsch-Mitzenmacher): k probe positions are
// derived from one 64-bit FNV-1a hash of the value's canonical key bytes
// (graph.Value.AppendKey) and its splitmix64 mix, so only one hash per
// value is ever computed or persisted.

import (
	"math"

	"repro/internal/graph"
)

// Bloom sizing: ~10 bits per entry with k = 7 probes gives a false
// positive rate of about 0.8% at design capacity. m is rounded up to a
// whole number of 64-bit words and capped so a single degenerate filter
// cannot balloon index.db.
const (
	bloomBitsPerEntry = 10
	bloomK            = 7
	bloomMinBits      = 64
	bloomMaxBits      = 1 << 24
)

type bloom struct {
	k    uint32
	bits []uint64 // m = len(bits) * 64
}

// newBloom sizes an empty filter for n entries.
func newBloom(n int) *bloom {
	m := n * bloomBitsPerEntry
	if m < bloomMinBits {
		m = bloomMinBits
	}
	if m > bloomMaxBits {
		m = bloomMaxBits
	}
	return &bloom{k: bloomK, bits: make([]uint64, (m+63)/64)}
}

func (b *bloom) m() uint64 { return uint64(len(b.bits)) * 64 }

func (b *bloom) add(h uint64) {
	h2 := splitmix64(h)
	m := b.m()
	for i := uint64(0); i < uint64(b.k); i++ {
		p := (h + i*h2) % m
		b.bits[p/64] |= 1 << (p % 64)
	}
}

func (b *bloom) mayHave(h uint64) bool {
	h2 := splitmix64(h)
	m := b.m()
	for i := uint64(0); i < uint64(b.k); i++ {
		p := (h + i*h2) % m
		if b.bits[p/64]&(1<<(p%64)) == 0 {
			return false
		}
	}
	return true
}

// mayHaveValue probes b for every stored form of a value Equal to val.
// Finalize hashes the canonical key bytes of the value as stored, and
// those spell INT 1 and DOUBLE 1.0 (or 0.0 and -0.0) differently although
// Equal calls them equal, so a number probes each spelling; a list
// holding a number would need every combination and answers "maybe".
func (b *bloom) mayHaveValue(val graph.Value) bool {
	switch val.Kind() {
	case graph.KindInt, graph.KindFloat:
		i, ok := val.AsInt()
		if !ok {
			if f := val.Float(); f != f {
				return false // NaN is Equal to nothing
			}
			return b.mayHave(hashValue(val))
		}
		if b.mayHave(hashValue(graph.I(i))) {
			return true
		}
		f := float64(i)
		if back, ok := graph.F(f).AsInt(); !ok || back != i {
			return false // no DOUBLE is Equal to this INT
		}
		return b.mayHave(hashValue(graph.F(f))) ||
			(f == 0 && b.mayHave(hashValue(graph.F(math.Copysign(0, -1)))))
	case graph.KindList:
		// Stored lists are flat (encodeValue refuses nesting), so only
		// the elements themselves can be numbers worth respelling.
		for _, e := range val.List() {
			if k := e.Kind(); k == graph.KindInt || k == graph.KindFloat {
				return true
			}
		}
	}
	return b.mayHave(hashValue(val))
}

// bloomKey packs a (label ID, property-key ID) pair into the epoch's
// filter-map key.
func bloomKey(labelID, keyID int) uint64 {
	return uint64(uint32(labelID))<<32 | uint64(uint32(keyID))
}

// hashValue hashes a property value's canonical key bytes (FNV-1a 64).
// Equal values of one kind produce equal key bytes; mayHaveValue covers
// the numbers Equal across kinds and signs.
func hashValue(v graph.Value) uint64 {
	var scratch [48]byte
	key := v.AppendKey(scratch[:0])
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range key {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// splitmix64 is the SplitMix64 finalizer — the second, independent hash
// for double hashing.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
