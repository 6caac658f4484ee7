// Package propindex is the value index both storage backends build when
// they finalize a base: the VID postings of every (label, property key,
// value) triple, answering Graph.ForEachVertexByPropID without a label
// scan. memstore holds one for its whole graph; diskstore builds one per
// base generation and persists it in the generation's index file.
//
// vids is one flat array of every posting, one contiguous run per triple,
// each posting a VID below 2^32 (a Builder given a larger one builds no
// index); within a run the VIDs keep the order they were added in, which
// both backends make their label-scan order (VID order), so an
// index-served lookup visits vertices exactly as the filtered label scan
// would. ranges holds one entry per triple, and slots is an
// open-addressed hash table (linear probing, power-of-two size, at most
// 3/4 full) of ranges indexes plus one, 0 marking an empty slot. A range
// records its triple's hash, label and key but not its value: a lookup
// that finds a matching hash reads the value back from the run's first
// vertex through its caller, so the index holds no copy of any property
// value, and a lookup whose hash matches nothing reads nothing at all.
//
// Value identity is graph.Value.Equal, which is not AppendKey's: a number
// hashes by the integer it equals exactly (AsInt) or else by its DOUBLE
// bits, so INT 1 and DOUBLE 1.0, or -0.0 and 0.0, share a run. A NaN is
// Equal to nothing and is left out. Lists are left out too: the query
// language has no list literal, so no query text looks one up, and the
// replicated list properties would otherwise be most of the runs (seven
// in ten on MED), nearly all of one posting. A list lookup is not
// indexed, and its caller filters the label scan. The hash is a fixed
// function of the triple — no per-process seed — so a persisted table
// stays valid in the next process.
package propindex

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/storage"
)

// Index is a finalized value index. The zero Index (and a nil *Index) is
// empty. An Index is immutable and safe for concurrent lookups.
type Index struct {
	vids   []uint32
	ranges []Range
	slots  []int32
}

// Range is one triple's run of postings: vids[Lo:Hi].
type Range struct {
	Hash       uint64
	Label, Key int32
	Lo, Hi     int
}

// Lookup returns the postings of (label, key, val) in ascending VID
// order, nil when no indexed vertex carries it. indexed is false when the
// index cannot answer — it is nil, or val is a list — and the caller must
// filter the label scan. valueOf reads back the indexed value of key on
// a run's first vertex — the value the vertex held when the index was
// built — and is called only for a run whose hash, label and key match,
// so an absent value usually costs no call at all.
func (ix *Index) Lookup(label, key int32, val graph.Value, valueOf func(storage.VID) (graph.Value, bool)) (vids []uint32, indexed bool) {
	if ix == nil || val.Kind() == graph.KindList {
		return nil, false
	}
	h, ok := hash(label, key, val)
	if !ok || len(ix.slots) == 0 {
		return nil, true
	}
	mask := uint64(len(ix.slots) - 1)
	for i := h & mask; ix.slots[i] != 0; i = (i + 1) & mask {
		r := &ix.ranges[ix.slots[i]-1]
		if r.Hash != h || r.Label != label || r.Key != key {
			continue
		}
		if got, ok := valueOf(storage.VID(ix.vids[r.Lo])); ok && got.Equal(val) {
			return ix.vids[r.Lo:r.Hi], true
		}
	}
	return nil, true
}

// Parts returns the index's arrays for serialization; FromParts is the
// inverse. The caller must not modify them.
func (ix *Index) Parts() (vids []uint32, ranges []Range, slots []int32) {
	if ix == nil {
		return nil, nil, nil
	}
	return ix.vids, ix.ranges, ix.slots
}

// FromParts rebuilds an index from the arrays Parts returned, checking
// every invariant a lookup relies on, since the arrays may come from
// disk: the runs lie back to back over vids, each non-empty and strictly
// ascending in [0, numVertices); slots is a power-of-two table with an
// empty slot, and every range is reachable from its hash by exactly one
// slot. It does not recompute hashes: a range filed under a wrong hash is
// never found, which costs a lookup its answer but not its safety.
func FromParts(vids []uint32, ranges []Range, slots []int32, numVertices int64) (*Index, error) {
	next := 0
	for i, r := range ranges {
		if r.Lo != next || r.Hi <= r.Lo || r.Hi > len(vids) || r.Label < 0 || r.Key < 0 {
			return nil, fmt.Errorf("propindex: range %d [%d,%d) does not follow %d within %d postings", i, r.Lo, r.Hi, next, len(vids))
		}
		for k := r.Lo; k < r.Hi; k++ {
			if v := vids[k]; int64(v) >= numVertices || (k > r.Lo && v <= vids[k-1]) {
				return nil, fmt.Errorf("propindex: range %d posting %d names vertex %d out of order or past %d", i, k, v, numVertices)
			}
		}
		next = r.Hi
	}
	if next != len(vids) {
		return nil, fmt.Errorf("propindex: ranges cover %d of %d postings", next, len(vids))
	}
	if len(slots) == 0 && len(ranges) == 0 {
		return &Index{vids: vids}, nil
	}
	if len(slots) == 0 || len(slots)&(len(slots)-1) != 0 || len(ranges) >= len(slots) {
		return nil, fmt.Errorf("propindex: %d slots for %d ranges", len(slots), len(ranges))
	}
	used := 0
	for _, s := range slots {
		if s < 0 || int(s) > len(ranges) {
			return nil, fmt.Errorf("propindex: slot names range %d of %d", s, len(ranges))
		}
		if s != 0 {
			used++
		}
	}
	if used != len(ranges) {
		return nil, fmt.Errorf("propindex: %d slots filled for %d ranges", used, len(ranges))
	}
	mask := uint64(len(slots) - 1)
	for id, r := range ranges {
		i := r.Hash & mask
		for ; slots[i] != 0 && int(slots[i]) != id+1; i = (i + 1) & mask {
		}
		if slots[i] == 0 {
			return nil, fmt.Errorf("propindex: range %d unreachable from its hash", id)
		}
	}
	return &Index{vids: vids, ranges: ranges, slots: slots}, nil
}

// Builder accumulates postings. Add them in label-scan order: a run keeps
// the order its postings were added in. The zero Builder is ready to use;
// NewBuilder sizes one up front.
type Builder struct {
	ix   Index
	reps []graph.Value // each range's value, until Finish
	// Each posting's range and vertex, in Add order; two slices rather
	// than one of pairs, which padding would make larger.
	ids []int32
	vs  []uint32
	// tooLarge is set by a VID past 2^32: Finish then builds nothing.
	tooLarge bool
}

// NewBuilder returns a Builder with room for about as many postings and
// distinct triples as like holds, so that rebuilding an index of similar
// size grows nothing.
func NewBuilder(like *Index) *Builder {
	b := &Builder{}
	if like == nil {
		return b
	}
	n, r := len(like.vids), len(like.ranges)
	b.ids = make([]int32, 0, n+n/8)
	b.vs = make([]uint32, 0, n+n/8)
	b.ix.ranges = make([]Range, 0, r+r/8)
	b.reps = make([]graph.Value, 0, r+r/8)
	b.ix.slots = make([]int32, len(like.slots))
	return b
}

// Add indexes vertex v's value val of key under label. A NaN and a list
// are left out.
func (b *Builder) Add(label, key int32, v storage.VID, val graph.Value) {
	h, ok := hash(label, key, val)
	if !ok || b.tooLarge {
		return
	}
	if v < 0 || v > math.MaxUint32 {
		b.tooLarge = true
		return
	}
	b.ids = append(b.ids, int32(b.insert(h, label, key, val)))
	b.vs = append(b.vs, uint32(v))
}

// insert returns the index of the range holding (label, key, val), adding
// it when no range does yet.
func (b *Builder) insert(h uint64, label, key int32, val graph.Value) int {
	ix := &b.ix
	if 4*(len(ix.ranges)+1) > 3*len(ix.slots) {
		ix.slots = make([]int32, max(64, 2*len(ix.slots)))
		for id := range ix.ranges {
			ix.slots[ix.emptySlot(ix.ranges[id].Hash)] = int32(id + 1)
		}
	}
	mask := uint64(len(ix.slots) - 1)
	i := h & mask
	for ; ix.slots[i] != 0; i = (i + 1) & mask {
		id := int(ix.slots[i] - 1)
		if r := &ix.ranges[id]; r.Hash == h && r.Label == label && r.Key == key && b.reps[id].Equal(val) {
			return id
		}
	}
	ix.ranges = append(ix.ranges, Range{Hash: h, Label: label, Key: key})
	b.reps = append(b.reps, val)
	ix.slots[i] = int32(len(ix.ranges))
	return len(ix.ranges) - 1
}

func (ix *Index) emptySlot(h uint64) uint64 {
	mask := uint64(len(ix.slots) - 1)
	i := h & mask
	for ix.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// Finish lays the runs out back to back, each in Add order, and returns
// the index, or nil when a VID did not fit. The Builder must not be used
// afterwards.
func (b *Builder) Finish() *Index {
	if b.tooLarge {
		*b = Builder{}
		return nil
	}
	ix := &b.ix
	for _, id := range b.ids {
		ix.ranges[id].Hi++
	}
	n := 0
	for i := range ix.ranges {
		r := &ix.ranges[i]
		r.Lo, r.Hi, n = n, n, n+r.Hi
	}
	ix.vids = make([]uint32, n)
	for k, id := range b.ids {
		r := &ix.ranges[id]
		ix.vids[r.Hi] = b.vs[k]
		r.Hi++
	}
	out := *ix
	*b = Builder{}
	return &out
}

// Hash tags keep values of different kinds apart before mixing.
const (
	tagNull uint64 = iota + 1
	tagString
	tagInt
	tagFloat
	tagBool
)

// hash hashes a (label, key, value) triple consistently with Equal; ok is
// false for a value the index leaves out, a NaN or a list. It is a fixed
// function, the same in every process, so hashes may be persisted.
func hash(label, key int32, v graph.Value) (h uint64, ok bool) {
	h = mix(uint64(uint32(label))<<32 | uint64(uint32(key)))
	switch v.Kind() {
	case graph.KindString:
		return hashString(mix(h^tagString), v.Str()), true
	case graph.KindInt, graph.KindFloat:
		if i, ok := v.AsInt(); ok {
			return mix(mix(h^tagInt) ^ uint64(i)), true
		}
		f := v.Float()
		if f != f {
			return 0, false
		}
		return mix(mix(h^tagFloat) ^ math.Float64bits(f)), true
	case graph.KindBool:
		b := uint64(0)
		if v.Bool() {
			b = 1
		}
		return mix(mix(h^tagBool) ^ b), true
	case graph.KindList:
		return 0, false
	default:
		return mix(h ^ tagNull), true
	}
}

// hashString mixes s in eight-byte little-endian words, then its
// length.
func hashString(h uint64, s string) uint64 {
	n := len(s)
	for len(s) >= 8 {
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = mix(h ^ w)
		s = s[8:]
	}
	var w uint64
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * i)
	}
	return mix(mix(h^w) ^ uint64(n))
}

// mix is the SplitMix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
