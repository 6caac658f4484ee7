package memstore

import (
	"hash/maphash"
	"math"

	"repro/internal/graph"
	"repro/internal/storage"
)

// propIndex is Finalize's value index: the VID postings of every (label,
// property key, value) triple, answering ForEachVertexByPropID without a
// label scan.
//
// vids is one flat array of every posting, one contiguous run per triple;
// within a run the VIDs keep the label's scan order, so an index-served
// lookup visits vertices exactly as the filtered label scan would. ranges
// holds one entry per triple, and slots is an open-addressed hash table
// (linear probing, power-of-two size, at most 3/4 full) of ranges indexes
// plus one, 0 marking an empty slot. A range records its triple's hash,
// label and key but not its value: the value is read back from the run's
// first vertex, so the index holds no copy of any property value.
//
// Value identity is graph.Value.Equal, which is not AppendKey's: a number
// hashes by the integer it equals exactly (AsInt) or else by its DOUBLE
// bits, so INT 1 and DOUBLE 1.0, or -0.0 and 0.0, inside lists too, share
// a run. Values holding a NaN are Equal to nothing and are left out.
type propIndex struct {
	seed   maphash.Seed
	vids   []storage.VID
	ranges []postingRange
	slots  []int32
}

// postingRange is one triple's run: vids[lo:hi].
type postingRange struct {
	hash       uint64
	label, key int32
	lo, hi     int
}

// buildPropIndex indexes every property of every labelled vertex under
// each of its labels, in two passes over the label postings: the first
// finds each posting's triple, counting the triple's postings in its
// range's hi; the second lays the runs out back to back and fills them.
func buildPropIndex(s *Store) *propIndex {
	ix := &propIndex{seed: maphash.MakeSeed(), slots: make([]int32, 64)}
	n := 0
	for _, members := range s.byLabel {
		for _, v := range members {
			n += len(s.vertices[v].props)
		}
	}
	var reps []storage.VID     // each range's first vertex, while lo is not yet set
	ids := make([]int32, 0, n) // each posting's range, -1 for a NaN-holding value
	s.forEachPosting(func(label int32, v storage.VID, p prop) {
		h, ok := ix.hash(label, p.key, p.val)
		if !ok {
			ids = append(ids, -1)
			return
		}
		id := ix.insert(s, reps, h, label, p.key, p.val)
		if id == len(reps) {
			reps = append(reps, v)
		}
		ix.ranges[id].hi++
		ids = append(ids, int32(id))
	})
	n = 0
	for i := range ix.ranges {
		r := &ix.ranges[i]
		r.lo, r.hi, n = n, n, n+r.hi
	}
	ix.vids = make([]storage.VID, n)
	next := 0
	s.forEachPosting(func(_ int32, v storage.VID, _ prop) {
		if id := ids[next]; id >= 0 {
			r := &ix.ranges[id]
			ix.vids[r.hi] = v
			r.hi++
		}
		next++
	})
	return ix
}

// forEachPosting calls fn for every (label, vertex, property) triple,
// labels in ID order and each label's vertices in scan order.
func (s *Store) forEachPosting(fn func(label int32, v storage.VID, p prop)) {
	for label := range s.labels {
		for _, v := range s.byLabel[int32(label)] {
			for _, p := range s.vertices[v].props {
				fn(int32(label), v, p)
			}
		}
	}
}

// insert returns the index of the range holding (label, key, val), adding
// it — at index len(ix.ranges), == len(reps) — when no range does yet.
func (ix *propIndex) insert(s *Store, reps []storage.VID, h uint64, label, key int32, val graph.Value) int {
	if 4*(len(ix.ranges)+1) > 3*len(ix.slots) {
		ix.slots = make([]int32, 2*len(ix.slots))
		for id := range ix.ranges {
			ix.slots[ix.emptySlot(ix.ranges[id].hash)] = int32(id + 1)
		}
	}
	mask := uint64(len(ix.slots) - 1)
	i := h & mask
	for ; ix.slots[i] != 0; i = (i + 1) & mask {
		id := int(ix.slots[i] - 1)
		if r := &ix.ranges[id]; r.hash == h && r.label == label && r.key == key {
			if got, _ := s.PropID(reps[id], storage.SymbolID(key)); got.Equal(val) {
				return id
			}
		}
	}
	ix.ranges = append(ix.ranges, postingRange{hash: h, label: label, key: key})
	ix.slots[i] = int32(len(ix.ranges))
	return len(ix.ranges) - 1
}

func (ix *propIndex) emptySlot(h uint64) uint64 {
	mask := uint64(len(ix.slots) - 1)
	i := h & mask
	for ix.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// lookup returns the postings of (label, key, val), nil when no vertex
// carries it.
func (ix *propIndex) lookup(s *Store, label, key int32, val graph.Value) []storage.VID {
	h, ok := ix.hash(label, key, val)
	if !ok {
		return nil
	}
	mask := uint64(len(ix.slots) - 1)
	for i := h & mask; ix.slots[i] != 0; i = (i + 1) & mask {
		r := &ix.ranges[ix.slots[i]-1]
		if r.hash != h || r.label != label || r.key != key {
			continue
		}
		if got, _ := s.PropID(ix.vids[r.lo], storage.SymbolID(key)); got.Equal(val) {
			return ix.vids[r.lo:r.hi]
		}
	}
	return nil
}

// Hash tags keep values of different kinds (and a list from its first
// element) apart before mixing.
const (
	tagNull uint64 = iota + 1
	tagString
	tagInt
	tagFloat
	tagBool
	tagList
)

// hash hashes a (label, key, value) triple consistently with Equal; ok
// is false when the value holds a NaN.
func (ix *propIndex) hash(label, key int32, val graph.Value) (h uint64, ok bool) {
	return ix.hashValue(mix(uint64(uint32(label))<<32|uint64(uint32(key))), val)
}

func (ix *propIndex) hashValue(h uint64, v graph.Value) (uint64, bool) {
	switch v.Kind() {
	case graph.KindString:
		return mix(h ^ tagString ^ maphash.String(ix.seed, v.Str())), true
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
		h = mix(mix(h^tagList) ^ uint64(v.Len()))
		for _, e := range v.List() {
			var ok bool
			if h, ok = ix.hashValue(h, e); !ok {
				return 0, false
			}
		}
		return h, true
	default:
		return mix(h ^ tagNull), true
	}
}

// mix is the SplitMix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
