// Package memstore implements storage.Graph as a flat in-memory layout.
// It plays the role of the paper's less I/O-bound backend (JanusGraph
// with a warm cache): no read touches a disk, so the benefit of the
// optimized schema comes purely from doing fewer traversals.
//
// A finalized store is a handful of shared arrays, CSR style. One record
// per vertex, plus a sentinel, holds the vertex's offsets into the
// property arrays (keys and values side by side, each vertex's run in
// key-name order) and into the out- and in-edge arrays (each vertex's run
// sorted by edge type, then edge ID). An edge entry is 12 bytes: its
// type, its other end and its ID, both 32-bit. Label membership is one
// bitmap per label, so HasLabelID is one bit test, and each label's VID
// postings serve the label scans. A store past 2^32-1 vertices, edges or
// properties does not fit the 32-bit offsets, and Finalize refuses it.
package memstore

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/propindex"
)

// offsets is one vertex's record: its properties start at index prop of
// keys and vals, its out-edges at index out of out and its in-edges at
// index in of in; the next vertex's record ends them.
type offsets struct {
	prop, out, in uint32
}

// edge is one adjacency entry: the edge's type, the vertex at its other
// end and its ID.
type edge struct {
	etype int32
	other uint32
	id    uint32
}

// pendingEdge is an edge of the load, placed into the adjacency arrays by
// Finalize. Its ID is its position in the load.
type pendingEdge struct {
	src, dst uint32
	etype    int32
}

// Store is an in-memory property graph. The zero value is not usable; call
// New.
//
// A store is written once, through storage.Builder's batches, by a single
// writer: a vertex batch is written straight into the vertex records and
// property arrays, and edges wait for Finalize, which places them by a
// counting sort and builds the label bitmaps and the value index. The
// store takes no writes after it (storage.ErrFinalized). Once finalized,
// every read method touches only data that no longer changes, so the
// store serves any number of concurrent readers without locking.
type Store struct {
	storage.ByName

	// offs holds NumVertices()+1 records: vertex v's properties are
	// keys[offs[v].prop:offs[v+1].prop] with their values beside them in
	// vals, and likewise its out- and in-edges in out and in.
	offs    []offsets
	keys    []int32
	vals    []graph.Value
	out, in []edge

	// byLabel holds each label's VIDs in ascending order, indexed by label
	// ID; bits holds each label's membership bitmap, built by Finalize and
	// indexed the same way.
	byLabel [][]uint32
	bits    [][]uint64

	// pending holds the load's edges until Finalize.
	pending []pendingEdge

	labelIDs map[string]int32
	labels   []string
	typeIDs  map[string]int32
	types    []string
	keyIDs   map[string]int32
	keyNames []string

	// finalized is set by Finalize; index then holds the (label, key,
	// value) postings (package propindex). Before it, reads are undefined
	// (the storage.Builder contract).
	finalized bool
	index     *propindex.Index
}

var (
	_ storage.Builder    = (*Store)(nil)
	_ storage.Statistics = (*Store)(nil)
)

// New returns an empty in-memory store.
func New() *Store {
	s := &Store{
		offs:     make([]offsets, 1),
		labelIDs: map[string]int32{},
		typeIDs:  map[string]int32{},
		keyIDs:   map[string]int32{},
	}
	s.ByName = storage.NewByName(s)
	return s
}

func intern(s string, ids map[string]int32, names *[]string) int32 {
	if id, ok := ids[s]; ok {
		return id
	}
	id := int32(len(*names))
	ids[s] = id
	*names = append(*names, s)
	return id
}

// AddVertexBatch writes the batch's vertices with consecutive IDs: each
// vertex's labels go into their postings, and its properties, applied in
// order, become its run of the property arrays.
func (s *Store) AddVertexBatch(batch []storage.BulkVertex) (storage.VID, error) {
	if s.finalized {
		return 0, fmt.Errorf("memstore: %w", storage.ErrFinalized)
	}
	first := storage.VID(s.NumVertices())
	for i, bv := range batch {
		v := uint32(first) + uint32(i)
		for _, l := range bv.Labels {
			id := intern(l, s.labelIDs, &s.labels)
			if int(id) == len(s.byLabel) {
				s.byLabel = append(s.byLabel, nil)
			}
			if p := s.byLabel[id]; len(p) == 0 || p[len(p)-1] != v {
				s.byLabel[id] = append(p, v)
			}
		}
		start := len(s.keys)
		for _, p := range bv.Props {
			s.setProp(start, p.Key, p.Value)
		}
		s.offs = append(s.offs, offsets{prop: uint32(len(s.keys))})
	}
	return first, nil
}

// setProp sets a property of the vertex whose run starts at start, the
// last run of the property arrays, replacing any earlier value of the key
// and keeping the run in key-name order.
func (s *Store) setProp(start int, key string, val graph.Value) {
	id := intern(key, s.keyIDs, &s.keyNames)
	at := len(s.keys)
	for i := start; i < len(s.keys); i++ {
		if s.keys[i] == id {
			s.vals[i] = val
			return
		}
		if s.keyNames[s.keys[i]] > key {
			at = i
			break
		}
	}
	s.keys = slices.Insert(s.keys, at, id)
	s.vals = slices.Insert(s.vals, at, val)
}

// AddEdgeBatch takes the batch's edges for Finalize to place. The batch
// is checked whole before any edge is taken.
func (s *Store) AddEdgeBatch(batch []storage.BulkEdge) error {
	if s.finalized {
		return fmt.Errorf("memstore: %w", storage.ErrFinalized)
	}
	for _, be := range batch {
		if err := s.check(be.Src); err != nil {
			return err
		}
		if err := s.check(be.Dst); err != nil {
			return err
		}
	}
	for _, be := range batch {
		t := intern(be.Type, s.typeIDs, &s.types)
		s.pending = append(s.pending, pendingEdge{src: uint32(be.Src), dst: uint32(be.Dst), etype: t})
	}
	return nil
}

// checkSize reports a store whose vertex, edge or property count does
// not fit the layout's 32-bit VIDs, edge IDs and offsets.
func checkSize(vertices, edges, props int) error {
	for _, c := range []struct {
		what string
		n    int
	}{{"vertices", vertices}, {"edges", edges}, {"properties", props}} {
		if uint64(c.n) > math.MaxUint32 {
			return fmt.Errorf("memstore: %d %s exceed the flat layout's 32-bit limit", c.n, c.what)
		}
	}
	return nil
}

// Finalize ends the load. It places the edges into the out- and in-edge
// arrays, each vertex's run sorted by (edge type, edge ID), builds each
// label's bitmap from its postings and the (label, key, value) value
// index. A second call does nothing.
func (s *Store) Finalize() error {
	if s.finalized {
		return nil
	}
	n := s.NumVertices()
	if err := checkSize(n, len(s.pending), len(s.keys)); err != nil {
		return err
	}
	// Two stable counting sorts: by type, then by vertex, leave each
	// vertex's edges in (type, ID) order.
	byType, _ := groupBy(len(s.pending), len(s.types), func(k int) int { return int(s.pending[k].etype) })
	s.out = s.place(byType, true)
	s.in = s.place(byType, false)
	s.pending = nil

	words := (n + 63) / 64
	backing := make([]uint64, len(s.byLabel)*words)
	s.bits = make([][]uint64, len(s.byLabel))
	var b propindex.Builder
	for label, postings := range s.byLabel {
		bm := backing[label*words : (label+1)*words : (label+1)*words]
		for _, v := range postings {
			bm[v/64] |= 1 << (v % 64)
			for i := s.offs[v].prop; i < s.offs[v+1].prop; i++ {
				b.Add(int32(label), s.keys[i], storage.VID(v), s.vals[i])
			}
		}
		s.bits[label] = bm
	}
	s.index = b.Finish()
	s.finalized = true
	return nil
}

// place lays the edges out grouped by source (out) or destination
// vertex, in the order of byType within a vertex, and records each
// vertex's start in its offsets record.
func (s *Store) place(byType []uint32, out bool) []edge {
	ends := func(e pendingEdge) (this, other uint32) {
		if out {
			return e.src, e.dst
		}
		return e.dst, e.src
	}
	byVertex, start := groupBy(len(byType), s.NumVertices(), func(i int) int {
		v, _ := ends(s.pending[byType[i]])
		return int(v)
	})
	adj := make([]edge, len(byVertex))
	for i, j := range byVertex {
		k := byType[j]
		_, other := ends(s.pending[k])
		adj[i] = edge{etype: s.pending[k].etype, other: other, id: k}
	}
	for v, at := range start {
		if out {
			s.offs[v].out = at
		} else {
			s.offs[v].in = at
		}
	}
	return adj
}

// groupBy is a stable counting sort of the positions 0..n-1 by key, whose
// values lie in [0, buckets). It returns the sorted positions and where
// each key's group starts in them, with n appended.
func groupBy(n, buckets int, key func(int) int) (perm, start []uint32) {
	start = make([]uint32, buckets+1)
	for i := range n {
		start[key(i)+1]++
	}
	for b := 1; b <= buckets; b++ {
		start[b] += start[b-1]
	}
	next := slices.Clone(start[:buckets])
	perm = make([]uint32, n)
	for i := range n {
		k := key(i)
		perm[next[k]] = uint32(i)
		next[k]++
	}
	return perm, start
}

// Close is a no-op for the in-memory store.
func (s *Store) Close() error { return nil }

func (s *Store) check(v storage.VID) error {
	if !s.has(v) {
		return fmt.Errorf("memstore: vertex %d out of range", v)
	}
	return nil
}

// has reports whether v names a vertex of the store.
func (s *Store) has(v storage.VID) bool { return uint64(v) < uint64(len(s.offs)-1) }

// NumVertices returns the number of vertices.
func (s *Store) NumVertices() int { return len(s.offs) - 1 }

// NumEdges returns the number of edges.
func (s *Store) NumEdges() int { return len(s.out) }

// Labels returns the labels of the vertex in lexicographic order, read
// off the label bitmaps.
func (s *Store) Labels(v storage.VID) []string {
	var out []string
	for id := range s.bits {
		if s.HasLabelID(v, storage.SymbolID(id)) {
			out = append(out, s.labels[id])
		}
	}
	slices.Sort(out)
	return out
}

// PropKeys returns the property keys present on the vertex in
// lexicographic order (a vertex's run is in key-name order).
func (s *Store) PropKeys(v storage.VID) []string {
	if !s.has(v) {
		return nil
	}
	run := s.keys[s.offs[v].prop:s.offs[v+1].prop]
	out := make([]string, len(run))
	for i, k := range run {
		out[i] = s.keyNames[k]
	}
	return out
}

// adjacency returns v's out- or in-edges, sorted by (type, ID); nil for
// an out-of-range v.
func (s *Store) adjacency(v storage.VID, out bool) []edge {
	if !s.has(v) {
		return nil
	}
	if out {
		return s.out[s.offs[v].out:s.offs[v+1].out]
	}
	return s.in[s.offs[v].in:s.offs[v+1].in]
}

// segmentStart returns the index of the first edge with type >= want in a
// type-sorted list.
func segmentStart(list []edge, want int32) int {
	lo, hi := 0, len(list)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if list[m].etype < want {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func (s *Store) forEachID(v storage.VID, etype storage.SymbolID, out bool, fn func(storage.EID, storage.VID) bool) {
	if etype == storage.NoSymbol {
		return
	}
	list := s.adjacency(v, out)
	if etype == storage.AnySymbol {
		for _, e := range list {
			if !fn(storage.EID(e.id), storage.VID(e.other)) {
				return
			}
		}
		return
	}
	// Type-segmented list: seek to the segment, stop at its end — no
	// per-edge type filtering.
	want := int32(etype)
	for i := segmentStart(list, want); i < len(list) && list[i].etype == want; i++ {
		if !fn(storage.EID(list[i].id), storage.VID(list[i].other)) {
			return
		}
	}
}

// LabelID resolves a vertex label to its interned ID.
func (s *Store) LabelID(label string) storage.SymbolID { return resolve(label, s.labelIDs) }

// TypeID resolves an edge type to its interned ID.
func (s *Store) TypeID(etype string) storage.SymbolID { return resolve(etype, s.typeIDs) }

// KeyID resolves a property key to its interned ID.
func (s *Store) KeyID(key string) storage.SymbolID { return resolve(key, s.keyIDs) }

func resolve(name string, ids map[string]int32) storage.SymbolID {
	if name == "" {
		return storage.AnySymbol
	}
	if id, ok := ids[name]; ok {
		return storage.SymbolID(id)
	}
	return storage.NoSymbol
}

// postings returns the label's VIDs; nil for NoSymbol, AnySymbol and an
// unknown ID.
func (s *Store) postings(label storage.SymbolID) []uint32 {
	if uint64(label) >= uint64(len(s.byLabel)) {
		return nil
	}
	return s.byLabel[label]
}

// CountLabelID returns the number of vertices carrying the label.
func (s *Store) CountLabelID(label storage.SymbolID) int {
	if label == storage.AnySymbol {
		return s.NumVertices()
	}
	return len(s.postings(label))
}

// ForEachVertexID calls fn for every vertex carrying the label.
func (s *Store) ForEachVertexID(label storage.SymbolID, fn func(storage.VID) bool) {
	if label == storage.AnySymbol {
		for v := range s.NumVertices() {
			if !fn(storage.VID(v)) {
				return
			}
		}
		return
	}
	for _, v := range s.postings(label) {
		if !fn(storage.VID(v)) {
			return
		}
	}
}

// PlanVertexScan splits the label's posting list (or, for AnySymbol, the
// dense VID range) into near-even contiguous partitions for morsel-style
// parallel execution. memstore is immutable once built, so slicing the
// postings directly is already a consistent snapshot.
func (s *Store) PlanVertexScan(label storage.SymbolID, parts int) []storage.VertexScan {
	if label == storage.AnySymbol {
		ranges := storage.SplitRange(s.NumVertices(), parts)
		scans := make([]storage.VertexScan, len(ranges))
		for i, r := range ranges {
			lo, hi := r[0], r[1]
			scans[i] = func(fn func(storage.VID) bool) {
				for v := lo; v < hi; v++ {
					if !fn(storage.VID(v)) {
						return
					}
				}
			}
		}
		return scans
	}
	postings := s.postings(label)
	ranges := storage.SplitRange(len(postings), parts)
	scans := make([]storage.VertexScan, len(ranges))
	for i, r := range ranges {
		part := postings[r[0]:r[1]]
		scans[i] = func(fn func(storage.VID) bool) {
			for _, v := range part {
				if !fn(storage.VID(v)) {
					return
				}
			}
		}
	}
	return scans
}

// HasLabelID reports whether the vertex carries the label: one bit of the
// label's bitmap. The bitmap holds no bit past the last vertex, so an
// out-of-range VID (a negative one included) reads as absent.
func (s *Store) HasLabelID(v storage.VID, label storage.SymbolID) bool {
	if uint64(label) >= uint64(len(s.bits)) {
		return false
	}
	bm, w := s.bits[label], uint64(v)/64
	return w < uint64(len(bm)) && bm[w]&(1<<(uint64(v)%64)) != 0
}

// PropID returns the value of a vertex property.
func (s *Store) PropID(v storage.VID, key storage.SymbolID) (graph.Value, bool) {
	if key < 0 || !s.has(v) {
		return graph.Null, false
	}
	lo, hi := s.offs[v].prop, s.offs[v+1].prop
	want := int32(key)
	for i, k := range s.keys[lo:hi] {
		if k == want {
			return s.vals[int(lo)+i], true
		}
	}
	return graph.Null, false
}

// ForEachVertexByPropID calls fn for every vertex carrying the label and
// the property value: the index's postings, or a filtered label scan for
// the AnySymbol label, which has no postings, and for a list value, which
// the index leaves out.
func (s *Store) ForEachVertexByPropID(label, key storage.SymbolID, val graph.Value, fn func(storage.VID) bool) {
	var postings []uint32
	indexed := false
	if label >= 0 && key >= 0 {
		postings, indexed = s.index.Lookup(int32(label), int32(key), val, func(v storage.VID) (graph.Value, bool) {
			return s.PropID(v, key)
		})
	}
	if !indexed {
		storage.ScanByPropID(s, label, key, val, fn)
		return
	}
	for _, v := range postings {
		if !fn(storage.VID(v)) {
			return
		}
	}
}

// ForEachOutID iterates out-edges of v with the given type.
func (s *Store) ForEachOutID(v storage.VID, etype storage.SymbolID, fn func(storage.EID, storage.VID) bool) {
	s.forEachID(v, etype, true, fn)
}

// ForEachInID iterates in-edges of v with the given type.
func (s *Store) ForEachInID(v storage.VID, etype storage.SymbolID, fn func(storage.EID, storage.VID) bool) {
	s.forEachID(v, etype, false, fn)
}

// DegreeID returns the number of out- or in-edges of the given type: the
// length of the vertex's run, or of its type's segment.
func (s *Store) DegreeID(v storage.VID, etype storage.SymbolID, out bool) int {
	if etype == storage.NoSymbol {
		return 0
	}
	list := s.adjacency(v, out)
	if etype == storage.AnySymbol {
		return len(list)
	}
	want := int32(etype)
	return segmentStart(list, want+1) - segmentStart(list, want)
}

// LabelCounts returns the exact number of vertices per label
// (storage.Statistics).
func (s *Store) LabelCounts() map[string]int {
	out := make(map[string]int, len(s.labels))
	for id, name := range s.labels {
		out[name] = len(s.byLabel[id])
	}
	return out
}

// EdgeTypeCounts returns the exact number of edges per edge type,
// counted on demand — memstore keeps no running per-type totals, and
// statistics consumers call this once per plan, not per tuple.
func (s *Store) EdgeTypeCounts() map[string]int {
	out := make(map[string]int, len(s.types))
	for _, name := range s.types {
		out[name] = 0
	}
	for _, e := range s.out {
		out[s.types[e.etype]]++
	}
	return out
}
