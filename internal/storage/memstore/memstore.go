// Package memstore implements storage.Graph with in-memory adjacency
// lists. It plays the role of the paper's less I/O-bound backend
// (JanusGraph with a warm cache): traversals are pointer chases, so the
// benefit of the optimized schema comes purely from doing fewer of them.
package memstore

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/storage"
)

type halfEdge struct {
	etype int32
	other storage.VID
	id    storage.EID
}

// prop is one vertex property. Vertices carry few properties, so a slice
// ordered by key name beats a map on both lookup and iteration.
type prop struct {
	key int32
	val graph.Value
}

type vertex struct {
	// labels is kept ordered by label name (not ID) at insert time so
	// Labels() needs no per-call sort.
	labels []int32
	// props is kept ordered by key name at insert time.
	props []prop
	out   []halfEdge
	in    []halfEdge
}

// Store is an in-memory property graph. The zero value is not usable; call
// New.
//
// A store is written once, through storage.Builder's batches, by a single
// writer; Finalize ends the load and the store takes no writes after it
// (storage.ErrFinalized). Once finalized, every read method touches only
// data that no longer changes, so the store serves any number of
// concurrent readers without locking.
type Store struct {
	storage.ByName

	vertices []vertex
	numEdges int

	labelIDs map[string]int32
	labels   []string
	typeIDs  map[string]int32
	types    []string
	keyIDs   map[string]int32
	keys     []string

	byLabel map[int32][]storage.VID

	// finalized is set by Finalize. From then on every vertex's out/in
	// lists are sorted by (etype, id), so typed iteration and degree
	// queries binary-search the matching segment, and index holds the
	// (label, key, value) postings (propindex.go); before it, index is
	// empty and reads are undefined (the storage.Builder contract).
	finalized bool
	index     *propIndex
}

var (
	_ storage.Builder    = (*Store)(nil)
	_ storage.Statistics = (*Store)(nil)
)

// New returns an empty in-memory store.
func New() *Store {
	s := &Store{
		labelIDs: map[string]int32{},
		typeIDs:  map[string]int32{},
		keyIDs:   map[string]int32{},
		byLabel:  map[int32][]storage.VID{},
	}
	s.ByName = storage.NewByName(s)
	s.index = buildPropIndex(s)
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

// AddVertexBatch creates the batch's vertices with consecutive IDs, each
// with its labels and its properties applied in order.
func (s *Store) AddVertexBatch(batch []storage.BulkVertex) (storage.VID, error) {
	if s.finalized {
		return 0, fmt.Errorf("memstore: %w", storage.ErrFinalized)
	}
	first := storage.VID(len(s.vertices))
	s.vertices = append(s.vertices, make([]vertex, len(batch))...)
	for i, bv := range batch {
		v := first + storage.VID(i)
		s.vertices[v].props = make([]prop, 0, len(bv.Props))
		for _, l := range bv.Labels {
			s.addLabel(v, l)
		}
		for _, p := range bv.Props {
			s.setProp(v, p.Key, p.Value)
		}
	}
	return first, nil
}

// addLabel adds a label to an existing vertex.
func (s *Store) addLabel(v storage.VID, label string) {
	id := intern(label, s.labelIDs, &s.labels)
	vx := &s.vertices[v]
	// Insert in label-name order so Labels() never has to sort.
	at := len(vx.labels)
	for i, l := range vx.labels {
		if l == id {
			return
		}
		if s.labels[l] > label {
			at = i
			break
		}
	}
	vx.labels = append(vx.labels, 0)
	copy(vx.labels[at+1:], vx.labels[at:])
	vx.labels[at] = id
	s.byLabel[id] = append(s.byLabel[id], v)
}

// setProp sets a vertex property, replacing any previous value.
func (s *Store) setProp(v storage.VID, key string, val graph.Value) {
	id := intern(key, s.keyIDs, &s.keys)
	vx := &s.vertices[v]
	// Insert in key-name order so PropKeys() never has to sort.
	at := len(vx.props)
	for i, p := range vx.props {
		if p.key == id {
			vx.props[i].val = val
			return
		}
		if s.keys[p.key] > key {
			at = i
			break
		}
	}
	vx.props = append(vx.props, prop{})
	copy(vx.props[at+1:], vx.props[at:])
	vx.props[at] = prop{key: id, val: val}
}

// AddEdgeBatch creates the batch's edges. In-memory adjacency is built
// eagerly (there is no deferred-linkage saving to be had), so the only
// deferred work is Finalize's type segmentation. The batch is checked
// whole before any edge is added.
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
		id := storage.EID(s.numEdges)
		s.numEdges++
		s.vertices[be.Src].out = append(s.vertices[be.Src].out, halfEdge{etype: t, other: be.Dst, id: id})
		s.vertices[be.Dst].in = append(s.vertices[be.Dst].in, halfEdge{etype: t, other: be.Src, id: id})
	}
	return nil
}

// Finalize ends the load: it sorts every vertex's out/in lists by (edge
// type, edge id), so typed traversals and degree queries binary-search
// straight to their type's segment instead of filtering the whole list,
// and builds the (label, key, value) postings index. A second call does
// nothing.
func (s *Store) Finalize() error {
	if s.finalized {
		return nil
	}
	for i := range s.vertices {
		sortSegmented(s.vertices[i].out)
		sortSegmented(s.vertices[i].in)
	}
	s.index = buildPropIndex(s)
	s.finalized = true
	return nil
}

func sortSegmented(list []halfEdge) {
	sort.Slice(list, func(i, j int) bool {
		if list[i].etype != list[j].etype {
			return list[i].etype < list[j].etype
		}
		return list[i].id < list[j].id
	})
}

// Close is a no-op for the in-memory store.
func (s *Store) Close() error { return nil }

func (s *Store) check(v storage.VID) error {
	if v < 0 || int(v) >= len(s.vertices) {
		return fmt.Errorf("memstore: vertex %d out of range", v)
	}
	return nil
}

// NumVertices returns the number of vertices.
func (s *Store) NumVertices() int { return len(s.vertices) }

// NumEdges returns the number of edges.
func (s *Store) NumEdges() int { return s.numEdges }

// Labels returns the labels of the vertex in lexicographic order (the
// per-vertex label list is maintained in name order at insert time).
func (s *Store) Labels(v storage.VID) []string {
	if s.check(v) != nil {
		return nil
	}
	out := make([]string, 0, len(s.vertices[v].labels))
	for _, l := range s.vertices[v].labels {
		out = append(out, s.labels[l])
	}
	return out
}

// PropKeys returns the property keys present on the vertex in
// lexicographic order (the per-vertex property list is maintained in key
// order at insert time).
func (s *Store) PropKeys(v storage.VID) []string {
	if s.check(v) != nil {
		return nil
	}
	out := make([]string, 0, len(s.vertices[v].props))
	for _, p := range s.vertices[v].props {
		out = append(out, s.keys[p.key])
	}
	return out
}

func (s *Store) forEachID(v storage.VID, etype storage.SymbolID, out bool, fn func(storage.EID, storage.VID) bool) {
	if s.check(v) != nil || etype == storage.NoSymbol {
		return
	}
	list := s.vertices[v].in
	if out {
		list = s.vertices[v].out
	}
	if etype == storage.AnySymbol {
		for _, e := range list {
			if !fn(e.id, e.other) {
				return
			}
		}
		return
	}
	// Type-segmented list: seek to the segment, stop at its end — no
	// per-edge type filtering.
	want := int32(etype)
	for i := segmentStart(list, want); i < len(list) && list[i].etype == want; i++ {
		if !fn(list[i].id, list[i].other) {
			return
		}
	}
}

// segmentStart returns the index of the first edge with type >= want in a
// type-sorted list.
func segmentStart(list []halfEdge, want int32) int {
	return sort.Search(len(list), func(i int) bool { return list[i].etype >= want })
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

// CountLabelID returns the number of vertices carrying the label.
func (s *Store) CountLabelID(label storage.SymbolID) int {
	if label == storage.AnySymbol {
		return len(s.vertices)
	}
	if label < 0 {
		return 0
	}
	return len(s.byLabel[int32(label)])
}

// ForEachVertexID calls fn for every vertex carrying the label.
func (s *Store) ForEachVertexID(label storage.SymbolID, fn func(storage.VID) bool) {
	if label == storage.AnySymbol {
		for i := range s.vertices {
			if !fn(storage.VID(i)) {
				return
			}
		}
		return
	}
	if label < 0 {
		return
	}
	for _, v := range s.byLabel[int32(label)] {
		if !fn(v) {
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
		ranges := storage.SplitRange(len(s.vertices), parts)
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
	if label < 0 {
		return nil
	}
	postings := s.byLabel[int32(label)]
	ranges := storage.SplitRange(len(postings), parts)
	scans := make([]storage.VertexScan, len(ranges))
	for i, r := range ranges {
		part := postings[r[0]:r[1]]
		scans[i] = func(fn func(storage.VID) bool) {
			for _, v := range part {
				if !fn(v) {
					return
				}
			}
		}
	}
	return scans
}

// HasLabelID reports whether the vertex carries the label.
func (s *Store) HasLabelID(v storage.VID, label storage.SymbolID) bool {
	if label < 0 || s.check(v) != nil {
		return false
	}
	want := int32(label)
	for _, l := range s.vertices[v].labels {
		if l == want {
			return true
		}
	}
	return false
}

// PropID returns the value of a vertex property.
func (s *Store) PropID(v storage.VID, key storage.SymbolID) (graph.Value, bool) {
	if key < 0 || s.check(v) != nil {
		return graph.Null, false
	}
	want := int32(key)
	for i := range s.vertices[v].props {
		if s.vertices[v].props[i].key == want {
			return s.vertices[v].props[i].val, true
		}
	}
	return graph.Null, false
}

// ForEachVertexByPropID calls fn for every vertex carrying the label and
// the property value: the index's postings, or a filtered label scan for
// the AnySymbol label, which has no postings.
func (s *Store) ForEachVertexByPropID(label, key storage.SymbolID, val graph.Value, fn func(storage.VID) bool) {
	if label < 0 || key < 0 {
		storage.ScanByPropID(s, label, key, val, fn)
		return
	}
	for _, v := range s.index.lookup(s, int32(label), int32(key), val) {
		if !fn(v) {
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

// DegreeID returns the number of out- or in-edges of the given type. The
// untyped degree is the adjacency-list length, no iteration needed.
func (s *Store) DegreeID(v storage.VID, etype storage.SymbolID, out bool) int {
	if s.check(v) != nil || etype == storage.NoSymbol {
		return 0
	}
	list := s.vertices[v].in
	if out {
		list = s.vertices[v].out
	}
	if etype == storage.AnySymbol {
		return len(list)
	}
	want := int32(etype)
	lo := segmentStart(list, want)
	hi := lo + sort.Search(len(list)-lo, func(i int) bool { return list[lo+i].etype > want })
	return hi - lo
}

// LabelCounts returns the exact number of vertices per label
// (storage.Statistics).
func (s *Store) LabelCounts() map[string]int {
	out := make(map[string]int, len(s.labels))
	for id, name := range s.labels {
		out[name] = len(s.byLabel[int32(id)])
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
	for i := range s.vertices {
		for _, e := range s.vertices[i].out {
			out[s.types[e.etype]]++
		}
	}
	return out
}

// MayHaveProp reports whether any vertex with the label carries val for
// the key (storage.Statistics). Memstore answers exactly, with one index
// probe.
func (s *Store) MayHaveProp(label, key string, val graph.Value) bool {
	lid, ok := s.labelIDs[label]
	if !ok {
		return false
	}
	kid, ok := s.keyIDs[key]
	if !ok {
		return false
	}
	return len(s.index.lookup(s, lid, kid, val)) > 0
}
