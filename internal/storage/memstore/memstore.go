// Package memstore implements storage.Graph as an in-memory layout shaped
// by the graph's schema. It plays the role of the paper's less I/O-bound
// backend (JanusGraph with a warm cache): no read touches a disk, so the
// benefit of the optimized schema comes purely from doing fewer
// traversals.
//
// A finalized store is a handful of shared arrays. Its vertices fall into
// node types, one per (label set, key set) the data carries: PG-Schema's
// node type, derived from the load. Each type keeps one dense column per
// key, indexed by the vertex's ordinal within the type, and the columns
// of every type lie back to back in one cell array. A cell is 16 bytes
// and holds no pointer: a kind, plus an INT's, DOUBLE's or BOOLEAN's bits
// or a STRING's or LIST's length and offset. String bytes live in one
// byte arena, each distinct string once (a generated knowledge graph
// repeats its few names across many vertices and every replica list).
// List elements live in one shared graph.Value array, whose
// string elements point into the arena; it is the only array of the
// store that holds pointers, so the collector scans no property cell.
//
// One record per vertex, plus a sentinel, holds the vertex's node type,
// its ordinal and its offsets into the out- and in-edge arrays (each
// vertex's run sorted by edge type, then edge ID). An edge entry is 12
// bytes: its type, its other end and its ID, both 32-bit. A type × key
// table gives each type's column of each key, and a type × label bitmap
// answers HasLabelID, so a property read or a label test is one record
// load and one table load. Each label's VID postings, one flat array,
// serve the label scans. A store past 2^32-1 vertices, edges, postings,
// cells or list elements, past 2^16 node types or with an arena of 2^32
// bytes or more does not fit the layout, and Finalize refuses it.
package memstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/propindex"
)

// vertex is one vertex's record: its node type, its ordinal within the
// type, and the starts of its runs in out and in; the next vertex's
// record ends the runs.
type vertex struct {
	out, in uint32
	ord     uint32
	typ     uint16
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

// cell is one stored property value. The zero cell is an absent key,
// which set tells apart from a stored NULL.
type cell struct {
	bits uint64     // an INT's, DOUBLE's or BOOLEAN's bits; a STRING's or LIST's length
	off  uint32     // where a STRING's bytes start in arena, or a LIST's elements in elems
	kind graph.Kind // the value's kind
	set  bool       // false for an absent key
}

// nodeType is one node type while the load runs: its label and key IDs,
// each ascending, and its members' cells, one row of len(keys) cells per
// member in ordinal order. Finalize moves the rows into the columns.
type nodeType struct {
	labels, keys []int32
	rows         []cell
	n            uint32
}

// Store is an in-memory property graph. The zero value is not usable; call
// New.
//
// A store is written once, through storage.Builder's batches, by a single
// writer. A vertex batch files each vertex under its node type, writing
// its cells into the type's rows and its string bytes into the arena, so
// the store keeps none of the batch's values. Edges wait for Finalize,
// which places them by a counting sort, lays each type's rows out as
// columns and builds the value index. The store takes no writes after it
// (storage.ErrFinalized). Once finalized, every read method touches only
// data that no longer changes, so the store serves any number of
// concurrent readers without locking.
type Store struct {
	storage.ByName

	// verts holds NumVertices()+1 records: vertex v's out- and in-edges
	// are out[verts[v].out:verts[v+1].out] and likewise in in.
	verts   []vertex
	out, in []edge

	// cols holds one entry per (node type, key), a row of len(keyNames)
	// per type: the index in cells where the type's column of the key
	// starts, plus one, or 0 where the type lacks the key. typeLabels
	// holds one row of labelWords words per type, the bitmap of its
	// labels.
	cols       []uint32
	typeLabels []uint64
	labelWords int
	cells      []cell
	arena      []byte
	elems      []graph.Value

	// postings holds every label's VIDs, each label's in ascending order:
	// label l's are postings[labelStart[l]:labelStart[l+1]].
	postings   []uint32
	labelStart []uint32

	// The load's state, released by Finalize: each label's postings, the
	// node types with their rows and the signature that finds them, each
	// distinct string's offset in the arena, the cells of list elements
	// and the edges.
	byLabel   [][]uint32
	ntypes    []*nodeType
	typeOf    map[string]int
	strOff    map[string]uint32
	listCells []cell
	pending   []pendingEdge

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
		verts:    make([]vertex, 1),
		typeOf:   map[string]int{},
		strOff:   map[string]uint32{},
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

// keyValue is one property of a vertex being filed.
type keyValue struct {
	key int32
	val graph.Value
}

// AddVertexBatch writes the batch's vertices with consecutive IDs: each
// vertex's labels go into their postings, and its properties, applied in
// order, become a row of its node type.
func (s *Store) AddVertexBatch(batch []storage.BulkVertex) (storage.VID, error) {
	if s.finalized {
		return 0, fmt.Errorf("memstore: %w", storage.ErrFinalized)
	}
	first := storage.VID(s.NumVertices())
	var labels []int32
	var props []keyValue
	var sig []byte
	for i, bv := range batch {
		v := uint32(first) + uint32(i)
		labels = labels[:0]
		for _, l := range bv.Labels {
			if id := intern(l, s.labelIDs, &s.labels); !slices.Contains(labels, id) {
				labels = append(labels, id)
			}
		}
		slices.Sort(labels)
		for _, id := range labels {
			if int(id) == len(s.byLabel) {
				s.byLabel = append(s.byLabel, nil)
			}
			s.byLabel[id] = append(s.byLabel[id], v)
		}
		props = props[:0]
		for _, p := range bv.Props {
			id := intern(p.Key, s.keyIDs, &s.keyNames)
			if j := slices.IndexFunc(props, func(kv keyValue) bool { return kv.key == id }); j >= 0 {
				props[j].val = p.Value
			} else {
				props = append(props, keyValue{id, p.Value})
			}
		}
		slices.SortFunc(props, func(a, b keyValue) int { return int(a.key - b.key) })

		// The node type's signature: the label count, the label IDs, then
		// the key IDs.
		sig = binary.AppendUvarint(sig[:0], uint64(len(labels)))
		for _, id := range labels {
			sig = binary.AppendUvarint(sig, uint64(id))
		}
		for _, p := range props {
			sig = binary.AppendUvarint(sig, uint64(p.key))
		}
		id, ok := s.typeOf[string(sig)]
		if !ok {
			id = len(s.ntypes)
			t := &nodeType{labels: slices.Clone(labels), keys: make([]int32, len(props))}
			for j, p := range props {
				t.keys[j] = p.key
			}
			s.typeOf[string(sig)] = id
			s.ntypes = append(s.ntypes, t)
		}
		t := s.ntypes[id]
		for _, p := range props {
			t.rows = append(t.rows, s.cellOf(p.val))
		}
		// A type ID past 16 bits wraps here; Finalize refuses the store.
		s.verts[v] = vertex{typ: uint16(id), ord: t.n}
		s.verts = append(s.verts, vertex{})
		t.n++
	}
	return first, nil
}

// cellOf returns val's cell, copying a string's bytes into the arena,
// once per distinct string, and a list's elements, as cells, into
// listCells. An offset past 32 bits wraps; Finalize refuses such a store.
func (s *Store) cellOf(val graph.Value) cell {
	c := cell{kind: val.Kind(), set: true}
	switch c.kind {
	case graph.KindString:
		str := val.Str()
		off, ok := s.strOff[str]
		if !ok && str != "" {
			off = uint32(len(s.arena))
			s.arena = append(s.arena, str...)
			s.strOff[str] = off
		}
		c.off, c.bits = off, uint64(len(str))
	case graph.KindList:
		elems := val.List()
		at := len(s.listCells)
		c.off, c.bits = uint32(at), uint64(len(elems))
		s.listCells = append(s.listCells, make([]cell, len(elems))...)
		for i, e := range elems {
			ec := s.cellOf(e) // a nested list appends to listCells
			s.listCells[at+i] = ec
		}
	case graph.KindInt:
		c.bits = uint64(val.Int())
	case graph.KindFloat:
		c.bits = graph.FloatBits(val.Float())
	case graph.KindBool:
		if val.Bool() {
			c.bits = 1
		}
	}
	return c
}

// value returns the Value a cell holds, with no allocation: a STRING
// points into the arena and a LIST into elems. ok is false for an absent
// key.
func (s *Store) value(c cell) (v graph.Value, ok bool) {
	switch c.kind {
	case graph.KindString:
		if c.bits == 0 {
			return graph.S(""), true
		}
		return graph.S(unsafe.String(&s.arena[c.off], int(c.bits))), true
	case graph.KindInt:
		return graph.I(int64(c.bits)), true
	case graph.KindFloat:
		return graph.FBits(c.bits), true
	case graph.KindBool:
		return graph.B(c.bits != 0), true
	case graph.KindList:
		return graph.L(s.elems[c.off : uint64(c.off)+c.bits]...), true
	}
	return graph.Null, c.set
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

// layoutSize counts what a store puts into each array whose indexes or
// offsets the layout keeps in fixed-width fields.
type layoutSize struct {
	vertices, edges, postings, cells, elems, arena, types int
}

// checkSize reports a store that does not fit the layout: its VIDs, edge
// IDs, posting, cell and element offsets and arena offsets are 32-bit,
// and its node type IDs 16-bit.
func checkSize(n layoutSize) error {
	for _, c := range []struct {
		what  string
		n     int
		limit uint64
	}{
		{"vertices", n.vertices, math.MaxUint32},
		{"edges", n.edges, math.MaxUint32},
		{"label postings", n.postings, math.MaxUint32},
		{"property cells", n.cells, math.MaxUint32},
		{"list elements", n.elems, math.MaxUint32},
		{"arena bytes", n.arena, math.MaxUint32},
		{"node types", n.types, math.MaxUint16 + 1},
	} {
		if uint64(c.n) > c.limit {
			return fmt.Errorf("memstore: %d %s exceed the layout's limit of %d", c.n, c.what, c.limit)
		}
	}
	return nil
}

// Finalize ends the load. It places the edges into the out- and in-edge
// arrays, each vertex's run sorted by (edge type, edge ID), lays each
// node type's rows out as columns, materializes the list elements over
// the arena, builds the type tables and the label postings, and builds
// the (label, key, value) value index. A second call does nothing.
func (s *Store) Finalize() error {
	if s.finalized {
		return nil
	}
	cells, postings := 0, 0
	for _, t := range s.ntypes {
		cells += len(t.rows)
	}
	for _, p := range s.byLabel {
		postings += len(p)
	}
	if err := checkSize(layoutSize{
		vertices: s.NumVertices(), edges: len(s.pending), postings: postings, cells: cells,
		elems: len(s.listCells), arena: len(s.arena), types: len(s.ntypes),
	}); err != nil {
		return err
	}
	// Two stable counting sorts: by type, then by vertex, leave each
	// vertex's edges in (type, ID) order.
	byType, _ := groupBy(len(s.pending), len(s.types), func(k int) int { return int(s.pending[k].etype) })
	s.out = s.place(byType, true)
	s.in = s.place(byType, false)
	s.pending = nil

	s.layOut(cells)
	s.elems = make([]graph.Value, len(s.listCells))
	for i, c := range s.listCells {
		s.elems[i], _ = s.value(c)
	}
	s.listCells = nil

	s.labelStart = make([]uint32, len(s.byLabel)+1)
	for l, p := range s.byLabel {
		s.labelStart[l+1] = s.labelStart[l] + uint32(len(p))
	}
	s.postings = make([]uint32, 0, postings)
	for _, p := range s.byLabel {
		s.postings = append(s.postings, p...)
	}
	s.byLabel = nil

	var b propindex.Builder
	for label := range s.labels {
		for _, v := range s.postings[s.labelStart[label]:s.labelStart[label+1]] {
			r := s.verts[v]
			for _, key := range s.ntypes[r.typ].keys {
				val, _ := s.PropID(storage.VID(v), storage.SymbolID(key))
				b.Add(int32(label), key, storage.VID(v), val)
			}
		}
	}
	s.index = b.Finish()
	s.ntypes, s.typeOf, s.strOff = nil, nil, nil
	s.finalized = true
	return nil
}

// layOut moves each node type's rows into its columns of one cell array
// and builds the type × key and type × label tables. A type's rows are
// released as soon as its columns are written.
func (s *Store) layOut(cells int) {
	nk := len(s.keyNames)
	s.labelWords = (len(s.labels) + 63) / 64
	s.cols = make([]uint32, len(s.ntypes)*nk)
	s.typeLabels = make([]uint64, len(s.ntypes)*s.labelWords)
	s.cells = make([]cell, cells)
	base := 0
	for id, t := range s.ntypes {
		for _, l := range t.labels {
			s.typeLabels[id*s.labelWords+int(l)/64] |= 1 << (l % 64)
		}
		width := len(t.keys)
		for j, key := range t.keys {
			s.cols[id*nk+int(key)] = uint32(base + 1)
			col := s.cells[base : base+int(t.n)]
			for ord := range col {
				col[ord] = t.rows[ord*width+j]
			}
			base += int(t.n)
		}
		t.rows = nil
	}
}

// place lays the edges out grouped by source (out) or destination
// vertex, in the order of byType within a vertex, and records each
// vertex's start in its record.
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
			s.verts[v].out = at
		} else {
			s.verts[v].in = at
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
func (s *Store) has(v storage.VID) bool { return uint64(v) < uint64(len(s.verts)-1) }

// NumVertices returns the number of vertices.
func (s *Store) NumVertices() int { return len(s.verts) - 1 }

// NumEdges returns the number of edges.
func (s *Store) NumEdges() int { return len(s.out) }

// Labels returns the labels of the vertex in lexicographic order, read
// off its node type's label bitmap.
func (s *Store) Labels(v storage.VID) []string {
	if !s.has(v) {
		return nil
	}
	var out []string
	for id := range s.labels {
		if s.HasLabelID(v, storage.SymbolID(id)) {
			out = append(out, s.labels[id])
		}
	}
	slices.Sort(out)
	return out
}

// PropKeys returns the property keys present on the vertex in
// lexicographic order: the keys its node type has a column of.
func (s *Store) PropKeys(v storage.VID) []string {
	if !s.has(v) {
		return nil
	}
	nk := len(s.keyNames)
	row := s.cols[int(s.verts[v].typ)*nk : (int(s.verts[v].typ)+1)*nk]
	var out []string
	for key, col := range row {
		if col != 0 {
			out = append(out, s.keyNames[key])
		}
	}
	slices.Sort(out)
	return out
}

// adjacency returns v's out- or in-edges, sorted by (type, ID); nil for
// an out-of-range v.
func (s *Store) adjacency(v storage.VID, out bool) []edge {
	if !s.has(v) {
		return nil
	}
	if out {
		return s.out[s.verts[v].out:s.verts[v+1].out]
	}
	return s.in[s.verts[v].in:s.verts[v+1].in]
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

// labelPostings returns the label's VIDs; nil for NoSymbol, AnySymbol
// and an unknown ID.
func (s *Store) labelPostings(label storage.SymbolID) []uint32 {
	if uint64(label) >= uint64(len(s.labels)) {
		return nil
	}
	return s.postings[s.labelStart[label]:s.labelStart[label+1]]
}

// CountLabelID returns the number of vertices carrying the label.
func (s *Store) CountLabelID(label storage.SymbolID) int {
	if label == storage.AnySymbol {
		return s.NumVertices()
	}
	return len(s.labelPostings(label))
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
	for _, v := range s.labelPostings(label) {
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
	postings := s.labelPostings(label)
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

// HasLabelID reports whether the vertex carries the label: one bit of
// its node type's label bitmap. An out-of-range VID (a negative one
// included) reads as absent.
func (s *Store) HasLabelID(v storage.VID, label storage.SymbolID) bool {
	if uint64(label) >= uint64(len(s.labels)) || !s.has(v) {
		return false
	}
	w := s.typeLabels[int(s.verts[v].typ)*s.labelWords+int(label)/64]
	return w&(1<<(uint64(label)%64)) != 0
}

// PropID returns the value of a vertex property: the vertex's node type
// and ordinal, the type's column of the key, and one cell.
func (s *Store) PropID(v storage.VID, key storage.SymbolID) (graph.Value, bool) {
	nk := len(s.keyNames)
	if uint64(key) >= uint64(nk) || !s.has(v) {
		return graph.Null, false
	}
	r := s.verts[v]
	col := s.cols[int(r.typ)*nk+int(key)]
	if col == 0 {
		return graph.Null, false
	}
	return s.value(s.cells[col-1+r.ord])
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
		out[name] = int(s.labelStart[id+1] - s.labelStart[id])
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
