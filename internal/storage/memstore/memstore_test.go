package memstore

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

func TestConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) storage.Builder { return New() })
}

func TestRandomGraphFingerprintStable(t *testing.T) {
	a, b := New(), New()
	if _, err := storetest.BuildRandom(a, 7, 50, 120); err != nil {
		t.Fatal(err)
	}
	if _, err := storetest.BuildRandom(b, 7, 50, 120); err != nil {
		t.Fatal(err)
	}
	if storetest.Fingerprint(a) != storetest.Fingerprint(b) {
		t.Error("same seed produced different graphs")
	}
}

// modelEdge is one edge end as the Batch model sees it.
type modelEdge struct {
	etype string
	id    storage.EID
	other storage.VID
}

// model is what a store loaded from b must read back, computed from b
// alone: each vertex's label set, its last value per key, and its out-
// and in-edges with their batch positions as IDs.
type model struct {
	labels   []map[string]bool
	props    []map[string]graph.Value
	out, in  [][]modelEdge
	allLabel []string
	allKeys  []string
	allTypes []string
}

func newModel(b *storetest.Batch) *model {
	m := &model{}
	addTo := func(all *[]string) func(string) {
		seen := map[string]bool{}
		return func(s string) {
			if !seen[s] {
				seen[s] = true
				*all = append(*all, s)
			}
		}
	}
	addLabel, addKey, addType := addTo(&m.allLabel), addTo(&m.allKeys), addTo(&m.allTypes)
	for _, bv := range b.Vertices {
		ls, ps := map[string]bool{}, map[string]graph.Value{}
		for _, l := range bv.Labels {
			ls[l] = true
			addLabel(l)
		}
		for _, p := range bv.Props {
			ps[p.Key] = p.Value
			addKey(p.Key)
		}
		m.labels, m.props = append(m.labels, ls), append(m.props, ps)
	}
	m.out = make([][]modelEdge, len(b.Vertices))
	m.in = make([][]modelEdge, len(b.Vertices))
	for i, e := range b.Edges {
		id := storage.EID(i)
		m.out[e.Src] = append(m.out[e.Src], modelEdge{e.Type, id, e.Dst})
		m.in[e.Dst] = append(m.in[e.Dst], modelEdge{e.Type, id, e.Src})
		addType(e.Type)
	}
	return m
}

// sameValue reports whether a and b are Equal and of one kind, element
// by element for a list: a layout that turned INT 1 into DOUBLE 1.0 reads
// back Equal but not the same.
func sameValue(a, b graph.Value) bool {
	if a.Kind() != b.Kind() || !a.Equal(b) {
		return false
	}
	al, bl := a.List(), b.List()
	for i := range al {
		if !sameValue(al[i], bl[i]) {
			return false
		}
	}
	return true
}

// edgesOf returns the (edge ID, other end) pairs of the model's edges of
// v of the type ("" for any), in the store's order: by type ID, then by
// edge ID.
func (m *model) edgesOf(s *Store, v storage.VID, etype string, out bool) [][2]int64 {
	list := m.in[v]
	if out {
		list = m.out[v]
	}
	list = slices.Clone(list)
	slices.SortStableFunc(list, func(a, b modelEdge) int {
		if d := int(s.TypeID(a.etype)) - int(s.TypeID(b.etype)); d != 0 {
			return d
		}
		return int(a.id - b.id)
	})
	var pairs [][2]int64
	for _, e := range list {
		if etype == "" || e.etype == etype {
			pairs = append(pairs, [2]int64{int64(e.id), int64(e.other)})
		}
	}
	return pairs
}

// check reads every vertex of s, and VIDs around and past it, through
// the ID methods and compares each answer with the model.
func (m *model) check(t *testing.T, s *Store) {
	t.Helper()
	n := len(m.labels)
	if s.NumVertices() != n {
		t.Fatalf("NumVertices = %d, want %d", s.NumVertices(), n)
	}
	labelIDs := []storage.SymbolID{storage.NoSymbol, storage.AnySymbol, storage.SymbolID(len(m.allLabel)), 1 << 20}
	for _, l := range m.allLabel {
		labelIDs = append(labelIDs, s.LabelID(l))
	}
	for v := range n {
		id := storage.VID(v)
		var wantLabels []string
		for l := range m.labels[v] {
			wantLabels = append(wantLabels, l)
		}
		slices.Sort(wantLabels)
		if got := s.Labels(id); !reflect.DeepEqual(got, wantLabels) && len(got)+len(wantLabels) > 0 {
			t.Errorf("Labels(%d) = %v, want %v", v, got, wantLabels)
		}
		for _, l := range labelIDs {
			want := l >= 0 && int(l) < len(m.allLabel) && m.labels[v][m.allLabel[l]]
			if got := s.HasLabelID(id, l); got != want {
				t.Errorf("HasLabelID(%d, %d) = %v, want %v", v, l, got, want)
			}
		}
		var wantKeys []string
		for k := range m.props[v] {
			wantKeys = append(wantKeys, k)
		}
		slices.Sort(wantKeys)
		if got := s.PropKeys(id); !reflect.DeepEqual(got, wantKeys) && len(got)+len(wantKeys) > 0 {
			t.Errorf("PropKeys(%d) = %v, want %v", v, got, wantKeys)
		}
		for _, k := range m.allKeys {
			want, wantOK := m.props[v][k]
			if got, ok := s.PropID(id, s.KeyID(k)); ok != wantOK || wantOK && !sameValue(got, want) {
				t.Errorf("PropID(%d, %s) = %v, %v; want %v, %v", v, k, got, ok, want, wantOK)
			}
		}
		for _, k := range []storage.SymbolID{storage.NoSymbol, storage.AnySymbol} {
			if _, ok := s.PropID(id, k); ok {
				t.Errorf("PropID(%d, %d) reported present", v, k)
			}
		}
		for _, out := range []bool{true, false} {
			for _, et := range append([]string{""}, m.allTypes...) {
				want := m.edgesOf(s, id, et, out)
				var got [][2]int64
				s.forEachID(id, s.TypeID(et), out, func(e storage.EID, other storage.VID) bool {
					got = append(got, [2]int64{int64(e), int64(other)})
					return true
				})
				if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
					t.Errorf("edges of %d, type %q, out=%v = %v, want %v", v, et, out, got, want)
				}
				if d := s.DegreeID(id, s.TypeID(et), out); d != len(want) {
					t.Errorf("DegreeID(%d, %q, out=%v) = %d, want %d", v, et, out, d, len(want))
				}
			}
			if d := s.DegreeID(id, storage.NoSymbol, out); d != 0 {
				t.Errorf("DegreeID(%d, NoSymbol) = %d", v, d)
			}
		}
	}
	for _, l := range m.allLabel {
		var want []storage.VID
		for v := range n {
			if m.labels[v][l] {
				want = append(want, storage.VID(v))
			}
		}
		var got []storage.VID
		s.ForEachVertexID(s.LabelID(l), func(v storage.VID) bool {
			got = append(got, v)
			return true
		})
		if !reflect.DeepEqual(got, want) || s.CountLabelID(s.LabelID(l)) != len(want) {
			t.Errorf("label %s: scan %v (count %d), want %v", l, got, s.CountLabelID(s.LabelID(l)), want)
		}
	}
	for _, v := range []storage.VID{-1, -64, storage.VID(n), storage.VID(n + 1), storage.VID(n + 64), 1 << 40} {
		for _, l := range labelIDs {
			if s.HasLabelID(v, l) {
				t.Errorf("HasLabelID(%d, %d) true for an out-of-range vertex", v, l)
			}
		}
		if len(s.Labels(v)) != 0 || len(s.PropKeys(v)) != 0 || s.DegreeID(v, storage.AnySymbol, true) != 0 || s.DegreeID(v, storage.AnySymbol, false) != 0 {
			t.Errorf("out-of-range vertex %d reads as present", v)
		}
		for _, k := range m.allKeys {
			if _, ok := s.PropID(v, s.KeyID(k)); ok {
				t.Errorf("PropID(%d, %s) present for an out-of-range vertex", v, k)
			}
		}
		s.ForEachOutID(v, storage.AnySymbol, func(storage.EID, storage.VID) bool {
			t.Errorf("out-of-range vertex %d has an out-edge", v)
			return false
		})
	}
}

// TestLayoutMatchesModel loads a graph that puts labels on VIDs 0, 63,
// 64, 65 and the last, leaves vertices without labels, properties or
// edges, interns a label first after vertex 64, gives vertices of one
// label set many key sets and mixes edge types out of ID order, then
// checks every read against the Batch it was loaded from.
func TestLayoutMatchesModel(t *testing.T) {
	const n = 130
	var b storetest.Batch
	for v := range n {
		var labels []string
		if v%3 == 0 {
			labels = append(labels, "Tri")
		}
		if v%5 == 0 {
			labels = append(labels, "Five", "Tri")
		}
		b.Vertex(labels...)
		if v%4 != 1 {
			b.Prop(storage.VID(v), "z", graph.I(int64(v)))
			b.Prop(storage.VID(v), fmt.Sprintf("k%d", v%6), graph.S(strconv.Itoa(v)))
		}
		if v%7 == 0 {
			b.Prop(storage.VID(v), "a", graph.F(0.5))
			b.Prop(storage.VID(v), "z", graph.B(true))
		}
	}
	for _, v := range []storage.VID{0, 63, 64, 65, n - 1} {
		b.Label(v, "Edge")
	}
	for _, v := range []storage.VID{100, 127, 129} {
		b.Label(v, "Late")
	}
	types := []string{"t2", "t0", "t1"}
	for i := range 3 * n {
		src := storage.VID(i * 7 % n)
		if src%4 == 1 {
			continue // vertices that keep no edges
		}
		dst := storage.VID((i*11 + 3) % n)
		if dst%4 == 1 {
			dst = src
		}
		b.Edge(src, dst, types[i%len(types)])
	}
	s := New()
	if err := b.Load(s); err != nil {
		t.Fatal(err)
	}
	if s.NumEdges() != len(b.Edges) {
		t.Fatalf("NumEdges = %d, want %d", s.NumEdges(), len(b.Edges))
	}
	newModel(&b).check(t, s)
}

// TestEmptyVertices: a store of vertices that carry nothing reads them
// all as present and bare.
func TestEmptyVertices(t *testing.T) {
	var b storetest.Batch
	for range 65 {
		b.Vertex()
	}
	s := New()
	if err := b.Load(s); err != nil {
		t.Fatal(err)
	}
	newModel(&b).check(t, s)
	if s.CountLabelID(storage.AnySymbol) != 65 {
		t.Errorf("CountLabelID(AnySymbol) = %d, want 65", s.CountLabelID(storage.AnySymbol))
	}
}

// TestNodeTypes: vertices fall into one node type per (label set, key
// set). Two types share a label set but not a key set; a stored NULL
// sits next to an absent key; an empty string and an empty list read
// back with no pointer behind them; and a vertex with no labels has its
// own type. Every read matches the Batch.
func TestNodeTypes(t *testing.T) {
	var b storetest.Batch
	full := b.Vertex("Drug")
	b.Prop(full, "name", graph.S("aspirin"))
	b.Prop(full, "dose", graph.F(0.5))
	b.Prop(full, "tags", graph.L(graph.S("a"), graph.I(1), graph.L(graph.B(true))))
	named := b.Vertex("Drug")
	b.Prop(named, "name", graph.S("ibuprofen"))
	b.Prop(named, "dose", graph.Null)
	empty := b.Vertex("Drug")
	b.Prop(empty, "name", graph.S(""))
	b.Prop(empty, "tags", graph.L())
	bare := b.Vertex()
	b.Prop(bare, "name", graph.S("unlabelled"))
	again := b.Vertex("Drug", "Drug")
	b.Prop(again, "dose", graph.F(2))
	b.Prop(again, "name", graph.S("x"))
	b.Prop(again, "name", graph.S("paracetamol"))
	s := New()
	if err := b.Load(s); err != nil {
		t.Fatal(err)
	}
	newModel(&b).check(t, s)

	if s.verts[named].typ != s.verts[again].typ || s.verts[again].ord != s.verts[named].ord+1 {
		t.Errorf("vertices %d and %d carry one label set and one key set but are not consecutive in one type", named, again)
	}
	for _, pair := range [][2]storage.VID{{full, named}, {full, empty}, {named, empty}, {named, bare}} {
		if s.verts[pair[0]].typ == s.verts[pair[1]].typ {
			t.Errorf("vertices %d and %d share a node type", pair[0], pair[1])
		}
	}
	if types := len(s.cols) / len(s.keyNames); types != 4 {
		t.Errorf("%d node types, want 4", types)
	}
	if v, ok := s.Prop(named, "dose"); !ok || !v.IsNull() {
		t.Errorf("stored NULL reads as %v, %v; want null, true", v, ok)
	}
	if v, ok := s.Prop(named, "tags"); ok {
		t.Errorf("absent key reads as %v, present", v)
	}
	str, _ := s.Prop(empty, "name")
	list, _ := s.Prop(empty, "tags")
	if str.Kind() != graph.KindString || unsafe.StringData(str.Str()) != nil {
		t.Errorf("empty string reads as %v with a pointer", str)
	}
	if list.Kind() != graph.KindList || list.List() != nil {
		t.Errorf("empty list reads as %v with a pointer", list)
	}
}

// TestListStringsOutliveLoad: the store copies every string it is given,
// list elements included. The load's strings sit over one byte buffer
// that is overwritten once the load returns, and the inputs are dropped
// and collected before the reads.
func TestListStringsOutliveLoad(t *testing.T) {
	batch := func() (*storetest.Batch, []byte) {
		buf := []byte("alphabetagammadelta")
		str := func(lo, hi int) graph.Value { return graph.S(unsafe.String(&buf[lo], hi-lo)) }
		var b storetest.Batch
		for i := range 40 {
			v := b.Vertex("L")
			b.Prop(v, "names", graph.L(str(0, 5), str(5, 9), graph.L(str(9, 14)), graph.S("")))
			if i%2 == 0 {
				b.Prop(v, "first", str(14, 19))
			}
		}
		return &b, buf
	}
	want, _ := batch()
	m := newModel(want)
	s := New()
	func() {
		b, buf := batch()
		if err := b.Load(s); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = '#'
		}
	}()
	runtime.GC()
	runtime.GC()
	m.check(t, s)
}

// TestCellLayout: a cell is 16 bytes with no pointer, and once finalized
// the store's only array whose elements hold pointers, past the name
// tables, is the list-element array: every array and map that held the
// load's pointers is released.
func TestCellLayout(t *testing.T) {
	if n := unsafe.Sizeof(cell{}); n != 16 {
		t.Errorf("unsafe.Sizeof(cell{}) = %d, want 16", n)
	}
	if hasPointers(reflect.TypeFor[cell]()) {
		t.Error("cell holds a pointer")
	}
	s := New()
	if _, err := storetest.BuildRandom(s, 11, 200, 400); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{"labels": true, "labelIDs": true, "types": true, "typeIDs": true, "keyNames": true, "keyIDs": true}
	rv := reflect.ValueOf(s).Elem()
	for i := range rv.NumField() {
		f := rv.Type().Field(i)
		if names[f.Name] {
			continue
		}
		switch {
		case f.Type.Kind() == reflect.Map && !rv.Field(i).IsNil():
			t.Errorf("finalized store keeps the map %s", f.Name)
		case f.Type.Kind() != reflect.Slice:
		case f.Name == "elems":
			if f.Type.Elem() != reflect.TypeFor[graph.Value]() {
				t.Errorf("elems is %v, want []graph.Value", f.Type)
			}
		case hasPointers(f.Type.Elem()) && !rv.Field(i).IsNil():
			t.Errorf("finalized store keeps %s, a %v: its elements hold pointers", f.Name, f.Type)
		}
	}
}

// hasPointers reports whether a value of type t holds a pointer the
// collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Interface, reflect.Func, reflect.Chan:
		return true
	}
	return false
}

// TestCheckSize: the layout takes up to 2^32-1 vertices, edges,
// postings, cells, list elements and arena bytes and up to 2^16 node
// types, and no more.
func TestCheckSize(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("the limit is past a 32-bit int")
	}
	max, past := math.MaxUint32, math.MaxUint32+1
	types, pastTypes := math.MaxUint16+1, math.MaxUint16+2
	at := layoutSize{vertices: max, edges: max, postings: max, cells: max, elems: max, arena: max, types: types}
	if err := checkSize(at); err != nil {
		t.Errorf("checkSize at the limit: %v", err)
	}
	for _, c := range []struct {
		name string
		set  func(*layoutSize)
	}{
		{"vertices", func(n *layoutSize) { n.vertices = past }},
		{"edges", func(n *layoutSize) { n.edges = past }},
		{"postings", func(n *layoutSize) { n.postings = past }},
		{"cells", func(n *layoutSize) { n.cells = past }},
		{"list elements", func(n *layoutSize) { n.elems = past }},
		{"a 2^32-byte arena", func(n *layoutSize) { n.arena = past }},
		{"types past the type-ID width", func(n *layoutSize) { n.types = pastTypes }},
	} {
		n := at
		c.set(&n)
		if err := checkSize(n); err == nil {
			t.Errorf("checkSize accepted %s", c.name)
		}
	}
}
