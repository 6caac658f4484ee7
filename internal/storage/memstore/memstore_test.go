package memstore

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"

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
			if got, ok := s.PropID(id, s.KeyID(k)); ok != wantOK || !got.Equal(want) && wantOK {
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

// TestFlatLayoutMatchesModel loads a graph that puts labels on the
// bitmaps' word boundaries (VIDs 0, 63, 64, 65 and the last), leaves
// vertices without labels, properties or edges, interns a label first
// after vertex 64 and mixes edge types out of ID order, then checks
// every read against the Batch it was loaded from.
func TestFlatLayoutMatchesModel(t *testing.T) {
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

// TestCheckSize: the flat layout takes up to 2^32-1 vertices, edges and
// properties, and no more.
func TestCheckSize(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("the limit is past a 32-bit int")
	}
	var limit uint64 = math.MaxUint32
	max, past := int(limit), int(limit+1)
	if err := checkSize(max, max, max); err != nil {
		t.Errorf("checkSize at the limit: %v", err)
	}
	for _, c := range [][3]int{{past, 0, 0}, {0, past, 0}, {0, 0, past}} {
		if err := checkSize(c[0], c[1], c[2]); err == nil {
			t.Errorf("checkSize(%v) accepted a count past 2^32-1", c)
		}
	}
}
