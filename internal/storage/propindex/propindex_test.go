package propindex

import (
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/storage"
)

// TestHashFollowsEqual: values Equal to each other hash alike, under the
// same label and key only; the values the index leaves out do not hash.
func TestHashFollowsEqual(t *testing.T) {
	for _, pair := range [][2]graph.Value{
		{graph.I(1), graph.F(1)},
		{graph.F(0), graph.F(math.Copysign(0, -1))},
		{graph.I(1 << 53), graph.F(1 << 53)},
		{graph.S("x"), graph.S("x")},
		{graph.Null, graph.Null},
	} {
		a, okA := hash(1, 2, pair[0])
		b, okB := hash(1, 2, pair[1])
		if !okA || !okB || a != b {
			t.Errorf("hash(%v) = %x, hash(%v) = %x: Equal values must hash alike", pair[0], a, pair[1], b)
		}
		if c, _ := hash(2, 1, pair[0]); c == a {
			t.Errorf("Hash of %v ignores the label and key", pair[0])
		}
	}
	if a, _ := hash(1, 2, graph.I(1<<53+1)); a == func() uint64 { h, _ := hash(1, 2, graph.F(1<<53)); return h }() {
		t.Error("2^53+1 and the DOUBLE 2^53 are not Equal but hash alike")
	}
	for _, v := range []graph.Value{graph.F(math.NaN()), graph.L(graph.I(1))} {
		if _, ok := hash(1, 2, v); ok {
			t.Errorf("hash(%v) ok; the index leaves it out", v)
		}
	}
}

// TestBuildLookupRoundTrip builds an index, looks every value up, and
// rebuilds it through Parts and FromParts.
func TestBuildLookupRoundTrip(t *testing.T) {
	vals := map[storage.VID]graph.Value{}
	var b Builder
	for v := storage.VID(0); v < 200; v++ {
		val := graph.S(string(rune('a' + v%7)))
		if v%5 == 0 {
			val = graph.I(int64(v % 3))
		}
		vals[v] = val
		b.Add(3, 4, v, val)
		b.Add(3, 5, v, graph.L(val)) // left out
	}
	ix := b.Finish()
	valueOf := func(v storage.VID) (graph.Value, bool) { val, ok := vals[v]; return val, ok }
	check := func(ix *Index) {
		t.Helper()
		for _, want := range []graph.Value{graph.S("a"), graph.S("g"), graph.F(2), graph.I(0), graph.S("absent")} {
			got, indexed := ix.Lookup(3, 4, want, valueOf)
			var exp []uint32
			for v := storage.VID(0); v < 200; v++ {
				if vals[v].Equal(want) {
					exp = append(exp, uint32(v))
				}
			}
			if !indexed || !slices.Equal(got, exp) {
				t.Errorf("Lookup(%v) = %v, %v; want %v", want, got, indexed, exp)
			}
		}
		if _, indexed := ix.Lookup(3, 5, graph.L(graph.S("a")), valueOf); indexed {
			t.Error("a list lookup claims to be indexed")
		}
	}
	check(ix)
	vids, ranges, slots := ix.Parts()
	again, err := FromParts(vids, ranges, slots, 200)
	if err != nil {
		t.Fatal(err)
	}
	check(again)
	if _, err := FromParts(vids, ranges, slots, 150); err == nil {
		t.Error("FromParts accepted postings past the vertex count")
	}
	bad := slices.Clone(slots)
	for i := range bad {
		if bad[i] != 0 {
			bad[i] = int32(len(ranges) + 1)
			break
		}
	}
	if _, err := FromParts(vids, ranges, bad, 200); err == nil {
		t.Error("FromParts accepted a slot past the ranges")
	}
	if _, indexed := (*Index)(nil).Lookup(3, 4, graph.S("a"), valueOf); indexed {
		t.Error("a nil index claims to answer")
	}
}

// TestBuilderRefusesWideVIDs: a VID that does not fit a posting leaves
// no index at all, so its owner scans instead of missing the vertex.
func TestBuilderRefusesWideVIDs(t *testing.T) {
	var b Builder
	b.Add(0, 0, 1, graph.S("a"))
	b.Add(0, 0, 1<<32, graph.S("a"))
	if ix := b.Finish(); ix != nil {
		t.Errorf("index over a VID past 2^32 built: %v", ix)
	}
}
