package diskstore

// FuzzVertexLayout drives the serving decoders of the vertex-local layout
// — the bytes every property read and traversal of a base vertex decodes
// — with arbitrary input, on a real store's epoch:
//
//   - as a vertex record: a property read, the key listing, typed and
//     untyped traversals in both directions and typed degrees over it
//     return, or fail with ErrCorrupt, and never panic; the run and block
//     reads are refused exactly when the record places them outside
//     props.db or edges.db; and no page past a file's end is ever loaded;
//   - as a property run: a search for any key stays in bounds, and a
//     found record's value decodes or fails with ErrCorrupt — always when
//     its blob lies outside blobs.db;
//   - as an adjacency block (with the fuzzed record's directory size and
//     first out-EID): the directory walk and the segment decodes stay in
//     bounds, fail only with ErrCorrupt, and never emit more edges than
//     the block has bytes.

import (
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

// realVertex returns a multi-property, multi-type vertex of a small
// finalized store — its record, property run and adjacency block — as
// seed corpus.
func realVertex(f *testing.F, ep *epoch) (rec, run, block []byte) {
	for v := int64(0); v < ep.numVertices; v++ {
		r := ep.readVertex(storage.VID(v))
		if r.propCount < 2 || r.nTypes < 2 {
			continue
		}
		var sc []byte
		var err error
		if run, err = ep.readRun(r, &sc); err != nil {
			f.Fatal(err)
		}
		run = append([]byte(nil), run...)
		if block, err = ep.readBlock(r, &sc, false); err != nil {
			f.Fatal(err)
		}
		buf := encodeVertexRec(r, [2]uint64{}) // the decoders read no labels
		return buf[:], run, block
	}
	f.Fatal("seed store has no vertex with two properties and two edge types")
	return nil, nil, nil
}

func FuzzVertexLayout(f *testing.F) {
	s, err := Open(f.TempDir(), Options{PageSize: 512, CachePages: 32})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	if _, err := storetest.BuildRandom(s, 21, 60, 160); err != nil {
		f.Fatal(err)
	}
	ep := s.curEp()
	rec, run, block := realVertex(f, ep)
	f.Add(rec, run, block)
	f.Add(make([]byte, vertexRecSize), []byte{}, []byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, run[:len(run)-3], block[:len(block)/2])

	typed := func(t *testing.T, what string, err error) {
		t.Helper()
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: untyped error %v", what, err)
		}
	}
	count := func(n *int) func(storage.EID, storage.VID) bool {
		return func(storage.EID, storage.VID) bool { *n++; return true }
	}
	etypes := []storage.SymbolID{storage.AnySymbol, 0, 1, 2, 3}

	f.Fuzz(func(t *testing.T, recRaw, run, block []byte) {
		var buf [vertexRecSize]byte
		copy(buf[:], recRaw)
		r, _ := decodeVertexRec(buf[:])
		var sc []byte

		// The bytes as a vertex record, served by the real epoch.
		inRun := r.propCount == 0 || r.propStart <= uint64(ep.numProps) && uint64(r.propCount) <= uint64(ep.numProps)-r.propStart
		if _, err := ep.readRun(r, &sc); (err == nil) != inRun {
			t.Fatalf("run [%d,+%d) of %d records: read err = %v", r.propStart, r.propCount, ep.numProps, err)
		}
		dirLen := uint64(r.nTypes) * dirEntrySize
		inBlock := r.blockOff <= uint64(ep.edgeBytes) && uint64(r.blockLen) <= uint64(ep.edgeBytes)-r.blockOff && dirLen <= uint64(r.blockLen)
		if _, err := ep.readBlock(r, &sc, false); (err == nil) != inBlock {
			t.Fatalf("block [%d,+%d) of %d types in %d bytes: read err = %v", r.blockOff, r.blockLen, r.nTypes, ep.edgeBytes, err)
		}
		for key := uint32(0); key < 6; key++ {
			_, _, err := ep.prop(r, key)
			typed(t, "prop", err)
		}
		_, err := ep.propKeys(r)
		typed(t, "propKeys", err)
		for _, et := range etypes {
			for _, out := range []bool{true, false} {
				n := 0
				_, err := ep.forEachAdj(r, et, out, count(&n))
				typed(t, "forEachAdj", err)
				if uint64(n) > uint64(r.blockLen) {
					t.Fatalf("a %d-byte block emitted %d edges", r.blockLen, n)
				}
				if et != storage.AnySymbol {
					_, err := ep.typedDegree(r, et, out)
					typed(t, "typedDegree", err)
				}
			}
		}
		for i := range ep.pager.shards {
			for key := range ep.pager.shards[i].table {
				if key.page*int64(ep.pager.pageSize) >= ep.pager.sizes[key.file] {
					t.Fatalf("page %d of %s loaded, past its %d-byte extent", key.page, baseFileNames[key.file], ep.pager.sizes[key.file])
				}
			}
		}

		// The bytes as a property run.
		for _, key := range []uint32{0, 1, 2, 3, 4, maxKeyID} {
			pr, ok, err := findProp(run, key)
			typed(t, "findProp", err)
			if !ok {
				continue
			}
			_, err = ep.decodeValue(pr, &sc)
			typed(t, "decodeValue", err)
			blob := pr.kind == graph.KindString || pr.kind == graph.KindList
			if blob && (pr.a > uint64(ep.blobSize) || uint64(pr.b) > uint64(ep.blobSize)-pr.a) && err == nil {
				t.Fatalf("blob [%d,+%d) outside %d-byte blobs.db decoded", pr.a, pr.b, ep.blobSize)
			}
		}

		// The bytes as an adjacency block.
		r.blockLen = uint32(len(block))
		edges := 0
		err = walkDir(r, block, func(d dirEntry, outOff, inOff, firstEID uint64) bool {
			_, err := decodeSeg(block[outOff:outOff+uint64(d.outLen)], true, firstEID, count(&edges))
			typed(t, "out segment", err)
			_, err = decodeSeg(block[inOff:inOff+uint64(d.inLen)], false, 0, count(&edges))
			typed(t, "in segment", err)
			return true
		})
		typed(t, "walkDir", err)
		if edges > len(block) {
			t.Fatalf("a %d-byte block emitted %d edges", len(block), edges)
		}
	})
}
