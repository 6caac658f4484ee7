package diskstore

// checkLayout is the test-only checker of a generation's vertex-local
// layout; the tests run it after a load and after a fold.

import (
	"testing"

	"repro/internal/storage"
)

// checkLayout requires the current generation of s to be exactly the
// layout writeGeneration promises:
//
//   - every vertex's property run is sorted by strictly ascending key ID,
//     and the runs, in vertex order, tile props.db;
//   - every adjacency block's directory is sorted by strictly ascending
//     type ID, its segment lengths tile the block, its degrees sum to the
//     record's untyped degrees and its segments decode to exactly those
//     degrees, out-EIDs counting on from the record's firstOutEID;
//   - the blocks, in vertex order, tile edges.db, and the out-EIDs tile
//     the edge IDs.
func checkLayout(t *testing.T, s *Store, when string) {
	t.Helper()
	ep := s.curEp()
	var props, cursor, eids uint64
	sc := segScratch.Get().(*[]byte)
	defer segScratch.Put(sc)
	for v := int64(0); v < ep.numVertices; v++ {
		rec := ep.readVertex(storage.VID(v))
		if rec.propStart != props {
			t.Fatalf("%s: vertex %d's property run starts at record %d, want %d", when, v, rec.propStart, props)
		}
		run, err := ep.readRun(rec, sc)
		if err != nil {
			t.Fatalf("%s: vertex %d: %v", when, v, err)
		}
		for i := 1; i < int(rec.propCount); i++ {
			if runKey(run, i-1) >= runKey(run, i) {
				t.Fatalf("%s: vertex %d's run is not sorted by key ID at record %d", when, v, i)
			}
		}
		props += uint64(rec.propCount)

		if rec.blockOff != cursor || rec.firstOutEID != eids {
			t.Fatalf("%s: vertex %d's block is at byte %d with first out-EID %d, want %d and %d", when, v, rec.blockOff, rec.firstOutEID, cursor, eids)
		}
		block, err := ep.readBlock(rec, sc, false)
		if err != nil {
			t.Fatalf("%s: vertex %d: %v", when, v, err)
		}
		var outDeg, inDeg uint32
		end := uint64(rec.nTypes) * dirEntrySize
		prevType := int64(-1)
		if err := walkDir(rec, block, func(d dirEntry, outOff, inOff, firstEID uint64) bool {
			if int64(d.typeID) <= prevType {
				t.Fatalf("%s: vertex %d's directory is not sorted by type ID at type %d", when, v, d.typeID)
			}
			prevType = int64(d.typeID)
			for _, seg := range []struct {
				out      bool
				off, n   uint64
				deg      uint32
				firstEID uint64
			}{{true, outOff, uint64(d.outLen), d.outDeg, firstEID}, {false, inOff, uint64(d.inLen), d.inDeg, 0}} {
				var n uint32
				want := seg.firstEID
				if _, err := decodeSeg(block[seg.off:seg.off+seg.n], seg.out, seg.firstEID, func(e storage.EID, _ storage.VID) bool {
					if seg.out && uint64(e) != want {
						t.Fatalf("%s: vertex %d type %d: out-edge %d has EID %d, want %d", when, v, d.typeID, n, e, want)
					}
					want++
					n++
					return true
				}); err != nil {
					t.Fatalf("%s: vertex %d type %d: %v", when, v, d.typeID, err)
				}
				if n != seg.deg {
					t.Fatalf("%s: vertex %d type %d: segment (out=%v) holds %d edges, the directory says %d", when, v, d.typeID, seg.out, n, seg.deg)
				}
			}
			outDeg += d.outDeg
			inDeg += d.inDeg
			end = inOff + uint64(d.inLen)
			return true
		}); err != nil {
			t.Fatalf("%s: vertex %d: %v", when, v, err)
		}
		if end != uint64(rec.blockLen) {
			t.Fatalf("%s: vertex %d's segments end at byte %d of its %d-byte block", when, v, end, rec.blockLen)
		}
		if outDeg != rec.outDeg || inDeg != rec.inDeg {
			t.Fatalf("%s: vertex %d's directory degrees %d/%d disagree with its record's %d/%d", when, v, outDeg, inDeg, rec.outDeg, rec.inDeg)
		}
		cursor += uint64(rec.blockLen)
		eids += uint64(rec.outDeg)
	}
	if props != uint64(ep.numProps) {
		t.Errorf("%s: the runs hold %d of %d property records", when, props, ep.numProps)
	}
	if cursor != uint64(ep.edgeBytes) || eids != uint64(ep.numEdges) {
		t.Errorf("%s: the blocks cover %d of %d edges.db bytes and %d of %d edges", when, cursor, ep.edgeBytes, eids, ep.numEdges)
	}
	for f, want := range map[fileID]int64{
		fileVertices: ep.numVertices * vertexRecSize,
		fileProps:    ep.numProps * propRecSize,
		fileEdges:    ep.edgeBytes,
		fileBlobs:    ep.blobSize,
	} {
		if got := ep.pager.sizes[f]; got != want {
			t.Errorf("%s: %s holds %d bytes, want %d", when, baseFileNames[f], got, want)
		}
	}
}
