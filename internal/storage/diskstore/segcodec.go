package diskstore

// Delta-varint adjacency segments: the finalized adjacency layout.
//
// After Finalize, edges are sorted by (src, type, dst) and each (src,
// type) group becomes two byte segments in edges.db, located by the
// degree record's descriptor fields (degRec.outOff/outLen etc.):
//
//   - out segment: the first entry is uvarint(dst), every later entry
//     uvarint(dst - prevDst) — gaps are >= 0 (parallel edges encode a 0).
//     EIDs are implicit: the i-th entry is edge firstOutEID + i, because
//     the (src, type, dst) sort assigns new EIDs in exactly this order.
//   - in segment (built from the (dst, type, EID) order): the first entry
//     is uvarint(src) uvarint(eid), every later entry
//     uvarint(src - prevSrc) uvarint(eid - prevEid). Within a fixed
//     (dst, type) group ascending EID implies ascending src, so both gaps
//     are non-negative (the EID gap strictly positive).
//
// Worst case an edge costs 9 bytes in its out segment and 18 in its in
// segment — 27 < 64, so a finalized edges.db is always smaller than the
// edge records it replaces. Typical graphs land far lower (2-5 bytes/edge out, ~2x that in), which is where the >= 2x
// bytes-per-edge win over 64-byte edge records comes from.
//
// Decoding is morsel-local: each traversal grabs one pooled scratch
// buffer, reads the segment bytes through the pager (or the mmap path)
// in a single read, and walks the varints — no per-edge allocation.

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/storage"
)

// segScratch pools decode buffers so concurrent morsel workers never
// allocate per-traversal.
var segScratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// takeScratch resizes the pooled buffer to n bytes (growing its backing
// array only when a segment outgrows it).
func takeScratch(sc *[]byte, n int) []byte {
	if cap(*sc) < n {
		*sc = make([]byte, n)
	}
	*sc = (*sc)[:n]
	return *sc
}

// appendOutSeg gap-encodes one (src, type) group's sorted dst list.
func appendOutSeg(buf []byte, dst, prev int64, first bool) []byte {
	if first {
		return binary.AppendUvarint(buf, uint64(dst))
	}
	return binary.AppendUvarint(buf, uint64(dst-prev))
}

// appendInSeg gap-encodes one (dst, type) group entry: (src, eid).
func appendInSeg(buf []byte, src, prevSrc, eid, prevEid int64, first bool) []byte {
	if first {
		buf = binary.AppendUvarint(buf, uint64(src))
		return binary.AppendUvarint(buf, uint64(eid))
	}
	buf = binary.AppendUvarint(buf, uint64(src-prevSrc))
	return binary.AppendUvarint(buf, uint64(eid-prevEid))
}

// decodeOutSeg walks an out segment, calling fn with each edge's
// (implicit, contiguous) EID and destination. Returns false if fn
// stopped the walk or the bytes are corrupt.
func decodeOutSeg(data []byte, firstEID int64, fn func(storage.EID, storage.VID) bool) bool {
	var dst int64
	for i := int64(0); len(data) > 0; i++ {
		g, n := binary.Uvarint(data)
		if n <= 0 {
			return false
		}
		data = data[n:]
		if i == 0 {
			dst = int64(g)
		} else {
			dst += int64(g)
		}
		if !fn(storage.EID(firstEID+i), storage.VID(dst)) {
			return false
		}
	}
	return true
}

// decodeInSeg walks an in segment, calling fn with each edge's EID and
// source. Returns false if fn stopped the walk or the bytes are corrupt.
func decodeInSeg(data []byte, fn func(storage.EID, storage.VID) bool) bool {
	var src, eid int64
	for i := 0; len(data) > 0; i++ {
		sg, n := binary.Uvarint(data)
		if n <= 0 {
			return false
		}
		data = data[n:]
		eg, n2 := binary.Uvarint(data)
		if n2 <= 0 {
			return false
		}
		data = data[n2:]
		if i == 0 {
			src, eid = int64(sg), int64(eg)
		} else {
			src += int64(sg)
			eid += int64(eg)
		}
		if !fn(storage.EID(eid), storage.VID(src)) {
			return false
		}
	}
	return true
}

// forEachCompressed is forEachBase on a compressed epoch: walk the
// vertex's degree chain, decode the matching type's segment (every
// type's, for untyped traversals — the chain is in ascending type
// order, so untyped out-walks still see edges in EID order). Reports
// whether iteration ran to completion.
func (ep *epoch) forEachCompressed(rec vertexRec, etype storage.SymbolID, out bool, fn func(storage.EID, storage.VID) bool) bool {
	sc := segScratch.Get().(*[]byte)
	defer segScratch.Put(sc)
	for d := rec.firstDeg; d != 0; {
		dr, err := ep.readDeg(d - 1)
		if err != nil {
			return false
		}
		d = dr.next
		if etype != storage.AnySymbol && dr.typeID != uint32(etype) {
			continue
		}
		if out {
			if dr.outLen > 0 {
				data := takeScratch(sc, int(dr.outLen))
				if err := ep.pager.read(fileEdges, dr.outOff-1, data); err != nil {
					return false
				}
				if !decodeOutSeg(data, dr.firstOutEID-1, fn) {
					return false
				}
			}
		} else if dr.inLen > 0 {
			data := takeScratch(sc, int(dr.inLen))
			if err := ep.pager.read(fileEdges, dr.inOff-1, data); err != nil {
				return false
			}
			if !decodeInSeg(data, fn) {
				return false
			}
		}
		if etype != storage.AnySymbol {
			return true
		}
	}
	return true
}

// forEachEdgeLite enumerates every base edge as a (src, dst, type)
// triple in EID order, reading whichever state the epoch is in —
// build-mode 64-byte records, or finalized segments via the degree chain
// (vertex order x ascending type x ascending dst is exactly EID order
// under Finalize's sort). The finalize sort pass and the fold gather
// through this, so neither can misread segments as records.
func (ep *epoch) forEachEdgeLite(fn func(edgeLite) error) error {
	if !ep.compressed {
		for e := int64(0); e < ep.numEdges; e++ {
			er, err := ep.readEdge(storage.EID(e))
			if err != nil {
				return fmt.Errorf("read edge %d: %w", e, err)
			}
			if !er.inUse {
				return fmt.Errorf("edge %d not in use", e)
			}
			if err := fn(edgeLite{src: er.src, dst: er.dst, typeID: er.typeID}); err != nil {
				return err
			}
		}
		return nil
	}
	sc := segScratch.Get().(*[]byte)
	defer segScratch.Put(sc)
	for v := int64(0); v < ep.numVertices; v++ {
		rec, err := ep.readVertex(storage.VID(v))
		if err != nil {
			return err
		}
		for d := rec.firstDeg; d != 0; {
			dr, err := ep.readDeg(d - 1)
			if err != nil {
				return err
			}
			d = dr.next
			if dr.outLen == 0 {
				continue
			}
			data := takeScratch(sc, int(dr.outLen))
			if err := ep.pager.read(fileEdges, dr.outOff-1, data); err != nil {
				return err
			}
			var decodeErr error
			ok := decodeOutSeg(data, dr.firstOutEID-1, func(_ storage.EID, dst storage.VID) bool {
				decodeErr = fn(edgeLite{src: v, dst: int64(dst), typeID: dr.typeID})
				return decodeErr == nil
			})
			if decodeErr != nil {
				return decodeErr
			}
			if !ok {
				return fmt.Errorf("corrupt out segment for vertex %d type %d", v, dr.typeID)
			}
		}
	}
	return nil
}
