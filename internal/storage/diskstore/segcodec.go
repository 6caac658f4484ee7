package diskstore

// The vertex-local layout's decoders: a vertex's property run and its
// adjacency block, both located by its vertex record (see vertexRec),
// which the epoch's resident table answers without a page read.
//
// A property run is propCount consecutive 16-byte records in props.db
// from record propStart, sorted by key ID: a lookup is one pager read of
// the run and a binary search.
//
// An adjacency block is blockLen bytes of edges.db at blockOff: a type
// directory of nTypes 20-byte entries sorted by type ID (see dirEntry),
// then each type's two delta-varint segments in directory order. Edges
// are sorted by (src, type, dst) when a generation is written, which
// assigns the EIDs, so the segments are:
//
//   - out segment: the first entry is uvarint(dst), every later entry
//     uvarint(dst - prevDst) — gaps are >= 0 (parallel edges encode a 0).
//     EIDs are implicit: the vertex's out-edges are EIDs firstOutEID,
//     firstOutEID+1, ... in directory order, so a type's first out-EID is
//     firstOutEID plus the out-degrees of the types before it.
//   - in segment (built from the (dst, type, EID) order): the first entry
//     is uvarint(src) uvarint(eid), every later entry
//     uvarint(src - prevSrc) uvarint(eid - prevEid). Within a fixed
//     (dst, type) group ascending EID implies ascending src, so both gaps
//     are non-negative (the EID gap strictly positive).
//
// A traversal takes the vertex record from the table, then reads the
// whole block in one pager read when it is at most blockReadWhole bytes
// (or the traversal is untyped), else the directory and then the one
// segment it needs; a typed degree reads only the directory. Every extent — the run against
// props.db, the block against edges.db, the directory and segments
// against the block, a blob against blobs.db — is checked before it is
// read, and bytes that fail a check are an ErrCorrupt error.
//
// Decoding is morsel-local: each read grabs one pooled scratch buffer,
// reads through the pager and walks the bytes — no
// per-edge or per-record allocation.

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/graph"
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

// blockReadWhole is the largest adjacency block a typed traversal reads
// whole; a larger one is read as its directory, then one segment.
const blockReadWhole = 4096

// decodeSeg walks an out segment (EIDs from firstEID) or an in segment,
// calling fn per edge. It reports whether the walk ran to completion, and
// tells a malformed segment (an error) from fn stopping it (none).
func decodeSeg(seg []byte, out bool, firstEID uint64, fn func(storage.EID, storage.VID) bool) (bool, error) {
	stopped := false
	visit := func(e storage.EID, v storage.VID) bool {
		if !fn(e, v) {
			stopped = true
			return false
		}
		return true
	}
	var done bool
	if out {
		done = decodeOutSeg(seg, int64(firstEID), visit)
	} else {
		done = decodeInSeg(seg, visit)
	}
	if !done && !stopped {
		return false, corruptf("malformed %d-byte adjacency segment", len(seg))
	}
	return done, nil
}

// readRun reads base vertex rec's property run into sc, after checking it
// against props.db's extent.
func (ep *epoch) readRun(rec vertexRec, sc *[]byte) ([]byte, error) {
	if rec.propCount == 0 {
		return nil, nil
	}
	if rec.propStart > uint64(ep.numProps) || uint64(rec.propCount) > uint64(ep.numProps)-rec.propStart {
		return nil, corruptf("property run [%d,+%d) outside props.db (%d records)", rec.propStart, rec.propCount, ep.numProps)
	}
	buf := takeScratch(sc, int(rec.propCount)*propRecSize)
	if err := ep.pager.read(fileProps, int64(rec.propStart)*propRecSize, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// runKey is the key ID of record i of a property run.
func runKey(run []byte, i int) uint32 {
	b := run[i*propRecSize:]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16
}

// findProp binary-searches a property run for key. Runs are sorted by key
// ID; on an unsorted (corrupt) run the search may miss, but it stays in
// bounds.
func findProp(run []byte, key uint32) (propRec, bool, error) {
	if len(run)%propRecSize != 0 {
		return propRec{}, false, corruptf("%d-byte property run is not whole records", len(run))
	}
	lo, hi := 0, len(run)/propRecSize
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		switch k := runKey(run, m); {
		case k < key:
			lo = m + 1
		case k > key:
			hi = m
		default:
			return decodePropRec(run[m*propRecSize:]), true, nil
		}
	}
	return propRec{}, false, nil
}

// prop returns base vertex rec's value of key: one read of the run, a
// search, and the value's decode.
func (ep *epoch) prop(rec vertexRec, key uint32) (graph.Value, bool, error) {
	if rec.propCount == 0 {
		return graph.Null, false, nil
	}
	sc := segScratch.Get().(*[]byte)
	defer segScratch.Put(sc)
	run, err := ep.readRun(rec, sc)
	if err != nil {
		return graph.Null, false, err
	}
	pr, ok, err := findProp(run, key)
	if !ok || err != nil {
		return graph.Null, false, err
	}
	val, err := ep.decodeValue(pr, sc)
	if err != nil {
		return graph.Null, false, err
	}
	return val, true, nil
}

// propKeys returns the key IDs of base vertex rec's property run.
func (ep *epoch) propKeys(rec vertexRec) ([]int, error) {
	sc := segScratch.Get().(*[]byte)
	defer segScratch.Put(sc)
	run, err := ep.readRun(rec, sc)
	if err != nil {
		return nil, err
	}
	ids := make([]int, 0, rec.propCount)
	for i := range len(run) / propRecSize {
		ids = append(ids, int(runKey(run, i)))
	}
	return ids, nil
}

// readBlock reads base vertex rec's adjacency block into sc — only its
// directory if dirOnly — after checking the block against edges.db's
// extent and the directory against the block.
func (ep *epoch) readBlock(rec vertexRec, sc *[]byte, dirOnly bool) ([]byte, error) {
	dirLen := uint64(rec.nTypes) * dirEntrySize
	if rec.blockOff > uint64(ep.edgeBytes) || uint64(rec.blockLen) > uint64(ep.edgeBytes)-rec.blockOff || dirLen > uint64(rec.blockLen) {
		return nil, corruptf("adjacency block [%d,+%d) of %d types outside edges.db (%d bytes)", rec.blockOff, rec.blockLen, rec.nTypes, ep.edgeBytes)
	}
	n := uint64(rec.blockLen)
	if dirOnly {
		n = dirLen
	}
	buf := takeScratch(sc, int(n))
	if err := ep.pager.read(fileEdges, int64(rec.blockOff), buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// walkDir visits the directory at the head of block (which holds at
// least the directory) in order, with each type's out and in segment
// offsets within the block and its first out-EID, until fn returns false.
// It checks that every segment lies inside the block's blockLen bytes.
func walkDir(rec vertexRec, block []byte, fn func(d dirEntry, outOff, inOff, firstEID uint64) bool) error {
	off := uint64(rec.nTypes) * dirEntrySize
	if uint64(len(block)) < off {
		return corruptf("%d-byte block holds no %d-entry directory", len(block), rec.nTypes)
	}
	eid := rec.firstOutEID
	for i := range int(rec.nTypes) {
		d := decodeDirEntry(block[i*dirEntrySize:])
		outOff := off
		off += uint64(d.outLen) + uint64(d.inLen)
		if off > uint64(rec.blockLen) {
			return corruptf("directory entry %d overruns its %d-byte block", i, rec.blockLen)
		}
		if !fn(d, outOff, outOff+uint64(d.outLen), eid) {
			return nil
		}
		eid += uint64(d.outDeg)
	}
	return nil
}

// forEachAdj iterates base vertex rec's adjacency in one direction: the
// segment of type etype, or every type's in directory order for
// AnySymbol — ascending type, so an untyped out-walk sees edges in EID
// order. It reports whether iteration ran to completion (false: fn
// stopped it, or an error), so a caller knows whether to continue into
// the delta.
func (ep *epoch) forEachAdj(rec vertexRec, etype storage.SymbolID, out bool, fn func(storage.EID, storage.VID) bool) (bool, error) {
	if rec.nTypes == 0 {
		return true, nil
	}
	sc := segScratch.Get().(*[]byte)
	defer segScratch.Put(sc)
	whole := etype == storage.AnySymbol || rec.blockLen <= blockReadWhole
	block, err := ep.readBlock(rec, sc, !whole)
	if err != nil {
		return false, err
	}
	done := true
	var segErr error
	if err := walkDir(rec, block, func(d dirEntry, outOff, inOff, firstEID uint64) bool {
		if etype != storage.AnySymbol && d.typeID != uint32(etype) {
			return d.typeID < uint32(etype) // sorted: past etype, it is absent
		}
		off, n := outOff, uint64(d.outLen)
		if !out {
			off, n = inOff, uint64(d.inLen)
		}
		var seg []byte
		if whole {
			seg = block[off : off+n]
		} else {
			// Typed: this is the last entry visited, so the segment may
			// overwrite the directory in the scratch buffer.
			seg = takeScratch(sc, int(n))
			if segErr = ep.pager.read(fileEdges, int64(rec.blockOff+off), seg); segErr != nil {
				return false
			}
		}
		if done, segErr = decodeSeg(seg, out, firstEID, fn); !done || segErr != nil {
			return false
		}
		return etype == storage.AnySymbol
	}); err != nil {
		return false, err
	}
	return done && segErr == nil, segErr
}

// typedDegree answers a typed degree from base vertex rec's directory
// alone.
func (ep *epoch) typedDegree(rec vertexRec, etype storage.SymbolID, out bool) (int, error) {
	if rec.nTypes == 0 {
		return 0, nil
	}
	sc := segScratch.Get().(*[]byte)
	defer segScratch.Put(sc)
	dir, err := ep.readBlock(rec, sc, true)
	if err != nil {
		return 0, err
	}
	deg := 0
	err = walkDir(rec, dir, func(d dirEntry, _, _, _ uint64) bool {
		if d.typeID == uint32(etype) {
			deg = int(d.inDeg)
			if out {
				deg = int(d.outDeg)
			}
			return false
		}
		return d.typeID < uint32(etype)
	})
	return deg, err
}

// forEachEdgeLite enumerates every base edge as a (src, dst, type)
// triple in EID order: each vertex's out segments in directory order
// (vertex order x ascending type x ascending dst is exactly EID order
// under writeGeneration's sort). writeGeneration gathers the base's
// edges through this.
func (ep *epoch) forEachEdgeLite(fn func(edgeLite) error) error {
	sc := segScratch.Get().(*[]byte)
	defer segScratch.Put(sc)
	for v := int64(0); v < ep.numVertices; v++ {
		rec := ep.readVertex(storage.VID(v))
		if rec.nTypes == 0 {
			continue
		}
		block, err := ep.readBlock(rec, sc, false)
		if err != nil {
			return fmt.Errorf("vertex %d: %w", v, err)
		}
		var fnErr, segErr error
		if err := walkDir(rec, block, func(d dirEntry, outOff, _, firstEID uint64) bool {
			_, segErr = decodeSeg(block[outOff:outOff+uint64(d.outLen)], true, firstEID, func(_ storage.EID, dst storage.VID) bool {
				fnErr = fn(edgeLite{src: v, dst: int64(dst), typeID: d.typeID})
				return fnErr == nil
			})
			return fnErr == nil && segErr == nil
		}); err != nil {
			return fmt.Errorf("vertex %d: %w", v, err)
		}
		if fnErr != nil {
			return fnErr
		}
		if segErr != nil {
			return fmt.Errorf("vertex %d: %w", v, segErr)
		}
	}
	return nil
}
