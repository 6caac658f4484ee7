package diskstore

// The bulk load (storage.Builder's batches) and writeGeneration, the one
// writer of a base generation (Finalize, in compact.go, runs it).
//
// A bulk load opens with the first batch on a store that holds nothing:
// no generation, no base vertices, an empty delta and no WAL. From then on
// that batch and every later one append to one in-memory frozenDelta, the
// load set — each vertex whole, with its label IDs and properties, edges
// in ingest order — and nothing reaches disk. Reads never see a pending
// load, and ApplyMutations refuses with storage.ErrNotLive until Finalize
// hands the load set to writeGeneration over the empty base, which writes
// generation 1 and commits it; after that the store refuses batches with
// storage.ErrFinalized.
//
// writeGeneration builds everything derived — property runs, adjacency
// blocks with their type directories, untyped degree counters,
// statistics, value postings — in one sorted pass over the current base
// and a frozen delta (the live delta's fold prefix, or the load set). It
// writes generation N+1 beside generation N and commit makes it current
// with one manifest rename, so no file a committed manifest names is ever
// rewritten. It trusts no derived structure of its input: only the
// src/dst/type triples of the edges, and each vertex's labels and
// properties.

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/propindex"
)

// AddVertexBatch creates the batch's vertices, each with its labels and
// properties, with consecutive VIDs starting at the returned ID. The
// batch joins the pending bulk load, opening one on a store that holds
// nothing (see openLoad). It is checked whole before any vertex joins.
func (s *Store) AddVertexBatch(batch []storage.BulkVertex) (storage.VID, error) {
	ld, err := s.openLoad()
	if err != nil {
		return 0, err
	}
	for i := range batch {
		if slices.Contains(batch[i].Labels, "") {
			return 0, fmt.Errorf("diskstore: empty label in AddVertexBatch")
		}
		for _, p := range batch[i].Props {
			if p.Key == "" {
				return 0, fmt.Errorf("diskstore: empty property key in AddVertexBatch")
			}
			if err := checkValueKind(p.Value); err != nil {
				return 0, err
			}
		}
	}
	s.symMu.Lock()
	defer s.symMu.Unlock()
	first := len(ld.verts)
	for _, bv := range batch {
		var fv frozenVertex
		for _, l := range bv.Labels {
			id, _, err := s.labelID(l, true)
			if err != nil {
				ld.verts = ld.verts[:first]
				return 0, err
			}
			if !slices.Contains(fv.labelIDs, id) {
				fv.labelIDs = append(fv.labelIDs, id)
			}
		}
		if len(bv.Props) > 0 {
			fv.props = make(map[int]graph.Value, len(bv.Props))
			for _, p := range bv.Props {
				fv.props[s.internKey(p.Key)] = p.Value
			}
		}
		ld.verts = append(ld.verts, fv)
	}
	return storage.VID(first), nil
}

// AddEdgeBatch adds the batch's edges to the pending bulk load (see
// openLoad), in order. It is checked whole before any edge joins.
func (s *Store) AddEdgeBatch(batch []storage.BulkEdge) error {
	ld, err := s.openLoad()
	if err != nil {
		return err
	}
	n := storage.VID(len(ld.verts))
	for _, be := range batch {
		if be.Type == "" {
			return fmt.Errorf("diskstore: empty edge type in AddEdgeBatch")
		}
		for _, v := range []storage.VID{be.Src, be.Dst} {
			if v < 0 || v >= n {
				return fmt.Errorf("diskstore: vertex %d out of range", v)
			}
		}
	}
	s.symMu.Lock()
	defer s.symMu.Unlock()
	for _, be := range batch {
		e := storage.EID(len(ld.edges))
		ld.edges = append(ld.edges, frozenEdge{e: e, src: be.Src, dst: be.Dst, typeID: uint32(s.internType(be.Type))})
	}
	return nil
}

// openLoad returns the pending bulk load. If none is open it opens one on
// a store that has never been finalized and holds nothing (no generation,
// an empty delta, no WAL); any other store refuses batches with
// storage.ErrFinalized. Under liveMu, so an ApplyMutations batch either
// commits first (and no load opens) or finds the load open and is
// refused.
func (s *Store) openLoad() (*frozenDelta, error) {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	ld := s.load.Load()
	if ld == nil && !s.finalized.Load() && s.cur.gen == 0 && s.cur.numVertices == 0 &&
		s.delta.nextV.Load() == 0 && s.wal.Load() == nil {
		ld = &frozenDelta{}
		s.load.Store(ld)
	}
	if ld == nil {
		return nil, fmt.Errorf("diskstore: %w; live writes go through ApplyMutations", storage.ErrFinalized)
	}
	return ld, nil
}

// edgeLite is the in-memory shape of one edge during Finalize.
type edgeLite struct {
	src, dst int64
	typeID   uint32
}

// keyVal is one property of a vertex's run in a new generation.
type keyVal struct {
	keyID int
	val   graph.Value
}

// sourceVertex reads base vertex v as writeGeneration and scanIndex
// consume it: its record and its properties, appended to run in key-ID
// order. runBuf and blobBuf are scratch.
func (ep *epoch) sourceVertex(v storage.VID, run []keyVal, runBuf, blobBuf *[]byte) (vertexRec, []keyVal, error) {
	rec, err := ep.readVertex(v)
	if err != nil {
		return rec, nil, err
	}
	data, err := ep.readRun(rec, runBuf)
	if err != nil {
		return rec, nil, fmt.Errorf("vertex %d: %w", v, err)
	}
	for i := range len(data) / propRecSize {
		pr := decodePropRec(data[i*propRecSize:])
		val, err := ep.decodeValue(pr, blobBuf)
		if err != nil {
			return rec, nil, fmt.Errorf("vertex %d key %d: %w", v, pr.keyID, err)
		}
		run = append(run, keyVal{keyID: int(pr.keyID), val: val})
	}
	return rec, run, nil
}

// writeGeneration is the finalize sort pass. It reads its two inputs
// directly — the epoch from (through sourceVertex and forEachEdgeLite)
// and the frozen delta fd on top of it — and streams generation gen into
// the store directory as four fresh files. It never writes a file it
// reads.
//
// Vertices keep their IDs: from's, then fd's in VID order. A vertex's
// labels are its record bits plus fd's additions; its properties are its
// base run with fd's overrides replacing values in place, plus the
// override-only keys (a delta vertex has only those), written as one run
// of property records sorted by key ID; blobs.db holds their blobs
// grouped by key, and the generation's value postings index the run under
// each of the vertex's labels. The edges, from's then fd's in EID order,
// are sorted by (source vertex, edge type, destination) — a counting sort
// by vertex, then a sort of each vertex's few edges — which assigns the
// new edge IDs; the pass writes each vertex's adjacency block — a type
// directory, then one gap-encoded out segment and one in segment per type
// it touches — and rebuilds its degree counters, and accumulates the
// statistics block. Afterwards a typed ForEach finds its type in one
// directory read and never decodes another type's bytes. numTypes is the
// size of the type table the edges' type IDs index.
//
// The same inputs give the same bytes. The returned epoch is open, with a
// cold cache, but neither durable nor named by the manifest until commit;
// on error its files are already gone.
func (s *Store) writeGeneration(from *epoch, fd *frozenDelta, gen int64, numTypes int) (*epoch, error) {
	var files [numFiles]*os.File
	fail := func(err error) (*epoch, error) {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
		s.removeGenFiles(gen)
		return nil, fmt.Errorf("diskstore: finalize: %w", err)
	}
	// Each file grows strictly in order — vertex and property records by
	// ID, blobs and blocks at a running cursor — so it is streamed rather
	// than cached. A bufio.Writer's error is sticky: the Flush below
	// reports any failed Write.
	var out [numFiles]*bufio.Writer
	for i, name := range baseFileNames {
		f, err := os.OpenFile(filepath.Join(s.dir, genFileName(name, gen)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return fail(err)
		}
		files[i] = f
		out[i] = bufio.NewWriter(f)
	}

	recs := make([]edgeLite, 0, int(from.numEdges)+len(fd.edges))
	if err := from.forEachEdgeLite(func(el edgeLite) error {
		recs = append(recs, el)
		return nil
	}); err != nil {
		return fail(err)
	}
	if int64(len(recs)) != from.numEdges {
		return fail(fmt.Errorf("gathered %d edges, expected %d", len(recs), from.numEdges))
	}
	for _, fe := range fd.edges {
		recs = append(recs, edgeLite{src: int64(fe.src), dst: int64(fe.dst), typeID: fe.typeID})
	}
	nE := len(recs)
	nV := from.numVertices + int64(len(fd.verts))
	if nE > math.MaxInt32 {
		return fail(fmt.Errorf("%d edges exceed a generation's %d", nE, math.MaxInt32))
	}
	for i := range recs {
		if r := &recs[i]; r.src < 0 || r.src >= nV || r.dst < 0 || r.dst >= nV || int(r.typeID) >= numTypes {
			return fail(corruptf("edge %d (%d -[%d]-> %d) outside %d vertices and %d types", i, r.src, r.typeID, r.dst, nV, numTypes))
		}
	}

	// New edge order, clustered by (src, type, dst): the new ID of edge
	// perm[k] is k, so each out segment's EIDs are contiguous and its dst
	// list sorted, as gap encoding requires. A counting sort groups the
	// edges by source, and each vertex's few edges are then sorted by
	// (type, dst), ties kept in ingest order (parallel edges).
	perm := groupEdges(nE, nV, func(i int) int64 { return recs[i].src })
	for lo := 0; lo < nE; {
		hi := lo + 1
		for hi < nE && recs[perm[hi]].src == recs[perm[lo]].src {
			hi++
		}
		slices.SortFunc(perm[lo:hi], func(i, j int32) int {
			a, b := &recs[i], &recs[j]
			if c := cmp.Compare(a.typeID, b.typeID); c != 0 {
				return c
			}
			if c := cmp.Compare(a.dst, b.dst); c != 0 {
				return c
			}
			return cmp.Compare(i, j)
		})
		lo = hi
	}

	// In segments are grouped by (dst, type), in ascending new ID within a
	// segment: inOrder holds new IDs, which the counting sort by
	// destination keeps ascending and a stable sort by type keeps so.
	inOrder := groupEdges(nE, nV, func(k int) int64 { return recs[perm[k]].dst })
	for lo := 0; lo < nE; {
		hi := lo + 1
		for hi < nE && recs[perm[inOrder[hi]]].dst == recs[perm[inOrder[lo]]].dst {
			hi++
		}
		slices.SortStableFunc(inOrder[lo:hi], func(a, b int32) int { return cmp.Compare(recs[perm[a]].typeID, recs[perm[b]].typeID) })
		lo = hi
	}

	// Per vertex: labels, the property run, untyped degree counters and
	// the adjacency block, written at a running cursor.
	oi, ii := 0, 0
	var cursor int64
	var dir, segs []byte
	var run []keyVal
	var runBuf, blobBuf []byte
	var recBuf [vertexRecSize]byte // escapes through Write: one, reused
	// The property records wait, encoded, for the end of the pass because
	// blobs.db is grouped by key: one property's values across vertices
	// lie together, as a scan that reads that property wants them (and as
	// the loader's property phases leave them). Until every group's size
	// is known, a record's blob offset is relative to its key's group.
	props := make([]byte, 0, min(from.numProps+from.numProps/8, 1<<24)*propRecSize)
	var keyBlobs [][]byte
	byLabel := make(map[int][]storage.VID)
	values := propindex.NewBuilder(from.values)
	typeCounts := make([]int64, numTypes)
	for i := range recs {
		typeCounts[recs[i].typeID]++
	}
	for v := int64(0); v < nV; v++ {
		s.foldProgress.Store(v * 1000 / nV)
		var rec vertexRec
		var labelAdds []int
		var over map[int]graph.Value
		run = run[:0]
		if v < from.numVertices {
			base, r, err := from.sourceVertex(storage.VID(v), run, &runBuf, &blobBuf)
			if err != nil {
				return fail(err)
			}
			rec.labels, run = base.labels, r
			labelAdds, over = fd.labelAdds[storage.VID(v)], fd.propOver[storage.VID(v)]
		} else {
			fv := &fd.verts[v-from.numVertices]
			labelAdds, over = fv.labelIDs, fv.props
		}
		for _, id := range labelAdds {
			rec.labels[id/64] |= 1 << uint(id%64)
		}
		run = mergeRun(run, over)
		for _, id := range labelBitsToIDs(rec.labels) {
			byLabel[id] = append(byLabel[id], storage.VID(v))
			for _, kv := range run {
				values.Add(int32(id), int32(kv.keyID), storage.VID(v), kv.val)
			}
		}
		rec.propStart, rec.propCount = uint64(len(props)/propRecSize), uint32(len(run))
		for _, kv := range run {
			pr, blob, err := encodeValue(kv.keyID, kv.val)
			if err != nil {
				return fail(err)
			}
			if blob != nil {
				for len(keyBlobs) <= kv.keyID {
					keyBlobs = append(keyBlobs, nil)
				}
				pr.a = uint64(len(keyBlobs[kv.keyID]))
				keyBlobs[kv.keyID] = append(keyBlobs[kv.keyID], blob...)
			}
			buf := pr.encode()
			props = append(props, buf[:]...)
		}

		outStart := oi
		for oi < nE && recs[perm[oi]].src == v {
			oi++
		}
		inStart := ii
		for ii < nE && recs[perm[inOrder[ii]]].dst == v {
			ii++
		}
		rec.outDeg = uint32(oi - outStart)
		rec.inDeg = uint32(ii - inStart)
		rec.firstOutEID = uint64(outStart)
		// The adjacency block: merge the two type-grouped runs into one
		// ascending-type directory, each entry's segments appended in
		// directory order.
		dir, segs = dir[:0], segs[:0]
		o, i := outStart, inStart
		for o < oi || i < ii {
			var t uint32
			switch {
			case o >= oi:
				t = recs[perm[inOrder[i]]].typeID
			case i >= ii:
				t = recs[perm[o]].typeID
			default:
				t = min(recs[perm[o]].typeID, recs[perm[inOrder[i]]].typeID)
			}
			d := dirEntry{typeID: t}
			start := len(segs)
			var prev int64
			for first := o; o < oi && recs[perm[o]].typeID == t; o++ {
				dst := recs[perm[o]].dst
				segs = appendOutSeg(segs, dst, prev, o == first)
				prev = dst
				d.outDeg++
			}
			d.outLen = uint32(len(segs) - start)
			start = len(segs)
			var prevSrc, prevEid int64
			for first := i; i < ii && recs[perm[inOrder[i]]].typeID == t; i++ {
				src, eid := recs[perm[inOrder[i]]].src, int64(inOrder[i])
				segs = appendInSeg(segs, src, prevSrc, eid, prevEid, i == first)
				prevSrc, prevEid = src, eid
				d.inDeg++
			}
			d.inLen = uint32(len(segs) - start)
			dir = d.appendTo(dir)
			rec.nTypes++
		}
		if uint64(len(dir)+len(segs)) > math.MaxUint32 {
			return fail(fmt.Errorf("vertex %d's %d-byte adjacency block exceeds the record's 32-bit length", v, len(dir)+len(segs)))
		}
		rec.blockOff, rec.blockLen = uint64(cursor), uint32(len(dir)+len(segs))
		out[fileEdges].Write(dir)
		out[fileEdges].Write(segs)
		cursor += int64(rec.blockLen)
		recBuf = rec.encode()
		out[fileVertices].Write(recBuf[:])
	}
	groupOff := make([]uint64, len(keyBlobs))
	var blobSize int64
	for k, b := range keyBlobs {
		groupOff[k] = uint64(blobSize)
		out[fileBlobs].Write(b)
		blobSize += int64(len(b))
	}
	for at := 0; at < len(props); at += propRecSize {
		if kind := graph.Kind(props[at+3]); kind == graph.KindString || kind == graph.KindList {
			a := props[at+4 : at+12]
			binary.LittleEndian.PutUint64(a, binary.LittleEndian.Uint64(a)+groupOff[runKey(props[at:], 0)])
		}
	}
	out[fileProps].Write(props)
	for _, w := range out {
		if err := w.Flush(); err != nil {
			return fail(err)
		}
	}
	pg, err := newPager(files, s.opts.PageSize, s.opts.CachePages, &s.pagerStats)
	if err != nil {
		return fail(err)
	}
	ep := &epoch{
		gen: gen, edgeBytes: cursor, pager: pg,
		numVertices: nV, numEdges: int64(nE), numProps: int64(len(props) / propRecSize),
		blobSize:   blobSize,
		byLabel:    byLabel,
		values:     values.Finish(),
		typeCounts: typeCounts, statsValid: true,
	}
	ep.pins.Store(1) // the store's own reference, once it is installed
	return ep, nil
}

// groupEdges is a counting sort of the positions 0..n-1 by the vertex
// key names: it returns them grouped by ascending vertex, ascending
// within a group.
func groupEdges(n int, nV int64, key func(int) int64) []int32 {
	start := make([]int, nV+1)
	for k := range n {
		start[key(k)+1]++
	}
	for v := int64(1); v <= nV; v++ {
		start[v] += start[v-1]
	}
	out := make([]int32, n)
	for k := range n {
		v := key(k)
		out[start[v]] = int32(k)
		start[v]++
	}
	return out
}

// mergeRun applies a vertex's overrides to its property run, reusing
// run's array: the values in over replace their keys' in place, the keys
// only over has are added, and the run, sorted by key ID as stored, is
// sorted again for the added keys.
func mergeRun(run []keyVal, over map[int]graph.Value) []keyVal {
	for i := range run {
		if val, ok := over[run[i].keyID]; ok {
			run[i].val = val
		}
	}
	for keyID, val := range over {
		if !slices.ContainsFunc(run, func(kv keyVal) bool { return kv.keyID == keyID }) {
			run = append(run, keyVal{keyID: keyID, val: val})
		}
	}
	slices.SortFunc(run, func(a, b keyVal) int { return a.keyID - b.keyID })
	return run
}
