package diskstore

// The bulk-build write path (storage.BatchBuilder) and Finalize, the one
// way a store gets a new base generation.
//
// Bulk ingestion defers all adjacency work: AddVertexBatch writes bare
// vertex records, AddEdgeBatch appends bare edge records with no chain
// links, and the finalize sort pass builds everything derived — segments,
// degree records with their descriptors, untyped degree counters,
// statistics — in one sorted pass. The pass writes generation N+1 beside
// generation N and commit makes it current with one manifest rename, so
// no file a committed manifest names is ever rewritten by it. It is also
// the conversion step for legacy stores (Upgrade), because it never
// trusts any derived structure: only the src/dst/type triples of the
// edges.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/storage"
)

// AddVertexBatch creates the batch's vertices with consecutive VIDs
// starting at the returned ID. Labels are set directly in the fresh
// record — one record write per vertex instead of AddVertex's write plus
// one read-modify-write per label.
func (s *Store) AddVertexBatch(batch []storage.BulkVertex) (storage.VID, error) {
	if s.liveMode.Load() {
		if len(batch) == 0 {
			return storage.VID(s.NumVertices()), nil
		}
		muts := make([]storage.Mutation, len(batch))
		for i, bv := range batch {
			muts[i] = storage.Mutation{Op: storage.MutAddVertex, Labels: bv.Labels}
		}
		res, err := s.ApplyMutations(muts)
		if err != nil {
			return 0, err
		}
		return res.Vertices[0], nil
	}
	if err := s.markDirty(); err != nil {
		return 0, err
	}
	ep := s.cur
	first := storage.VID(ep.numVertices)
	for _, bv := range batch {
		v := storage.VID(ep.numVertices)
		ep.numVertices++
		rec := vertexRec{inUse: true}
		for _, l := range bv.Labels {
			id, _, err := s.labelID(l, true)
			if err != nil {
				return 0, err
			}
			w, b := id/64, uint(id%64)
			if rec.labels[w]&(1<<b) == 0 {
				rec.labels[w] |= 1 << b
				ep.byLabel[id] = append(ep.byLabel[id], v)
			}
		}
		if err := ep.writeVertex(v, rec); err != nil {
			return 0, err
		}
	}
	return first, nil
}

// AddEdgeBatch appends bare edge records — src, dst, type, no chain
// links. The edges are invisible to traversals until Finalize links them;
// Flush runs Finalize automatically if the caller has not. The
// pending-finalize state is set before the first record goes out, so even
// a mid-batch failure leaves a store whose next Flush links whatever was
// appended.
func (s *Store) AddEdgeBatch(batch []storage.BulkEdge) error {
	if s.liveMode.Load() {
		muts := make([]storage.Mutation, len(batch))
		for i, be := range batch {
			muts[i] = storage.Mutation{Op: storage.MutAddEdge, Src: be.Src, Dst: be.Dst, Type: be.Type}
		}
		_, err := s.ApplyMutations(muts)
		return err
	}
	if err := s.markDirty(); err != nil {
		return err
	}
	ep := s.cur
	ep.compressed = false // bare records follow; see AddEdge
	s.needFinalize = true
	for _, be := range batch {
		if err := s.check(be.Src); err != nil {
			return err
		}
		if err := s.check(be.Dst); err != nil {
			return err
		}
		typeID, ok := s.typeIDs[be.Type]
		if !ok {
			typeID = len(s.types)
			s.types = append(s.types, be.Type)
			s.typeIDs[be.Type] = typeID
		}
		e := storage.EID(ep.numEdges)
		ep.numEdges++
		if err := ep.writeEdge(e, edgeRec{
			inUse: true, typeID: uint32(typeID),
			src: int64(be.Src), dst: int64(be.Dst),
		}); err != nil {
			return err
		}
	}
	return nil
}

// edgeLite is the in-memory shape of one edge during Finalize.
type edgeLite struct {
	src, dst int64
	typeID   uint32
}

// Finalize completes deferred bulk construction and (re)establishes the
// finalized physical layout in a new base generation, which it commits
// before returning: a crash at any instant leaves either the previous
// commit or the new generation, complete. Edge IDs are renumbered; EIDs
// observed before Finalize are invalid after it (the
// storage.BatchBuilder contract).
//
// On a live store Finalize is the background fold (see compact.go), run
// to completion while readers and writers keep going. On a store in build
// mode — a bulk load, Upgrade — it is the sort pass of writeGeneration,
// and it needs exclusive access; a finalized build-mode store with
// nothing written since writes nothing. Either way Finalize is
// single-flight with Compact: a concurrent call returns
// storage.ErrCompactInProgress.
func (s *Store) Finalize() error {
	if !s.folding.CompareAndSwap(false, true) {
		return storage.ErrCompactInProgress
	}
	defer func() {
		s.foldProgress.Store(0)
		s.folding.Store(false)
	}()
	if s.liveMode.Load() {
		return s.foldBackground()
	}
	old := s.cur
	if old.compressed && !s.dirty {
		return nil
	}
	ep, err := s.writeGeneration(old, old.gen+1, len(s.types))
	if err != nil {
		return err
	}
	if err := s.commit(ep, s.labels, s.types, s.keys, s.walFoldedSeq); err != nil {
		s.discard(ep)
		return err
	}
	if s.opts.Mmap {
		ep.pager.enableMmap(fileVertices, fileEdges)
	}
	s.epMu.Lock()
	s.cur = ep
	s.epMu.Unlock()
	s.generation.Store(ep.gen)
	s.discard(old) // build mode pins no epoch: the superseded one goes at once
	s.needFinalize, s.dirty, s.indexCurrent = false, false, true
	// A finalized store with at least one vertex and one edge accepts
	// durable live mutations (see live.go). Empty or vertex-only stores
	// stay in build mode: they are still being constructed and their
	// cheap base mutations need no WAL.
	if ep.numVertices > 0 && ep.numEdges > 0 {
		s.delta = newDelta(ep.numVertices, ep.numEdges)
		s.delta.appliedSeq.Store(s.walFoldedSeq)
		ep.setLabelBits()
		s.liveMode.Store(true)
	}
	return nil
}

// writeGeneration is the finalize sort pass. It reads the records of the
// epoch from — build-mode edge records and finalized segments alike,
// through forEachEdgeLite — and writes generation gen into the store
// directory: fresh vertices, edges and degrees files, plus hard links to
// the props and blobs files of from, which the pass does not rewrite.
// Beyond writing back the build-mode pages still dirty in the cache of
// from, it never writes a file it reads.
//
// It sorts the edges by (source vertex, edge type, destination), which
// assigns the new edge IDs, writes one gap-encoded out segment and one in
// segment per (vertex, type), rebuilds every vertex's degree counters and
// per-type degree records (doubling as segment descriptors), and
// accumulates the statistics block. Afterwards a typed ForEach seeks
// straight to its type's segment and never reads another type's bytes.
// numTypes is the size of the type table the edges' type IDs index.
//
// The returned epoch is open, with a cold cache, but neither durable nor
// named by the manifest until commit; on error its files are already
// gone.
func (s *Store) writeGeneration(from *epoch, gen int64, numTypes int) (*epoch, error) {
	// The links must carry every byte of from.
	if err := from.pager.flush(); err != nil {
		return nil, err
	}
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
	for i, name := range baseFileNames {
		path := filepath.Join(s.dir, genFileName(name, gen))
		flag := os.O_RDWR | os.O_CREATE | os.O_TRUNC
		if id := fileID(i); id == fileProps || id == fileBlobs {
			os.Remove(path) // a failed attempt's leftover would make Link fail
			if err := os.Link(from.pager.files[i].Name(), path); err != nil {
				return fail(err)
			}
			flag = os.O_RDWR
		}
		f, err := os.OpenFile(path, flag, 0o644)
		if err != nil {
			return fail(err)
		}
		files[i] = f
	}
	// Each file the pass writes grows strictly in order — vertex records
	// by VID, segments at a running cursor, degree records by ID — so it
	// is streamed rather than cached. A bufio.Writer's error is sticky:
	// the Flush below reports any failed Write.
	vout := bufio.NewWriter(files[fileVertices])
	eout := bufio.NewWriter(files[fileEdges])
	dout := bufio.NewWriter(files[fileDegrees])

	recs := make([]edgeLite, 0, int(from.numEdges))
	if err := from.forEachEdgeLite(func(el edgeLite) error {
		recs = append(recs, el)
		return nil
	}); err != nil {
		return fail(err)
	}
	if int64(len(recs)) != from.numEdges {
		return fail(fmt.Errorf("gathered %d edges, expected %d", len(recs), from.numEdges))
	}
	nE := len(recs)

	// New edge order, clustered by (src, type, dst): the new ID of edge
	// perm[k] is k, so each out segment's EIDs are contiguous and its dst
	// list sorted, as gap encoding requires.
	perm := make([]int, nE)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(i, j int) bool {
		a, b := &recs[perm[i]], &recs[perm[j]]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.typeID != b.typeID {
			return a.typeID < b.typeID
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return perm[i] < perm[j] // stable: keep ingest order among parallel edges
	})
	newID := make([]int, nE)
	for k, old := range perm {
		newID[old] = k
	}

	// In segments are grouped by (dst, type), in ascending new ID within a
	// segment.
	inOrder := make([]int, nE)
	for i := range inOrder {
		inOrder[i] = i
	}
	sort.Slice(inOrder, func(i, j int) bool {
		a, b := &recs[inOrder[i]], &recs[inOrder[j]]
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		if a.typeID != b.typeID {
			return a.typeID < b.typeID
		}
		return newID[inOrder[i]] < newID[inOrder[j]]
	})

	// Per-vertex: untyped degree counters and the ascending-type degree
	// chain of segment descriptors. The same pass emits the delta-varint
	// segments at a running cursor and accumulates the statistics block:
	// per-edge-type counts and per-(label, key) bloom hashes over every
	// property value.
	oi, ii := 0, 0
	var degs []degRec
	var cursor, numDegs int64
	var segBuf []byte
	hashAcc := make(map[uint64][]uint64)
	typeCounts := make([]int64, numTypes)
	for i := range recs {
		typeCounts[recs[i].typeID]++
	}
	for v := int64(0); v < from.numVertices; v++ {
		rec, err := from.readVertex(storage.VID(v))
		if err != nil {
			return fail(err)
		}
		outStart := oi
		for oi < nE && recs[perm[oi]].src == v {
			oi++
		}
		inStart := ii
		for ii < nE && recs[inOrder[ii]].dst == v {
			ii++
		}
		rec.outDeg = uint32(oi - outStart)
		rec.inDeg = uint32(ii - inStart)
		// No edge records exist for adjacency heads to point at: a
		// finalized vertex reaches its edges only through the degree
		// chain's segment descriptors.
		rec.firstOut, rec.firstIn, rec.firstDeg = 0, 0, 0
		// Merge the two type-grouped runs into one ascending-type chain.
		degs = degs[:0]
		o, i := outStart, inStart
		for o < oi || i < ii {
			var t uint32
			switch {
			case o >= oi:
				t = recs[inOrder[i]].typeID
			case i >= ii:
				t = recs[perm[o]].typeID
			default:
				t = min(recs[perm[o]].typeID, recs[inOrder[i]].typeID)
			}
			dr := degRec{inUse: true, typeID: t}
			if o < oi && recs[perm[o]].typeID == t {
				dr.firstOutEID = int64(o) + 1
				segBuf = segBuf[:0]
				first := o
				var prev int64
				for o < oi && recs[perm[o]].typeID == t {
					d := recs[perm[o]].dst
					segBuf = appendOutSeg(segBuf, d, prev, o == first)
					prev = d
					o++
					dr.outDeg++
				}
				dr.outOff = cursor + 1
				dr.outLen = uint32(len(segBuf))
				eout.Write(segBuf)
				cursor += int64(len(segBuf))
			}
			if i < ii && recs[inOrder[i]].typeID == t {
				segBuf = segBuf[:0]
				first := i
				var prevSrc, prevEid int64
				for i < ii && recs[inOrder[i]].typeID == t {
					src := recs[inOrder[i]].src
					eid := int64(newID[inOrder[i]])
					segBuf = appendInSeg(segBuf, src, prevSrc, eid, prevEid, i == first)
					prevSrc, prevEid = src, eid
					i++
					dr.inDeg++
				}
				dr.inOff = cursor + 1
				dr.inLen = uint32(len(segBuf))
				eout.Write(segBuf)
				cursor += int64(len(segBuf))
			}
			degs = append(degs, dr)
		}
		if len(degs) > 0 {
			rec.firstDeg = numDegs + 1
			for j := range degs {
				if j+1 < len(degs) {
					degs[j].next = numDegs + int64(j) + 2
				}
				buf := degs[j].encode()
				dout.Write(buf[:])
			}
			numDegs += int64(len(degs))
		}
		// Statistics: hash every property value once, bucketed by each
		// label the vertex carries. Filters are sized after the pass,
		// when per-bucket cardinalities are known.
		if labelIDs := labelBitsToIDs(rec.labels); len(labelIDs) > 0 {
			for p := rec.firstProp; p != 0; {
				pr, err := from.readProp(p - 1)
				if err != nil {
					return fail(err)
				}
				p = pr.next
				val, err := from.decodeValue(pr)
				if err != nil {
					return fail(err)
				}
				h := hashValue(val)
				for _, lid := range labelIDs {
					k := bloomKey(lid, int(pr.keyID))
					hashAcc[k] = append(hashAcc[k], h)
				}
			}
		}
		buf := rec.encode()
		vout.Write(buf[:])
	}
	for _, w := range []*bufio.Writer{vout, eout, dout} {
		if err := w.Flush(); err != nil {
			return fail(err)
		}
	}
	pg, err := newPager(files, s.opts.PageSize, s.opts.CachePages, &s.pagerStats)
	if err != nil {
		return fail(err)
	}
	blooms := make(map[uint64]*bloom, len(hashAcc))
	for k, hs := range hashAcc {
		b := newBloom(len(hs))
		for _, h := range hs {
			b.add(h)
		}
		blooms[k] = b
	}
	ep := &epoch{
		gen: gen, compressed: true, edgeBytes: cursor, pager: pg,
		numVertices: from.numVertices, numEdges: int64(nE), numProps: from.numProps,
		numDegs: numDegs, blobSize: from.blobSize,
		byLabel:    from.byLabel,
		typeCounts: typeCounts, blooms: blooms, statsValid: true,
		baseSeq: from.baseSeq,
	}
	ep.pins.Store(1) // the store's own reference, once it is installed
	return ep, nil
}
