package diskstore

// The bulk-build write path (storage.BatchBuilder) and the finalize /
// compact step that turns build-mode edge records into type-segmented
// delta-varint adjacency.
//
// Bulk ingestion defers all adjacency work: AddVertexBatch writes bare
// vertex records, AddEdgeBatch appends bare edge records with no chain
// links, and Finalize builds everything derived — segments, degree
// records with their descriptors, untyped degree counters, statistics —
// in one sorted pass. The same pass is the conversion step for legacy
// stores (Upgrade), because it never trusts any derived structure: only
// the src/dst/type triples in edges.db.

import (
	"fmt"
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
// finalized physical layout. It sorts the edges by (source vertex, edge
// type, destination) — which assigns the new edge IDs — and rewrites
// edges.db as one gap-encoded out segment and one in segment per (vertex,
// type), rebuilds every vertex's degree counters and per-type degree
// records (doubling as segment descriptors), and accumulates the
// statistics block. Afterwards a typed ForEach seeks straight to its
// type's segment and never reads another type's bytes.
//
// Because Finalize rebuilds all derived structures from the base
// src/dst/type records, it also serves as the conversion step for legacy
// stores (see Upgrade) and as the repair step after incremental AddEdge
// calls left adjacency in build mode. Edge IDs are renumbered by the
// sort; EIDs observed before Finalize are invalid after it (the
// storage.BatchBuilder contract).
func (s *Store) Finalize() error {
	// Live state is folded into the base below; base writers are used for
	// the fold, so live routing is switched off for the duration.
	// Finalize requires exclusive access (no concurrent readers or
	// writers) — it rewrites edges.db in place.
	wasLive := s.liveMode.Load()
	s.liveMode.Store(false)
	ep := s.cur
	if err := s.markDirty(); err != nil {
		return err
	}
	// The fold and the rewrite below mutate base records in place, and
	// cache eviction may push any subset of the new pages to disk at any
	// moment — a crash leaves files in a mixed old/new state that the
	// (unchanged) manifest still validates. The marker file turns that
	// silent corruption into a detected one: it is created before the
	// first mutated page can reach disk and removed only by the next
	// successful Flush, so Open refuses a store whose finalize never
	// committed (see ErrFinalizeInterrupted).
	if err := s.placeFinalizeMarker(); err != nil {
		return err
	}
	var extra []edgeLite
	if wasLive {
		var err error
		if extra, err = s.foldDelta(); err != nil {
			return err
		}
	}
	// Gather base edges through the layout-aware enumerator: build-mode
	// records are read as such, an already-finalized base is decoded from
	// its segments. Delta edges ride along after the base so the stable
	// sort preserves ingest order.
	recs := make([]edgeLite, 0, int(ep.numEdges)+len(extra))
	if err := ep.forEachEdgeLite(func(el edgeLite) error {
		recs = append(recs, el)
		return nil
	}); err != nil {
		return fmt.Errorf("diskstore: finalize: %w", err)
	}
	if int64(len(recs)) != ep.numEdges {
		return fmt.Errorf("diskstore: finalize: gathered %d base edges, expected %d", len(recs), ep.numEdges)
	}
	recs = append(recs, extra...)
	nE := len(recs)
	ep.numEdges = int64(nE)
	// Everything below writes segments; the old bytes in edges.db are
	// dead once the gather above is done.
	ep.compressed = true

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
	// chain of segment descriptors; degrees.db is rewritten from scratch.
	// The same pass emits the delta-varint segments at a running cursor
	// and accumulates the statistics block: per-edge-type counts and
	// per-(label, key) bloom hashes over every property value.
	ep.numDegs = 0
	oi, ii := 0, 0
	var degs []degRec
	var cursor int64
	var segBuf []byte
	hashAcc := make(map[uint64][]uint64)
	typeCounts := make([]int64, len(s.types))
	for i := range recs {
		typeCounts[recs[i].typeID]++
	}
	for v := int64(0); v < ep.numVertices; v++ {
		rec, err := ep.readVertex(storage.VID(v))
		if err != nil {
			return err
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
		// No edge records remain for adjacency heads to point at: a
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
				if err := ep.pager.write(fileEdges, cursor, segBuf); err != nil {
					return err
				}
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
				if err := ep.pager.write(fileEdges, cursor, segBuf); err != nil {
					return err
				}
				cursor += int64(len(segBuf))
			}
			degs = append(degs, dr)
		}
		if len(degs) > 0 {
			base := ep.numDegs
			rec.firstDeg = base + 1
			for j := range degs {
				if j+1 < len(degs) {
					degs[j].next = base + int64(j) + 2
				}
				if err := ep.writeDeg(base+int64(j), degs[j]); err != nil {
					return err
				}
			}
			ep.numDegs += int64(len(degs))
		}
		// Statistics: hash every property value once, bucketed by each
		// label the vertex carries. Filters are sized after the pass,
		// when per-bucket cardinalities are known.
		if labelIDs := labelBitsToIDs(rec.labels); len(labelIDs) > 0 {
			for p := rec.firstProp; p != 0; {
				pr, err := ep.readProp(p - 1)
				if err != nil {
					return err
				}
				p = pr.next
				val, err := ep.decodeValue(pr)
				if err != nil {
					return err
				}
				h := hashValue(val)
				for _, lid := range labelIDs {
					k := bloomKey(lid, int(pr.keyID))
					hashAcc[k] = append(hashAcc[k], h)
				}
			}
		}
		if err := ep.writeVertex(storage.VID(v), rec); err != nil {
			return err
		}
	}
	// Segments are strictly smaller than the records they replace (<= 27
	// bytes/edge worst case vs 64), so the tail past the cursor is dead —
	// reclaim it.
	ep.edgeBytes = cursor
	if err := ep.pager.truncate(fileEdges, cursor); err != nil {
		return err
	}
	blooms := make(map[uint64]*bloom, len(hashAcc))
	for k, hs := range hashAcc {
		b := newBloom(len(hs))
		for _, h := range hs {
			b.add(h)
		}
		blooms[k] = b
	}
	ep.typeCounts = typeCounts
	ep.blooms = blooms
	ep.statsValid = true
	s.needFinalize = false
	// A finalized store with at least one vertex and one edge accepts
	// durable live mutations (see live.go). Empty or vertex-only stores
	// stay in build mode: they are still being constructed and their
	// cheap base mutations need no WAL. The delta restarts at the new
	// base boundaries either way.
	if ep.numVertices > 0 && ep.numEdges > 0 {
		s.delta = newDelta(ep.numVertices, ep.numEdges)
		s.delta.appliedSeq.Store(s.walFoldedSeq)
		ep.setLabelBits() // foldDelta may have grown byLabel under the old one
		s.liveMode.Store(true)
	}
	return nil
}

// foldDelta appends the delta segment's visible vertex/label/property
// state to the base files so the rebuild that follows links it, and
// returns the delta's edges in ingest order for the caller to merge into
// its gather (Finalize renumbers and writes them — appending records
// here would corrupt a compressed base, whose edges.db holds segments,
// not records). It consumes a frozen copy of the delta (freeze with an
// unbounded watermark — the caller has exclusive access, so everything
// is visible): delta vertices keep their VIDs (the delta numbered them
// past the base, so appending in VID order reproduces the live IDs).
// Once the fold is in the base, the WAL records it absorbed are dead
// weight: walFoldedSeq advances to fence them out of replay, and the
// next Flush — the manifest commit that makes the fold durable —
// truncates the log (pendingCheckpoint). The caller has switched live
// routing off and placed the finalize marker, so every write here uses
// the base build path and a crash mid-fold is detected at next Open;
// the caller's tail also restarts the delta at the new base boundaries.
func (s *Store) foldDelta() ([]edgeLite, error) {
	ep := s.cur
	w := vis{baseVerts: ep.numVertices, baseEdges: ep.numEdges, baseSeq: ep.baseSeq, maxSeq: ^uint64(0)}
	fd := s.delta.freeze(w)
	for i := range fd.verts {
		fv := &fd.verts[i]
		v := storage.VID(ep.numVertices)
		ep.numVertices++
		rec := vertexRec{inUse: true}
		for _, id := range fv.labelIDs {
			w, b := id/64, uint(id%64)
			if rec.labels[w]&(1<<b) == 0 {
				rec.labels[w] |= 1 << b
				ep.byLabel[id] = append(ep.byLabel[id], v)
			}
		}
		if err := ep.writeVertex(v, rec); err != nil {
			return nil, err
		}
	}
	// Label additions on base vertices (delta-vertex labels were folded
	// into their fresh records above). The delta deduplicated against
	// base bits at apply time, but re-checking here keeps byLabel clean
	// even if the same label was added twice across batches.
	for v, ids := range fd.labelAdds {
		rec, err := ep.readVertex(v)
		if err != nil {
			return nil, err
		}
		changed := false
		for _, id := range ids {
			w, b := id/64, uint(id%64)
			if rec.labels[w]&(1<<b) == 0 {
				rec.labels[w] |= 1 << b
				ep.byLabel[id] = append(ep.byLabel[id], v)
				changed = true
			}
		}
		if changed {
			if err := ep.writeVertex(v, rec); err != nil {
				return nil, err
			}
		}
	}
	// Delta edges in EID order, handed back rather than written: ingest
	// order is preserved for the stable sort, and the caller's rebuild
	// assigns their final IDs and bytes.
	extra := make([]edgeLite, len(fd.edges))
	for i, fe := range fd.edges {
		extra[i] = edgeLite{src: int64(fe.src), dst: int64(fe.dst), typeID: fe.typeID}
	}
	// Properties last, once every vertex they touch has a base record:
	// delta-vertex values and base-vertex overrides both go through the
	// base prop chain.
	for i := range fd.verts {
		fv := &fd.verts[i]
		for keyID, val := range fv.props {
			if err := s.SetProp(fv.v, s.keys[keyID], val); err != nil {
				return nil, err
			}
		}
	}
	for v, m := range fd.propOver {
		for keyID, val := range m {
			if err := s.SetProp(v, s.keys[keyID], val); err != nil {
				return nil, err
			}
		}
	}
	if w := s.wal.Load(); w != nil {
		s.walFoldedSeq = w.lastAppended()
		s.pendingCheckpoint = true
	}
	// The base now holds everything up to the fence.
	ep.baseSeq = s.walFoldedSeq
	return extra, nil
}
