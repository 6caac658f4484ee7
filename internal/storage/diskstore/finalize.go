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
// writeGeneration builds everything derived — segments, degree records
// with their descriptors, untyped degree counters, property runs,
// statistics — in one sorted pass over the current base and a frozen
// delta (the live delta's fold prefix, or the load set). It writes
// generation N+1 beside generation N and commit makes it current with one
// manifest rename, so no file a committed manifest names is ever
// rewritten. It is also the conversion step for legacy stores (Upgrade),
// because it never trusts any derived structure: only the src/dst/type
// triples of the edges, and each vertex's labels and property chain.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/storage"
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

// writeGeneration is the finalize sort pass. It reads its two inputs
// directly — the epoch from (through forEachEdgeLite, which also reads a
// legacy epoch's edge records) and the frozen delta fd on top of it — and
// streams generation gen into the store directory as five fresh files. It
// never writes a file it reads.
//
// Vertices keep their IDs: from's, then fd's in VID order. A vertex's
// labels are its record bits plus fd's additions; its properties are its
// base chain with fd's overrides replacing values in place, then the
// override-only keys in key-ID order (a delta vertex has only those), and
// they are written as one contiguous run of property records; blobs.db
// holds their blobs grouped by key. The edges, from's then fd's in EID
// order, are sorted by (source vertex, edge type, destination), which
// assigns the new edge IDs; the pass writes one gap-encoded out segment
// and one in segment per (vertex, type), rebuilds every vertex's degree
// counters and per-type degree records (doubling as segment descriptors),
// and accumulates the statistics block. Afterwards a typed ForEach seeks
// straight to its type's segment and never reads another type's bytes.
// numTypes is the size of the type table the edges' type IDs index.
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
	// Each file grows strictly in order — vertex, property and degree
	// records by ID, blobs and segments at a running cursor — so it is
	// streamed rather than cached. A bufio.Writer's error is sticky: the
	// Flush below reports any failed Write.
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

	// Per-vertex: labels, the property run, untyped degree counters and
	// the ascending-type degree chain of segment descriptors. The same
	// pass emits the delta-varint segments at a running cursor and
	// accumulates the statistics block: per-edge-type counts and
	// per-(label, key) bloom hashes over every property value.
	oi, ii := 0, 0
	var degs []degRec
	var cursor, numDegs int64
	var segBuf []byte
	var run []keyVal
	// The property records wait for the end of the pass because blobs.db
	// is grouped by key: one property's values across vertices lie
	// together, as a scan that reads that property wants them (and as the
	// loader's property phases leave them). Until every group's size is
	// known, a record's blob offset is relative to its key's group.
	var props []propRec
	var keyBlobs [][]byte
	byLabel := make(map[int][]storage.VID)
	hashAcc := make(map[uint64][]uint64)
	typeCounts := make([]int64, numTypes)
	for i := range recs {
		typeCounts[recs[i].typeID]++
	}
	for v := int64(0); v < nV; v++ {
		s.foldProgress.Store(v * 1000 / nV)
		rec := vertexRec{inUse: true}
		var firstProp int64
		var labelAdds []int
		var over map[int]graph.Value
		if v < from.numVertices {
			base, err := from.readVertex(storage.VID(v))
			if err != nil {
				return fail(err)
			}
			rec.labels, firstProp = base.labels, base.firstProp
			labelAdds, over = fd.labelAdds[storage.VID(v)], fd.propOver[storage.VID(v)]
		} else {
			fv := &fd.verts[v-from.numVertices]
			labelAdds, over = fv.labelIDs, fv.props
		}
		for _, id := range labelAdds {
			rec.labels[id/64] |= 1 << uint(id%64)
		}
		labelIDs := labelBitsToIDs(rec.labels)
		for _, id := range labelIDs {
			byLabel[id] = append(byLabel[id], storage.VID(v))
		}

		var err error
		if run, err = from.propRun(run, firstProp, over); err != nil {
			return fail(err)
		}
		if len(run) > 0 {
			rec.firstProp = int64(len(props)) + 1
		}
		for j, kv := range run {
			pr := propRec{inUse: true, keyID: uint32(kv.keyID)}
			var blob []byte
			if pr.kind, pr.a, pr.b, blob, err = encodeValue(kv.val); err != nil {
				return fail(err)
			}
			if blob != nil {
				for len(keyBlobs) <= kv.keyID {
					keyBlobs = append(keyBlobs, nil)
				}
				pr.a = uint64(len(keyBlobs[kv.keyID]))
				keyBlobs[kv.keyID] = append(keyBlobs[kv.keyID], blob...)
			}
			if j+1 < len(run) {
				pr.next = int64(len(props)) + 2
			}
			props = append(props, pr)
			// Statistics: hash every property value once, bucketed by each
			// label the vertex carries. Filters are sized after the pass,
			// when per-bucket cardinalities are known.
			if len(labelIDs) > 0 {
				h := hashValue(kv.val)
				for _, lid := range labelIDs {
					k := bloomKey(lid, kv.keyID)
					hashAcc[k] = append(hashAcc[k], h)
				}
			}
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
		// The adjacency heads stay zero: no edge records exist for them to
		// point at, and a finalized vertex reaches its edges only through
		// the degree chain's segment descriptors. Merge the two
		// type-grouped runs into one ascending-type chain.
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
				out[fileEdges].Write(segBuf)
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
				out[fileEdges].Write(segBuf)
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
				out[fileDegrees].Write(buf[:])
			}
			numDegs += int64(len(degs))
		}
		buf := rec.encode()
		out[fileVertices].Write(buf[:])
	}
	groupOff := make([]uint64, len(keyBlobs))
	var blobSize int64
	for k, b := range keyBlobs {
		groupOff[k] = uint64(blobSize)
		out[fileBlobs].Write(b)
		blobSize += int64(len(b))
	}
	for _, pr := range props {
		if pr.kind == graph.KindString || pr.kind == graph.KindList {
			pr.a += groupOff[pr.keyID]
		}
		buf := pr.encode()
		out[fileProps].Write(buf[:])
	}
	for _, w := range out {
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
		gen: gen, edgeBytes: cursor, pager: pg,
		numVertices: nV, numEdges: int64(nE), numProps: int64(len(props)),
		numDegs: numDegs, blobSize: blobSize,
		byLabel:    byLabel,
		typeCounts: typeCounts, blooms: blooms, statsValid: true,
	}
	ep.pins.Store(1) // the store's own reference, once it is installed
	return ep, nil
}

// propRun returns a vertex's properties in the order a new generation
// stores them, reusing run's array: the chain from firstProp (0 = none)
// with the values in over replacing their keys' in place, then the keys
// only over has, in key-ID order.
func (ep *epoch) propRun(run []keyVal, firstProp int64, over map[int]graph.Value) ([]keyVal, error) {
	run = run[:0]
	for p := firstProp; p != 0; {
		pr, err := ep.readProp(p - 1)
		if err != nil {
			return nil, err
		}
		p = pr.next
		val, ok := over[int(pr.keyID)]
		if !ok {
			if val, err = ep.decodeValue(pr); err != nil {
				return nil, err
			}
		}
		run = append(run, keyVal{keyID: int(pr.keyID), val: val})
	}
	extra := len(run)
	for keyID, val := range over {
		if !slices.ContainsFunc(run[:extra], func(kv keyVal) bool { return kv.keyID == keyID }) {
			run = append(run, keyVal{keyID: keyID, val: val})
		}
	}
	slices.SortFunc(run[extra:], func(a, b keyVal) int { return a.keyID - b.keyID })
	return run, nil
}
