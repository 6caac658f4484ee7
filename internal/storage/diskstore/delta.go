package diskstore

// The in-memory delta segment: where live mutations live between WAL
// append and the next Compact. The base files stay frozen — index.db
// stays valid, and base edges keep their segments — while the read paths
// merge the delta on top:
//
//   - vertices: delta VIDs continue the base range (base+i), so VID
//     arithmetic distinguishes the two without lookups;
//   - edges: delta EIDs continue the base range; traversal yields base
//     edges first (segment fast path intact), then the vertex's delta
//     adjacency in ingest order;
//   - labels: a base vertex's labels are its record bits plus delta
//     additions; label scans walk the base index then the delta's;
//   - properties: delta values override base values key by key.
//
// Since background compaction, every delta entry carries the WAL
// sequence number of the batch that produced it, and reads are filtered
// through a visibility window (vis): an entry is visible to an epoch iff
// baseSeq < seq <= maxSeq. A background fold absorbs the prefix with
// seq <= W into a new base generation; entries in that prefix become
// invisible to the new epoch (their data now lives in the base files)
// while snapshots pinned on the old epoch keep reading them. The folded
// prefix is pruned once the last old-epoch pin drains.
//
// Delta VIDs and EIDs are stable across folds: the delta keeps the
// vertex/edge counts it was born with (origVerts/origEdges) and numbers
// entries by global ordinal, which exactly matches the IDs the fold
// assigns when it appends the frozen prefix to the base.
//
// Readers never hold the delta lock while running user callbacks or
// touching the pager: accessors copy the (small) relevant slice under
// RLock and iterate after release, which keeps a queued writer from
// deadlocking a reader that re-enters the delta mid-iteration.

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/storage"
)

// vis is a visibility window over the delta: the reader's base epoch
// boundaries plus the sequence range of delta entries it may observe.
// Current-epoch reads use maxSeq = ^uint64(0); snapshots freeze maxSeq
// at their acquire-time watermark.
type vis struct {
	baseVerts int64  // epoch's base vertex count
	baseEdges int64  // epoch's base edge count
	baseSeq   uint64 // WAL seq folded into the epoch's base files
	maxSeq    uint64 // highest visible seq (snapshot watermark)
}

func (w vis) sees(seq uint64) bool { return seq > w.baseSeq && seq <= w.maxSeq }

// labelAdd is one label membership with the seq that created it.
type labelAdd struct {
	id  int
	seq uint64
}

// propVersion is one write of a property value. Version lists are
// append-only in seq order; a reader takes the newest version at or
// below its watermark.
type propVersion struct {
	seq uint64
	val graph.Value
}

// deltaVertex is a vertex created after finalize, identified by
// origVerts + global ordinal.
type deltaVertex struct {
	seq      uint64 // creation seq
	labelIDs []labelAdd
	props    map[int][]propVersion
}

// deltaEdge is one direction of a live edge in a vertex's delta
// adjacency.
type deltaEdge struct {
	e      storage.EID
	other  storage.VID
	typeID uint32
	seq    uint64
}

// vidSeq is one delta posting in a label's membership list.
type vidSeq struct {
	v   storage.VID
	seq uint64
}

// delta is the in-memory segment of live mutations. nextV/nextE shadow
// the global next-VID/EID atomically (they equal origVerts + vertsLo +
// len(verts), but never regress on prune) so hot read paths get the
// current epoch's visible totals without the lock: for the epoch the
// delta currently extends, visible vertices = nextV exactly — the base
// absorbed a prefix of the same numbering.
type delta struct {
	mu    sync.RWMutex
	nextV atomic.Int64
	nextE atomic.Int64

	// appliedSeq is the highest WAL seq whose batch is fully visible in
	// the delta. It is the snapshot watermark: acquiring a snapshot at
	// maxSeq = appliedSeq guarantees batch atomicity (a batch is either
	// entirely visible or entirely invisible).
	appliedSeq atomic.Uint64

	// origVerts/origEdges are the base counts when the delta was
	// created (at Open, or by a bulk load's Finalize). They never change
	// across background folds, which is what keeps delta VIDs/EIDs
	// stable.
	origVerts int64
	origEdges int64

	// vertsLo/edgesLo are the global ordinals of verts[0]/edgeSeqs[0];
	// pruning a folded prefix advances them.
	vertsLo int64
	edgesLo int64

	verts     []deltaVertex                         // seq-ordered
	edgeSeqs  []uint64                              // per-edge seq, EID order
	out       map[storage.VID][]deltaEdge           // seq-ordered per vertex
	in        map[storage.VID][]deltaEdge           // seq-ordered per vertex
	labelAdds map[storage.VID][]labelAdd            // labels added to base vertices
	propOver  map[storage.VID]map[int][]propVersion // property overrides on base vertices
	byLabel   map[int][]vidSeq                      // delta label membership (both vertex kinds)
}

func newDelta(baseVerts, baseEdges int64) *delta {
	d := &delta{
		origVerts: baseVerts,
		origEdges: baseEdges,
		out:       map[storage.VID][]deltaEdge{},
		in:        map[storage.VID][]deltaEdge{},
		labelAdds: map[storage.VID][]labelAdd{},
		propOver:  map[storage.VID]map[int][]propVersion{},
		byLabel:   map[int][]vidSeq{},
	}
	d.nextV.Store(baseVerts)
	d.nextE.Store(baseEdges)
	return d
}

// nextVID/nextEID are the IDs the next delta vertex/edge will get.
// Stable across folds and prunes: global ordinals continue counting.
func (d *delta) nextVID() int64 { return d.origVerts + d.vertsLo + int64(len(d.verts)) }
func (d *delta) nextEID() int64 { return d.origEdges + d.edgesLo + int64(len(d.edgeSeqs)) }

// statsDirty reports delta content that can invalidate the base's
// persisted vertex statistics (bloom filters): new vertices, label
// additions, or property overrides. Edge-only deltas stay clean — edges
// carry no vertex properties, so the filters remain definitive.
func (d *delta) statsDirty() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.verts) > 0 || len(d.labelAdds) > 0 || len(d.propOver) > 0
}

// counts returns the number of delta vertices/edges visible through w
// beyond its base — the "unfolded delta size" for that epoch.
func (d *delta) counts(w vis) (nv, ne int64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	nv = d.vertsLo + seqUpperBound(len(d.verts), w.maxSeq, func(i int) uint64 { return d.verts[i].seq })
	nv -= w.baseVerts - d.origVerts
	ne = d.edgesLo + seqUpperBound(len(d.edgeSeqs), w.maxSeq, func(i int) uint64 { return d.edgeSeqs[i] })
	ne -= w.baseEdges - d.origEdges
	return max(nv, 0), max(ne, 0)
}

// seqUpperBound returns the number of leading entries (out of n, read
// through seqAt, ascending) with seq <= maxSeq.
func seqUpperBound(n int, maxSeq uint64, seqAt func(int) uint64) int64 {
	return int64(sort.Search(n, func(i int) bool { return seqAt(i) > maxSeq }))
}

// vertIdx maps a VID to an index into d.verts, or -1 if the VID is out
// of range or pruned. Callers must hold d.mu.
func (d *delta) vertIdxLocked(v storage.VID) int64 {
	idx := int64(v) - d.origVerts - d.vertsLo
	if idx < 0 || idx >= int64(len(d.verts)) {
		return -1
	}
	return idx
}

// adj returns a copy of v's delta adjacency visible through w in one
// direction.
func (d *delta) adj(v storage.VID, out bool, w vis) []deltaEdge {
	m := d.out
	if !out {
		m = d.in
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	es := m[v]
	if len(es) == 0 {
		return nil
	}
	var cp []deltaEdge
	for i := range es {
		if w.sees(es[i].seq) {
			cp = append(cp, es[i])
		}
	}
	return cp
}

// degree counts v's delta edges of one type (AnySymbol = all) visible
// through w in one direction.
func (d *delta) degree(v storage.VID, etype storage.SymbolID, out bool, w vis) int {
	m := d.out
	if !out {
		m = d.in
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for _, e := range m[v] {
		if w.sees(e.seq) && (etype == storage.AnySymbol || e.typeID == uint32(etype)) {
			n++
		}
	}
	return n
}

// labelVIDs returns a copy of the delta members of a label visible
// through w.
func (d *delta) labelVIDs(id int, w vis) []storage.VID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var vids []storage.VID
	for _, p := range d.byLabel[id] {
		if w.sees(p.seq) {
			vids = append(vids, p.v)
		}
	}
	return vids
}

func (d *delta) labelCount(id int, w vis) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for _, p := range d.byLabel[id] {
		if w.sees(p.seq) {
			n++
		}
	}
	return n
}

// vertexLabelIDs returns a copy of a delta vertex's label IDs visible
// through w.
func (d *delta) vertexLabelIDs(v storage.VID, w vis) []int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	idx := d.vertIdxLocked(v)
	if idx < 0 || d.verts[idx].seq > w.maxSeq {
		return nil
	}
	var ids []int
	for _, l := range d.verts[idx].labelIDs {
		if l.seq <= w.maxSeq {
			ids = append(ids, l.id)
		}
	}
	return ids
}

// labelAddIDs returns a copy of the labels added to base vertex v
// visible through w.
func (d *delta) labelAddIDs(v storage.VID, w vis) []int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var ids []int
	for _, l := range d.labelAdds[v] {
		if w.sees(l.seq) {
			ids = append(ids, l.id)
		}
	}
	return ids
}

// hasLabel reports delta-side label membership for either vertex kind,
// through w. w.baseVerts routes: VIDs at or past the epoch's base count
// are delta vertices for that epoch.
func (d *delta) hasLabel(v storage.VID, id int, w vis) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int64(v) >= w.baseVerts {
		idx := d.vertIdxLocked(v)
		if idx < 0 || d.verts[idx].seq > w.maxSeq {
			return false
		}
		for _, l := range d.verts[idx].labelIDs {
			if l.id == id && l.seq <= w.maxSeq {
				return true
			}
		}
		return false
	}
	for _, l := range d.labelAdds[v] {
		if l.id == id && w.sees(l.seq) {
			return true
		}
	}
	return false
}

// latestVersion picks the newest version at or below maxSeq; versions
// are seq-ascending so scan from the tail.
func latestVersion(vers []propVersion, w vis, override bool) (graph.Value, bool) {
	for i := len(vers) - 1; i >= 0; i-- {
		if vers[i].seq > w.maxSeq {
			continue
		}
		if override && vers[i].seq <= w.baseSeq {
			// Folded into the base files; the base read path owns it.
			return graph.Null, false
		}
		return vers[i].val, true
	}
	return graph.Null, false
}

// prop returns the delta-side value of a property visible through w: a
// delta vertex's own value or a base vertex's override.
func (d *delta) prop(v storage.VID, keyID int, w vis) (graph.Value, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int64(v) >= w.baseVerts {
		idx := d.vertIdxLocked(v)
		if idx < 0 || d.verts[idx].seq > w.maxSeq {
			return graph.Null, false
		}
		return latestVersion(d.verts[idx].props[keyID], w, false)
	}
	return latestVersion(d.propOver[v][keyID], w, true)
}

// propKeyIDs returns the key IDs with delta-side values on v visible
// through w.
func (d *delta) propKeyIDs(v storage.VID, w vis) []int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var m map[int][]propVersion
	override := false
	if int64(v) >= w.baseVerts {
		idx := d.vertIdxLocked(v)
		if idx < 0 || d.verts[idx].seq > w.maxSeq {
			return nil
		}
		m = d.verts[idx].props
	} else {
		m = d.propOver[v]
		override = true
	}
	if len(m) == 0 {
		return nil
	}
	var ids []int
	for id, vers := range m {
		if _, ok := latestVersion(vers, w, override); ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// ---- mutators (called with d.mu held by applyToDelta) ----

func (d *delta) addVertexLocked(seq uint64, labelIDs []int) storage.VID {
	v := storage.VID(d.nextVID())
	adds := make([]labelAdd, len(labelIDs))
	for i, id := range labelIDs {
		adds[i] = labelAdd{id: id, seq: seq}
		d.byLabel[id] = append(d.byLabel[id], vidSeq{v: v, seq: seq})
	}
	d.verts = append(d.verts, deltaVertex{seq: seq, labelIDs: adds})
	d.nextV.Add(1)
	return v
}

func (d *delta) addEdgeLocked(seq uint64, src, dst storage.VID, typeID uint32) storage.EID {
	// EIDs continue the base range in global ingest order.
	e := storage.EID(d.nextEID())
	d.out[src] = append(d.out[src], deltaEdge{e: e, other: dst, typeID: typeID, seq: seq})
	d.in[dst] = append(d.in[dst], deltaEdge{e: e, other: src, typeID: typeID, seq: seq})
	d.edgeSeqs = append(d.edgeSeqs, seq)
	d.nextE.Add(1)
	return e
}

// setPropLocked appends a version. curBase is the *current* epoch's
// base vertex count, which routes the write: at or past it the vertex
// is delta-resident, below it the write is a base-vertex override.
func (d *delta) setPropLocked(seq uint64, v storage.VID, curBase int64, keyID int, val graph.Value) {
	if int64(v) >= curBase {
		idx := d.vertIdxLocked(v)
		if idx < 0 {
			return
		}
		dv := &d.verts[idx]
		if dv.props == nil {
			dv.props = map[int][]propVersion{}
		}
		dv.props[keyID] = append(dv.props[keyID], propVersion{seq: seq, val: val})
		return
	}
	m := d.propOver[v]
	if m == nil {
		m = map[int][]propVersion{}
		d.propOver[v] = m
	}
	m[keyID] = append(m[keyID], propVersion{seq: seq, val: val})
}

// addLabelLocked records a label addition; baseHas reports whether the
// current base already carries it (looked up by the caller outside the
// lock), keeping byLabel duplicate-free.
func (d *delta) addLabelLocked(seq uint64, v storage.VID, curBase int64, id int, baseHas bool) {
	if baseHas {
		return
	}
	if int64(v) >= curBase {
		idx := d.vertIdxLocked(v)
		if idx < 0 {
			return
		}
		dv := &d.verts[idx]
		for _, l := range dv.labelIDs {
			if l.id == id {
				return
			}
		}
		dv.labelIDs = append(dv.labelIDs, labelAdd{id: id, seq: seq})
	} else {
		for _, l := range d.labelAdds[v] {
			if l.id == id {
				return
			}
		}
		d.labelAdds[v] = append(d.labelAdds[v], labelAdd{id: id, seq: seq})
	}
	d.byLabel[id] = append(d.byLabel[id], vidSeq{v: v, seq: seq})
}

// ---- fold support ----

// frozenVertex/frozenEdge/frozenDelta are the immutable snapshot a fold
// consumes: the delta prefix visible through the freeze window, in ID
// order, with property version lists collapsed to their newest visible
// value.
type frozenVertex struct {
	labelIDs []int
	props    map[int]graph.Value
}

type frozenEdge struct {
	e      storage.EID
	src    storage.VID
	dst    storage.VID
	typeID uint32
}

type frozenDelta struct {
	verts     []frozenVertex // VIDs baseVerts, baseVerts+1, ... of the window
	edges     []frozenEdge   // EID order
	labelAdds map[storage.VID][]int
	propOver  map[storage.VID]map[int]graph.Value
}

// freeze copies out everything visible through w. The fold builds a new
// base generation from the old base plus this snapshot; concurrent
// mutations (seq > w.maxSeq) keep landing in the live structures and
// survive the epoch swap untouched.
func (d *delta) freeze(w vis) *frozenDelta {
	d.mu.RLock()
	defer d.mu.RUnlock()
	fd := &frozenDelta{
		labelAdds: map[storage.VID][]int{},
		propOver:  map[storage.VID]map[int]graph.Value{},
	}
	for i := range d.verts {
		dv := &d.verts[i]
		if dv.seq > w.maxSeq {
			break // seq-ordered: nothing later is visible
		}
		if d.origVerts+d.vertsLo+int64(i) < w.baseVerts {
			continue // already folded into this epoch's base
		}
		var fv frozenVertex
		for _, l := range dv.labelIDs {
			if l.seq <= w.maxSeq {
				fv.labelIDs = append(fv.labelIDs, l.id)
			}
		}
		for id, vers := range dv.props {
			if val, ok := latestVersion(vers, w, false); ok {
				if fv.props == nil {
					fv.props = map[int]graph.Value{}
				}
				fv.props[id] = val
			}
		}
		fd.verts = append(fd.verts, fv)
	}
	for src, es := range d.out {
		for _, e := range es {
			if w.sees(e.seq) {
				fd.edges = append(fd.edges, frozenEdge{e: e.e, src: src, dst: e.other, typeID: e.typeID})
			}
		}
	}
	sort.Slice(fd.edges, func(i, j int) bool { return fd.edges[i].e < fd.edges[j].e })
	for v, adds := range d.labelAdds {
		for _, l := range adds {
			if w.sees(l.seq) {
				fd.labelAdds[v] = append(fd.labelAdds[v], l.id)
			}
		}
	}
	for v, m := range d.propOver {
		for id, vers := range m {
			if val, ok := latestVersion(vers, w, true); ok {
				if fd.propOver[v] == nil {
					fd.propOver[v] = map[int]graph.Value{}
				}
				fd.propOver[v][id] = val
			}
		}
	}
	return fd
}

// rebase runs at a fold's commit point (store liveMu held), after the
// new epoch makes delta vertices below newBaseVerts base vertices. Young
// state (seq > bound) attached to those vertices — labels and property
// versions applied while the fold was running — is copied to the
// base-override maps, because that is where post-swap routing looks for
// a base VID. The originals stay in place for snapshots still reading
// through the old window; prune later drops them (they sit on folded
// vertex entries) while the copies survive (their seqs exceed the prune
// bound). Young delta adjacency needs no migration: it is keyed by VID,
// not by the vertex's base/delta residency.
func (d *delta) rebase(bound uint64, newBaseVerts int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	folded := newBaseVerts - d.origVerts - d.vertsLo
	if folded > int64(len(d.verts)) {
		folded = int64(len(d.verts))
	}
	for i := int64(0); i < folded; i++ {
		dv := &d.verts[i]
		v := storage.VID(d.origVerts + d.vertsLo + i)
		for _, l := range dv.labelIDs {
			if l.seq > bound {
				d.labelAdds[v] = append(d.labelAdds[v], l)
			}
		}
		for keyID, vers := range dv.props {
			for _, pv := range vers {
				if pv.seq > bound {
					m := d.propOver[v]
					if m == nil {
						m = map[int][]propVersion{}
						d.propOver[v] = m
					}
					m[keyID] = append(m[keyID], pv)
				}
			}
		}
	}
}

// prune drops every entry folded into the current base: vertices/edges
// below the epoch's ID boundaries and label/property entries with
// seq <= bound. Called once the last pin on any older epoch drains
// (with the store's liveMu held, so routing in applyToDelta can never
// observe a half-pruned state).
func (d *delta) prune(bound uint64, curBaseVerts, curBaseEdges int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cut := curBaseVerts - d.origVerts - d.vertsLo; cut > 0 {
		d.verts = append([]deltaVertex(nil), d.verts[cut:]...)
		d.vertsLo += cut
	}
	if cut := curBaseEdges - d.origEdges - d.edgesLo; cut > 0 {
		d.edgeSeqs = append([]uint64(nil), d.edgeSeqs[cut:]...)
		d.edgesLo += cut
	}
	pruneAdj := func(m map[storage.VID][]deltaEdge) {
		for v, es := range m {
			kept := es[:0]
			for _, e := range es {
				if e.seq > bound {
					kept = append(kept, e)
				}
			}
			if len(kept) == 0 {
				delete(m, v)
			} else {
				m[v] = kept
			}
		}
	}
	pruneAdj(d.out)
	pruneAdj(d.in)
	for v, adds := range d.labelAdds {
		kept := adds[:0]
		for _, l := range adds {
			if l.seq > bound {
				kept = append(kept, l)
			}
		}
		if len(kept) == 0 {
			delete(d.labelAdds, v)
		} else {
			d.labelAdds[v] = kept
		}
	}
	for v, m := range d.propOver {
		for id, vers := range m {
			kept := vers[:0]
			for _, pv := range vers {
				if pv.seq > bound {
					kept = append(kept, pv)
				}
			}
			if len(kept) == 0 {
				delete(m, id)
			} else {
				m[id] = kept
			}
		}
		if len(m) == 0 {
			delete(d.propOver, v)
		}
	}
	for id, ps := range d.byLabel {
		kept := ps[:0]
		for _, p := range ps {
			if p.seq > bound {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			delete(d.byLabel, id)
		} else {
			d.byLabel[id] = kept
		}
	}
}
