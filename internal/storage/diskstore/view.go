package diskstore

// The read surface. Every read resolves through a view: a pinned epoch
// plus a delta visibility window. Store methods build a transient view
// per call (pin, read, unpin); Snap holds one fixed view for its
// lifetime, which is what gives snapshot isolation across a background
// fold. All merge logic — base records first, delta entries filtered by
// the window — lives on view, so the two surfaces cannot drift apart.
//
// Pin protocol: the store's own reference keeps the current epoch's pin
// count at >= 1; acquire takes epMu shared just long enough to pin, so a
// fold's swap (which takes epMu exclusively, for a pointer assignment
// only) serializes against in-flight acquires but never waits on a
// long-running read. When the swap drops the store's reference, the last
// unpin reclaims the superseded generation: close its files, delete
// them, and — once no retired epoch remains — prune the delta entries
// the new base absorbed.

import (
	"os"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/storage"
)

// view is one consistent read context: an epoch (pinned by the caller
// for the duration of use) and the delta window visible on top of it.
// nV/nE are the view's total vertex/edge counts; -1 means dynamic (a
// current-epoch view tracks the delta as it grows), a fixed value means a
// frozen snapshot.
type view struct {
	s  *Store
	ep *epoch
	w  vis
	nV int64
	nE int64
}

// acquire pins the current epoch and returns a dynamic view of it. Pair
// with release.
func (s *Store) acquire() view {
	s.epMu.RLock()
	ep := s.cur
	ep.pins.Add(1)
	s.epMu.RUnlock()
	return view{
		s: s, ep: ep,
		w:  vis{baseVerts: ep.numVertices, baseEdges: ep.numEdges, baseSeq: ep.baseSeq, maxSeq: ^uint64(0)},
		nV: -1, nE: -1,
	}
}

func (s *Store) release(vw view) {
	if vw.ep.pins.Add(-1) == 0 {
		s.reclaimEpoch(vw.ep)
	}
}

// reclaimEpoch disposes of a superseded generation whose last pin just
// drained: close and delete its files, and once no retired epoch is
// left, prune the delta prefix the current base absorbed. The prune runs
// under liveMu so mutation routing in applyToDelta never observes a
// half-pruned delta.
func (s *Store) reclaimEpoch(ep *epoch) {
	ep.closeFiles()
	for _, p := range ep.retire {
		os.Remove(p)
	}
	if s.retired.Add(-1) == 0 {
		s.liveMu.Lock()
		if s.retired.Load() == 0 {
			cur := s.curEp()
			s.delta.prune(cur.baseSeq, cur.numVertices, cur.numEdges)
		}
		s.liveMu.Unlock()
	}
}

// ---- view read logic ----

// NumVertices is the view's total vertex count (also its VID bound —
// delta VIDs continue the base range with no holes inside a consistent
// view).
func (vw view) NumVertices() int {
	if vw.nV >= 0 {
		return int(vw.nV)
	}
	// Dynamic current-epoch view: the delta's global next-VID *is* the
	// visible total (base absorbed a prefix of the same numbering).
	return int(vw.s.delta.nextV.Load())
}

// NumEdges is the view's total edge count (base plus visible delta).
func (vw view) NumEdges() int {
	if vw.nE >= 0 {
		return int(vw.nE)
	}
	return int(vw.s.delta.nextE.Load())
}

// deltaEdges is the number of delta edges visible in the view — a cheap
// "can I skip the delta merge" hint for traversals.
func (vw view) deltaEdges() int64 {
	return int64(vw.NumEdges()) - vw.ep.numEdges
}

func (vw view) checkV(v storage.VID) bool {
	return v >= 0 && int(v) < vw.NumVertices()
}

// LabelID, TypeID and KeyID resolve through the store-wide tables
// (append-only, IDs stable); a symbol interned after a snapshot was
// acquired resolves to an ID with no members visible through it.
func (vw view) LabelID(label string) storage.SymbolID { return vw.s.LabelID(label) }
func (vw view) TypeID(etype string) storage.SymbolID  { return vw.s.TypeID(etype) }
func (vw view) KeyID(key string) storage.SymbolID     { return vw.s.KeyID(key) }

// CountLabelID is the base index size plus the visible delta members.
func (vw view) CountLabelID(label storage.SymbolID) int {
	if label == storage.AnySymbol {
		return vw.NumVertices()
	}
	if label < 0 {
		return 0
	}
	return len(vw.ep.byLabel[int(label)]) + vw.s.delta.labelCount(int(label), vw.w)
}

// ForEachVertexID scans the base index first, then the visible delta
// members.
func (vw view) ForEachVertexID(label storage.SymbolID, fn func(storage.VID) bool) {
	if label == storage.AnySymbol {
		total := vw.NumVertices()
		for v := 0; v < total; v++ {
			if !fn(storage.VID(v)) {
				return
			}
		}
		return
	}
	if label < 0 {
		return
	}
	for _, v := range vw.ep.byLabel[int(label)] {
		if !fn(v) {
			return
		}
	}
	for _, v := range vw.s.delta.labelVIDs(int(label), vw.w) {
		if !fn(v) {
			return
		}
	}
}

// PlanVertexScan splits the label's base postings plus its
// delta-visible members into near-even partitions for morsel-style
// parallel execution. Base partitions are subslices of the (immutable
// per epoch) posting index; delta members are copied once here, so the
// whole plan is one consistent snapshot — and since the returned scans
// touch only those in-memory slices, never the pager, they stay valid
// even if the caller's pin is released before they run. (Cross-fold
// consistency for the rest of the query still needs a held Snapshot;
// the query layer acquires one.)
func (vw view) PlanVertexScan(label storage.SymbolID, parts int) []storage.VertexScan {
	if label == storage.AnySymbol {
		// Snapshot the dense VID range once; vertices appended to the
		// delta after this point belong to no partition, matching a
		// serial scan that snapshots NumVertices up front.
		ranges := storage.SplitRange(vw.NumVertices(), parts)
		scans := make([]storage.VertexScan, len(ranges))
		for i, r := range ranges {
			lo, hi := r[0], r[1]
			scans[i] = func(fn func(storage.VID) bool) {
				for v := lo; v < hi; v++ {
					if !fn(storage.VID(v)) {
						return
					}
				}
			}
		}
		return scans
	}
	if label < 0 {
		return nil
	}
	base := vw.ep.byLabel[int(label)]
	delta := vw.s.delta.labelVIDs(int(label), vw.w)
	// Split the virtual concatenation base ++ delta so partition sizes
	// stay even regardless of how much of the label lives in the delta.
	ranges := storage.SplitRange(len(base)+len(delta), parts)
	scans := make([]storage.VertexScan, len(ranges))
	for i, r := range ranges {
		var basePart, deltaPart []storage.VID
		if r[0] < len(base) {
			basePart = base[r[0]:min(r[1], len(base))]
		}
		if r[1] > len(base) {
			deltaPart = delta[max(r[0]-len(base), 0) : r[1]-len(base)]
		}
		scans[i] = func(fn func(storage.VID) bool) {
			for _, v := range basePart {
				if !fn(v) {
					return
				}
			}
			for _, v := range deltaPart {
				if !fn(v) {
					return
				}
			}
		}
	}
	return scans
}

// HasLabelID answers from memory: the epoch's membership bitmap for base
// vertices, else the delta (delta vertices, and labels added live to base
// vertices).
func (vw view) HasLabelID(v storage.VID, label storage.SymbolID) bool {
	if label < 0 || !vw.checkV(v) {
		return false
	}
	if int64(v) < vw.ep.numVertices && vw.ep.hasLabelBit(v, label) {
		return true
	}
	return vw.s.delta.hasLabel(v, int(label), vw.w)
}

// Labels returns the vertex's labels, sorted: the epoch's label bitmaps
// plus delta additions for base vertices, delta state for delta vertices.
func (vw view) Labels(v storage.VID) []string {
	if !vw.checkV(v) {
		return nil
	}
	if int64(v) >= vw.ep.numVertices {
		return vw.s.labelNames(vw.s.delta.vertexLabelIDs(v, vw.w))
	}
	return vw.s.labelNames(append(vw.ep.labelIDs(v, nil), vw.s.delta.labelAddIDs(v, vw.w)...))
}

// PropID returns the property value visible in the view. Delta-side
// values win: a live SetProp overrides the base run without touching it
// (the delta hides overrides the base already absorbed, so the two sides
// never double-report). A delta that holds no override of any base
// vertex is skipped without its lock, as forEachID skips an edgeless
// one.
func (vw view) PropID(v storage.VID, key storage.SymbolID) (graph.Value, bool) {
	if key < 0 || !vw.checkV(v) {
		return graph.Null, false
	}
	if int64(v) >= vw.ep.numVertices {
		return vw.s.delta.prop(v, int(key), vw.w)
	}
	if vw.s.delta.overrides.Load() > 0 {
		if val, ok := vw.s.delta.prop(v, int(key), vw.w); ok {
			return val, true
		}
	}
	val, ok, err := vw.ep.prop(vw.ep.readVertex(v), uint32(key))
	if err != nil {
		return graph.Null, false
	}
	return val, ok
}

// ForEachVertexByPropID is the epoch's value postings with the delta
// laid over them, in ForEachVertexID order. The base candidates are the
// postings of (label, key, val) — a probe that reads no page when the
// value is absent — merged in VID order with the base members whose key a
// live write overrode; each is checked against the view, which drops a
// vertex overridden away from val. Then come the label's delta members:
// delta vertices holding val, and base vertices the label was added to
// live, checked like the rest. The AnySymbol label has no postings and
// filters the scan of every vertex; a list value, which the postings
// leave out, and an epoch without postings (a store never finalized)
// filter the label scan.
func (vw view) ForEachVertexByPropID(label, key storage.SymbolID, val graph.Value, fn func(storage.VID) bool) {
	if label < 0 || key < 0 {
		storage.ScanByPropID(vw, label, key, val, fn)
		return
	}
	ep := vw.ep
	base, indexed := ep.values.Lookup(int32(label), int32(key), val, func(v storage.VID) (graph.Value, bool) {
		return ep.baseProp(v, key)
	})
	if !indexed {
		storage.ScanByPropID(vw, label, key, val, fn)
		return
	}
	var over []storage.VID
	if vw.s.delta.overrides.Load() > 0 {
		over = vw.s.delta.overridden(int(key), ep.numVertices)
	}
	// Merge the two ascending candidate lists, a vertex in both once.
	for i, j := 0, 0; i < len(base) || j < len(over); {
		var v storage.VID
		switch {
		case j == len(over) || i < len(base) && storage.VID(base[i]) < over[j]:
			v, i = storage.VID(base[i]), i+1
		case i == len(base) || over[j] < storage.VID(base[i]):
			v, j = over[j], j+1
		default:
			v, i, j = over[j], i+1, j+1
		}
		if ep.hasLabelBit(v, label) && vw.holds(v, key, val) && !fn(v) {
			return
		}
	}
	for _, v := range vw.s.delta.labelMatches(int(label), int(key), val, vw.w) {
		if (int64(v) >= ep.numVertices || vw.holds(v, key, val)) && !fn(v) {
			return
		}
	}
}

// holds reports whether v's value of key in the view is Equal to val.
func (vw view) holds(v storage.VID, key storage.SymbolID, val graph.Value) bool {
	got, ok := vw.PropID(v, key)
	return ok && got.Equal(val)
}

// PropKeys returns the keys with values on v in the view, sorted and
// deduplicated (an override of an existing key appears once): base-run
// keys merged with delta-side values.
func (vw view) PropKeys(v storage.VID) []string {
	if !vw.checkV(v) {
		return nil
	}
	var ids []int
	if int64(v) < vw.ep.numVertices {
		var err error
		if ids, err = vw.ep.propKeys(vw.ep.readVertex(v)); err != nil {
			return nil
		}
	}
	for _, id := range vw.s.delta.propKeyIDs(v, vw.w) {
		if !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	return vw.s.keyNames(ids)
}

func (vw view) forEachID(v storage.VID, etype storage.SymbolID, out bool, fn func(storage.EID, storage.VID) bool) {
	if !vw.checkV(v) || etype == storage.NoSymbol {
		return
	}
	// Base edges first — from the vertex's adjacency block, untouched by
	// live writes — then the vertex's visible delta adjacency. Delta
	// vertices have no base records at all.
	if int64(v) < vw.ep.numVertices {
		if done, err := vw.ep.forEachAdj(vw.ep.readVertex(v), etype, out, fn); !done || err != nil {
			return
		}
	}
	if vw.deltaEdges() == 0 {
		return
	}
	for _, de := range vw.s.delta.adj(v, out, vw.w) {
		if etype == storage.AnySymbol || de.typeID == uint32(etype) {
			if !fn(de.e, de.other) {
				return
			}
		}
	}
}

// ForEachOutID iterates v's out-edges of the given type.
func (vw view) ForEachOutID(v storage.VID, etype storage.SymbolID, fn func(storage.EID, storage.VID) bool) {
	vw.forEachID(v, etype, true, fn)
}

// ForEachInID iterates v's in-edges of the given type.
func (vw view) ForEachInID(v storage.VID, etype storage.SymbolID, fn func(storage.EID, storage.VID) bool) {
	vw.forEachID(v, etype, false, fn)
}

// DegreeID answers degree queries without decoding a segment: untyped
// degrees come from the vertex record's counters, which the resident
// table holds, typed degrees from its adjacency block's type directory,
// plus the visible delta count.
func (vw view) DegreeID(v storage.VID, etype storage.SymbolID, out bool) int {
	if !vw.checkV(v) || etype == storage.NoSymbol {
		return 0
	}
	deltaN := vw.s.delta.degree(v, etype, out, vw.w)
	if int64(v) >= vw.ep.numVertices {
		return deltaN // delta vertex: no base records
	}
	ep := vw.ep
	rec := ep.readVertex(v)
	if etype == storage.AnySymbol {
		if out {
			return int(rec.outDeg) + deltaN
		}
		return int(rec.inDeg) + deltaN
	}
	deg, err := ep.typedDegree(rec, etype, out)
	if err != nil {
		return 0
	}
	return deg + deltaN
}

// ---- symbol resolution (store-wide: symbols are append-only, so IDs
// resolved through any epoch or snapshot stay consistent) ----

// LabelID resolves a vertex label to its interned ID.
func (s *Store) LabelID(label string) storage.SymbolID { return s.resolveSym(label, s.labelIDs) }

// TypeID resolves an edge type to its interned ID.
func (s *Store) TypeID(etype string) storage.SymbolID { return s.resolveSym(etype, s.typeIDs) }

// KeyID resolves a property key to its interned ID.
func (s *Store) KeyID(key string) storage.SymbolID { return s.resolveSym(key, s.keyIDs) }

func (s *Store) resolveSym(name string, ids map[string]int) storage.SymbolID {
	if name == "" {
		return storage.AnySymbol
	}
	s.symMu.RLock()
	id, ok := ids[name]
	s.symMu.RUnlock()
	if ok {
		return storage.SymbolID(id)
	}
	return storage.NoSymbol
}

// labelNames/keyNames map IDs back to sorted strings.
func (s *Store) labelNames(ids []int) []string {
	s.symMu.RLock()
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.labels[id])
	}
	s.symMu.RUnlock()
	sort.Strings(out)
	return out
}

func (s *Store) keyNames(ids []int) []string {
	s.symMu.RLock()
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.keys[id])
	}
	s.symMu.RUnlock()
	sort.Strings(out)
	return out
}

// ---- Store read surface (transient per-call views) ----

// NumVertices returns the number of vertices (base plus visible delta).
func (s *Store) NumVertices() int {
	vw := s.acquire()
	defer s.release(vw)
	return vw.NumVertices()
}

// NumEdges returns the number of edges (base plus visible delta).
func (s *Store) NumEdges() int {
	vw := s.acquire()
	defer s.release(vw)
	return vw.NumEdges()
}

// CountLabelID returns the number of vertices carrying the label.
func (s *Store) CountLabelID(label storage.SymbolID) int {
	vw := s.acquire()
	defer s.release(vw)
	return vw.CountLabelID(label)
}

// ForEachVertexID calls fn for every vertex carrying the label.
func (s *Store) ForEachVertexID(label storage.SymbolID, fn func(storage.VID) bool) {
	vw := s.acquire()
	defer s.release(vw)
	vw.ForEachVertexID(label, fn)
}

// PlanVertexScan splits the label's base postings plus its delta members
// into near-even partitions for morsel-style parallel execution; see
// view.PlanVertexScan. The returned scans capture only in-memory slices
// and stay valid for the store's lifetime, but for one consistent view
// across a whole parallel query during a concurrent fold, plan and run
// against an AcquireSnapshot handle.
func (s *Store) PlanVertexScan(label storage.SymbolID, parts int) []storage.VertexScan {
	vw := s.acquire()
	defer s.release(vw)
	return vw.PlanVertexScan(label, parts)
}

// HasLabelID reports whether the vertex carries the label.
func (s *Store) HasLabelID(v storage.VID, label storage.SymbolID) bool {
	vw := s.acquire()
	defer s.release(vw)
	return vw.HasLabelID(v, label)
}

// Labels returns the labels of the vertex, sorted.
func (s *Store) Labels(v storage.VID) []string {
	vw := s.acquire()
	defer s.release(vw)
	return vw.Labels(v)
}

// PropID returns the value of a vertex property.
func (s *Store) PropID(v storage.VID, key storage.SymbolID) (graph.Value, bool) {
	vw := s.acquire()
	defer s.release(vw)
	return vw.PropID(v, key)
}

// ForEachVertexByPropID calls fn for every vertex carrying the label and
// the property value, through one view for the whole scan.
func (s *Store) ForEachVertexByPropID(label, key storage.SymbolID, val graph.Value, fn func(storage.VID) bool) {
	vw := s.acquire()
	defer s.release(vw)
	vw.ForEachVertexByPropID(label, key, val, fn)
}

// PropKeys returns the property keys present on the vertex, sorted.
func (s *Store) PropKeys(v storage.VID) []string {
	vw := s.acquire()
	defer s.release(vw)
	return vw.PropKeys(v)
}

// ForEachOutID iterates out-edges of v with the given type.
func (s *Store) ForEachOutID(v storage.VID, etype storage.SymbolID, fn func(storage.EID, storage.VID) bool) {
	vw := s.acquire()
	defer s.release(vw)
	vw.ForEachOutID(v, etype, fn)
}

// ForEachInID iterates in-edges of v with the given type.
func (s *Store) ForEachInID(v storage.VID, etype storage.SymbolID, fn func(storage.EID, storage.VID) bool) {
	vw := s.acquire()
	defer s.release(vw)
	vw.ForEachInID(v, etype, fn)
}

// DegreeID returns the number of out- or in-edges of the given type.
func (s *Store) DegreeID(v storage.VID, etype storage.SymbolID, out bool) int {
	vw := s.acquire()
	defer s.release(vw)
	return vw.DegreeID(v, etype, out)
}

// ---- snapshots ----

// Snap is a pinned, immutable view of the store: the epoch current at
// acquire time plus the delta watermark of the last fully applied batch.
// Reads through it see exactly that state — mutations and background
// folds after the acquire are invisible — until Release, which unpins
// the epoch (reclaiming its files if a fold has superseded it and no
// other pin remains). Safe for concurrent readers; Release is
// idempotent.
type Snap struct {
	view
	storage.ByName
	released atomic.Bool
}

var _ storage.Snapshot = (*Snap)(nil)

func newSnap(vw view) *Snap {
	sn := &Snap{view: vw}
	sn.ByName = storage.NewByName(sn)
	return sn
}

// AcquireSnapshot pins the current epoch and delta watermark. The store
// must outlive the snapshot; releasing after store close is harmless but
// reads are not.
func (s *Store) AcquireSnapshot() storage.Snapshot {
	s.pinnedSnaps.Add(1)
	s.epMu.RLock()
	ep := s.cur
	ep.pins.Add(1)
	s.epMu.RUnlock()
	// The watermark is the last fully applied batch: batches apply under
	// liveMu after their WAL append, so appliedSeq never exposes half a
	// batch. If a fold swapped cur between our pin and this load, the
	// watermark may include batches newer than the swap — they are still
	// in the delta, visible through our (old-epoch) window, and pinned
	// entries are never pruned while we hold the epoch.
	w := vis{
		baseVerts: ep.numVertices,
		baseEdges: ep.numEdges,
		baseSeq:   ep.baseSeq,
		maxSeq:    s.delta.appliedSeq.Load(),
	}
	nv, ne := s.delta.counts(w)
	return newSnap(view{
		s: s, ep: ep, w: w,
		nV: ep.numVertices + nv,
		nE: ep.numEdges + ne,
	})
}

// Release unpins the snapshot. Idempotent.
func (sn *Snap) Release() {
	if sn.released.Swap(true) {
		return
	}
	sn.s.pinnedSnaps.Add(-1)
	sn.s.release(sn.view)
}
