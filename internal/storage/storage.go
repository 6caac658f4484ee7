// Package storage defines the backend-independent interface between
// property graph stores and the query engine: Graph is the one read
// contract, Builder the bulk-write contract (vertex batches that carry
// their properties, edge batches, one Finalize) and
// MutableGraph.ApplyMutations the live one. Two implementations exist:
// memstore (an in-memory adjacency store, the JanusGraph-like backend of
// the paper's evaluation) and diskstore (a Neo4j-like record store behind
// a sharded clock-sweep page cache). Both implement Graph's ID methods
// natively and embed ByName for its by-name half.
package storage

import (
	"errors"

	"repro/internal/graph"
)

// VID identifies a vertex within a store.
type VID int64

// EID identifies an edge within a store.
type EID int64

// SymbolID identifies an interned label, edge type, or property key within
// a store. Valid IDs are small non-negative integers assigned at build
// time; symbols never change once the store is built (the Builder contract
// requires stores to be fully built before being queried), so an ID
// resolved once — e.g. by query.Prepare — stays valid for the lifetime of
// the store.
type SymbolID int32

const (
	// NoSymbol is returned when a string was never interned by the store.
	// Every ID-based operation treats NoSymbol as matching nothing:
	// HasLabelID and PropID report absence, CountLabelID returns 0, and
	// the ForEach*ID iterators yield no elements.
	NoSymbol SymbolID = -1
	// AnySymbol is the ID-space analogue of the empty string in the
	// by-name methods: it matches every edge type in ForEachOutID,
	// ForEachInID and DegreeID and every vertex in ForEachVertexID, and
	// nothing in HasLabelID and PropID.
	AnySymbol SymbolID = -2
)

// Graph is the one read contract between a backend and the query engine.
// The ID methods take SymbolIDs resolved once through the SymbolTable, so
// a compiled query plan does no per-call string hashing; the by-name
// methods resolve their string and forward to the ID method (backends
// embed ByName for them). Out-of-range VIDs read as absent everywhere.
//
// NoSymbol matches nothing. CountLabelID(AnySymbol) returns NumVertices()
// — the size of the scan ForEachVertexID(AnySymbol) performs — whereas
// CountLabel("") returns 0.
//
// Implementations must be safe for concurrent readers once the store is
// fully built (the Builder contract: build first, then query). Both
// built-in backends satisfy this — memstore reads touch only immutable
// data, and diskstore coordinates page access internally through a
// sharded, latched page cache — so one store can serve any number of
// parallel query executors.
type Graph interface {
	SymbolTable
	// NumVertices returns the number of vertices.
	NumVertices() int
	// NumEdges returns the number of edges.
	NumEdges() int
	// CountLabelID returns the number of vertices carrying the label.
	CountLabelID(label SymbolID) int
	// ForEachVertexID calls fn for every vertex carrying the label, until
	// fn returns false. AnySymbol iterates all vertices.
	ForEachVertexID(label SymbolID, fn func(VID) bool)
	// PlanVertexScan is the morsel partition hook: it splits the label's
	// vertex set into at most parts disjoint scans whose union visits
	// exactly the vertices ForEachVertexID(label) visits, each exactly
	// once. Order within one partition follows the underlying scan; order
	// across partitions is unspecified. The split is planned in this one
	// call, so on stores with a live delta segment every returned scan
	// observes the same snapshot — concurrent mutations cannot introduce
	// gaps or overlap between partitions. NoSymbol (and any unknown ID)
	// yields no scans; parts < 1 is treated as 1. Fewer than parts scans
	// may be returned when the label has few vertices.
	PlanVertexScan(label SymbolID, parts int) []VertexScan
	// HasLabelID reports whether the vertex carries the label.
	HasLabelID(v VID, label SymbolID) bool
	// Labels returns the labels of the vertex in lexicographic order.
	Labels(v VID) []string
	// PropID returns the value of the vertex property, if present.
	PropID(v VID, key SymbolID) (graph.Value, bool)
	// ForEachVertexByPropID calls fn, until it returns false, for exactly
	// the vertices ForEachVertexID(label) visits whose PropID(v, key) is
	// Equal to val, in the same order. It is the entry point of a
	// property-constrained root: a backend with a value index answers from
	// it, one without filters the label scan (ScanByPropID). NoSymbol and
	// AnySymbol as the key, and a val containing NaN, match nothing.
	ForEachVertexByPropID(label, key SymbolID, val graph.Value, fn func(VID) bool)
	// PropKeys returns the property keys present on the vertex in
	// lexicographic order.
	PropKeys(v VID) []string
	// ForEachOutID calls fn for every out-edge of v with the given edge
	// type until fn returns false. AnySymbol matches any edge type.
	ForEachOutID(v VID, etype SymbolID, fn func(e EID, dst VID) bool)
	// ForEachInID is ForEachOutID for incoming edges; fn receives the
	// source.
	ForEachInID(v VID, etype SymbolID, fn func(e EID, src VID) bool)
	// DegreeID returns the number of out- (or in-) edges of the given
	// type.
	DegreeID(v VID, etype SymbolID, out bool) int

	// The by-name methods, with ByName's empty-string rules.
	CountLabel(label string) int
	ForEachVertex(label string, fn func(VID) bool)
	HasLabel(v VID, label string) bool
	Prop(v VID, key string) (graph.Value, bool)
	ForEachOut(v VID, etype string, fn func(e EID, dst VID) bool)
	ForEachIn(v VID, etype string, fn func(e EID, src VID) bool)
	Degree(v VID, etype string, out bool) int
}

// ByName is Graph's by-name half, written once over a backend's own ID
// methods: each call resolves its string through the backend's
// SymbolTable and forwards. A backend embeds the value NewByName returns
// for itself. The empty string resolves to AnySymbol, so it is the
// wildcard where the ID call has one — ForEachVertex(""), and ForEachOut,
// ForEachIn and Degree with "" — and matches nothing in HasLabel and
// Prop; CountLabel("") is 0, not CountLabelID(AnySymbol).
type ByName struct{ g Graph }

// NewByName returns the by-name methods of g.
func NewByName(g Graph) ByName { return ByName{g} }

// CountLabel returns the number of vertices carrying the label.
func (b ByName) CountLabel(label string) int {
	if label == "" {
		return 0
	}
	return b.g.CountLabelID(b.g.LabelID(label))
}

// ForEachVertex calls fn for every vertex carrying the label ("" = all).
func (b ByName) ForEachVertex(label string, fn func(VID) bool) {
	b.g.ForEachVertexID(b.g.LabelID(label), fn)
}

// HasLabel reports whether the vertex carries the label.
func (b ByName) HasLabel(v VID, label string) bool {
	return b.g.HasLabelID(v, b.g.LabelID(label))
}

// Prop returns the value of the vertex property, if present.
func (b ByName) Prop(v VID, key string) (graph.Value, bool) {
	return b.g.PropID(v, b.g.KeyID(key))
}

// ForEachOut iterates out-edges of v with the given type ("" = any).
func (b ByName) ForEachOut(v VID, etype string, fn func(e EID, dst VID) bool) {
	b.g.ForEachOutID(v, b.g.TypeID(etype), fn)
}

// ForEachIn iterates in-edges of v with the given type ("" = any).
func (b ByName) ForEachIn(v VID, etype string, fn func(e EID, src VID) bool) {
	b.g.ForEachInID(v, b.g.TypeID(etype), fn)
}

// Degree returns the number of out- or in-edges of the given type.
func (b ByName) Degree(v VID, etype string, out bool) int {
	return b.g.DegreeID(v, b.g.TypeID(etype), out)
}

// ScanByPropID is ForEachVertexByPropID written as a filtered label scan
// over a backend's own ForEachVertexID and PropID, for backends (or
// states of one) without a value index.
func ScanByPropID(g interface {
	ForEachVertexID(label SymbolID, fn func(VID) bool)
	PropID(v VID, key SymbolID) (graph.Value, bool)
}, label, key SymbolID, val graph.Value, fn func(VID) bool) {
	if key < 0 {
		return
	}
	g.ForEachVertexID(label, func(v VID) bool {
		if got, ok := g.PropID(v, key); ok && got.Equal(val) {
			return fn(v)
		}
		return true
	})
}

// SymbolTable resolves label, edge-type, and property-key strings to the
// store's interned IDs. Unknown strings resolve to NoSymbol; the empty
// string resolves to AnySymbol, mirroring its wildcard meaning in the
// by-name methods.
type SymbolTable interface {
	// LabelID resolves a vertex label.
	LabelID(label string) SymbolID
	// TypeID resolves an edge type.
	TypeID(etype string) SymbolID
	// KeyID resolves a property key.
	KeyID(key string) SymbolID
}

// VertexScan iterates one partition of a label scan produced by
// Graph.PlanVertexScan, calling fn for each vertex until fn returns
// false. Each scan is independent of its siblings and may run on its own
// goroutine; the partitions of one PlanVertexScan call are disjoint and
// together visit exactly the vertices ForEachVertexID would.
type VertexScan func(fn func(VID) bool)

// SplitRange cuts [0, n) into at most parts contiguous, non-empty,
// near-even [lo, hi) half-open ranges covering it exactly; parts < 1 is
// treated as 1. It returns nil when n <= 0 and fewer than parts ranges
// when n < parts. Backends use it to partition label postings and VID
// ranges for PlanVertexScan.
func SplitRange(n, parts int) [][2]int {
	if n <= 0 {
		return nil
	}
	parts = min(max(parts, 1), n)
	out := make([][2]int, 0, parts)
	for p := 0; p < parts; p++ {
		lo, hi := p*n/parts, (p+1)*n/parts
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// Builder is the one bulk-write contract: a load is vertex batches that
// carry their labels and properties, edge batches, and one Finalize. After
// its first Finalize a store takes no more batches (ErrFinalized); a
// backend with live writes takes them through MutableGraph.ApplyMutations.
//
//   - AddVertexBatch assigns the batch consecutive VIDs starting at the
//     returned first ID, which is the number of vertices created before
//     the call. Each vertex's properties are applied in order, so a
//     repeated key keeps its last value; a repeated label is one label.
//   - AddEdgeBatch takes edges between vertices of earlier batches.
//   - On a store that holds nothing, the first batch may open a pending
//     load: every batch after it may be invisible to the read surface
//     until Finalize, and the store may refuse ApplyMutations
//     (ErrNotLive) until then. Reads are defined only after Finalize.
//   - Finalize may renumber edge IDs (e.g. to cluster adjacency by edge
//     type on disk); EIDs observed before Finalize are invalid after it.
//   - Finalize is idempotent. On a backend with live writes a later
//     Finalize (re)establishes the optimal physical layout — for
//     diskstore, a fold of its live writes into a new generation.
//   - On a persistent backend Finalize is a durable commit: once it
//     returns, the built store survives a crash without a Flush or Close.
type Builder interface {
	Graph
	// AddVertexBatch creates len(batch) vertices with the given labels and
	// properties and returns the VID of the first; the rest follow
	// consecutively.
	AddVertexBatch(batch []BulkVertex) (first VID, err error)
	// AddEdgeBatch creates the given edges. Adjacency construction may be
	// deferred to Finalize.
	AddEdgeBatch(batch []BulkEdge) error
	// Finalize completes the load; see the contract above.
	Finalize() error
	// Close releases resources (flushes files for disk-backed stores).
	Close() error
}

// BulkVertex describes one vertex of an AddVertexBatch.
type BulkVertex struct {
	Labels []string
	// Props are applied in order: a repeated key keeps its last value.
	Props []BulkProp
}

// BulkProp is one property of a BulkVertex.
type BulkProp struct {
	Key   string
	Value graph.Value
}

// BulkEdge describes one edge of an AddEdgeBatch.
type BulkEdge struct {
	Src, Dst VID
	Type     string
}

// ErrFinalized is returned by AddVertexBatch and AddEdgeBatch on a store
// whose load has been finalized: a live write goes through
// MutableGraph.ApplyMutations instead.
var ErrFinalized = errors.New("storage: store is finalized; batches are refused")

// MutationOp selects which write a Mutation performs.
type MutationOp uint8

const (
	// MutAddVertex creates a vertex with Labels (V, Src, Dst unused).
	MutAddVertex MutationOp = iota + 1
	// MutAddEdge creates an edge Src -> Dst of type Type.
	MutAddEdge
	// MutSetProp sets property Key of vertex V to Value.
	MutSetProp
	// MutAddLabel adds Label to vertex V.
	MutAddLabel
)

// Mutation is one write in an ApplyMutations batch. Vertex references
// (V, Src, Dst) are either existing VIDs (>= 0) or batch-relative
// references to vertices created earlier in the same batch: -1 is the
// batch's first MutAddVertex, -2 the second, and so on. This lets one
// batch create a vertex and immediately attach edges and properties to it
// without a round trip.
type Mutation struct {
	Op     MutationOp
	Labels []string    // MutAddVertex
	V      VID         // MutSetProp, MutAddLabel
	Src    VID         // MutAddEdge
	Dst    VID         // MutAddEdge
	Type   string      // MutAddEdge
	Key    string      // MutSetProp
	Value  graph.Value // MutSetProp
	Label  string      // MutAddLabel
}

// MutationResult reports the IDs assigned by an applied batch, in the
// order the creating mutations appeared.
type MutationResult struct {
	Vertices []VID
	Edges    []EID
}

// ErrNotLive is returned by ApplyMutations while a bulk load is pending
// (see Builder): the store accepts durable live writes again once
// Finalize has committed the load.
var ErrNotLive = errors.New("storage: a bulk load is pending")

// ErrCompactInProgress is returned by Compact when another compaction is
// already running on the same store. Compactions are single-flight: the
// caller can retry after the running fold completes (LiveStats
// FoldRunning reports when one is in flight).
var ErrCompactInProgress = errors.New("storage: compaction already in progress")

// MutableGraph is the durable post-build write surface. ApplyMutations
// applies the batch atomically with respect to crashes — after a crash,
// either every mutation in the batch is present or none is — and durably:
// when the call returns nil, the batch has been logged and fsynced.
// Implementations must allow concurrent readers while a batch applies;
// concurrent ApplyMutations calls are serialized internally.
type MutableGraph interface {
	Graph
	// ApplyMutations validates, logs, fsyncs, and applies the batch.
	// Validation errors (unknown vertex, bad batch reference) reject the
	// whole batch before anything is logged.
	ApplyMutations(batch []Mutation) (MutationResult, error)
	// Compact folds accumulated live writes into the store's optimal base
	// layout. Implementations with a background fold path must keep
	// serving reads and ApplyMutations while it runs; a second concurrent
	// call returns ErrCompactInProgress. The call blocks until the fold
	// commits — run it from its own goroutine to get background behavior.
	Compact() error
}

// Snapshot is a pinned, immutable view of a graph: every read through it
// observes the single consistent state that existed when it was acquired,
// no matter how many mutation batches or compactions commit afterwards.
// Release returns the pinned resources (file handles of superseded base
// generations, delta memory); it is idempotent, and reads after Release
// are a caller bug.
type Snapshot interface {
	Graph
	Release()
}

// Snapshotter is implemented by backends that take writes while serving
// reads and can pin consistent point-in-time views. Long-running
// traversals (parallel scans, multi-query reports) should acquire one so
// a background Compact swapping the base files mid-read cannot shift
// their view.
type Snapshotter interface {
	AcquireSnapshot() Snapshot
}

// LiveStats reports live-write state: delta segment sizes and write-ahead
// log activity. All counters are cumulative since open.
type LiveStats struct {
	// Live reports that the store accepts ApplyMutations.
	Live bool
	// Segmented reports the base layout's type-segmented invariant; live
	// writes land in the delta and must not clear it.
	Segmented bool
	// DeltaVertices and DeltaEdges are the sizes of the in-memory delta
	// segment awaiting the next Compact.
	DeltaVertices int64
	DeltaEdges    int64
	// WALAppends counts logged batches, WALSyncs physical fsyncs (group
	// commit makes WALSyncs <= WALAppends), WALSyncNanos total time in
	// fsync, and WALBytes bytes appended.
	WALAppends   int64
	WALSyncs     int64
	WALSyncNanos int64
	WALBytes     int64
	// Generation numbers the base file set currently serving reads; each
	// committed background compaction bumps it.
	Generation int64
	// FoldRunning reports a background compaction in flight, and
	// FoldProgress its rough progress in permille (0-1000).
	FoldRunning  bool
	FoldProgress int64
	// PinnedSnapshots counts acquired-but-unreleased snapshots; a
	// superseded base generation's files are reclaimed only once the
	// snapshots pinning it drain.
	PinnedSnapshots int64
	// Compactions counts folds committed since open.
	Compactions int64
	// Compressed reports that the base adjacency is stored as
	// delta-varint segments (diskstore); EdgeBytes is their logical size in
	// bytes.
	Compressed bool
	EdgeBytes  int64
}

// LiveStatsReporter is implemented by backends with a live-write path.
type LiveStatsReporter interface {
	LiveStats() LiveStats
}

// Stats reports backend I/O counters where available; used to show that
// optimized schemas reduce page reads on the disk backend. Backends keep
// the underlying counters atomic, so snapshotting them never blocks the
// data path.
type Stats struct {
	PageHits   int64
	PageMisses int64
	PageReads  int64 // physical page reads from disk
}

// StatsReporter is implemented by backends that track I/O statistics.
type StatsReporter interface {
	Stats() Stats
	// ResetStats zeroes the counters (e.g. between benchmark phases).
	ResetStats()
}

// Statistics is the data-statistics surface backends expose to the
// optimizer and the query planner: real cardinalities instead of
// uniformity assumptions, and value-presence filters that let a planner
// prove a property-constrained scan empty without running it.
//
// The answers may be approximate in the conservative direction only:
// counts should be exact or near-exact, and MayHaveProp must never
// return false when a matching vertex exists — false is a definitive
// "no vertex with this label has this value for this key", true means
// "possibly" (subject to bloom false positives or absent statistics).
type Statistics interface {
	// LabelCounts returns the number of vertices per label, keyed by
	// label name.
	LabelCounts() map[string]int
	// EdgeTypeCounts returns the number of edges per edge type, keyed by
	// type name. A nil map means the backend has no edge statistics (the
	// caller should fall back to its defaults).
	EdgeTypeCounts() map[string]int
	// MayHaveProp reports whether any vertex with the label may carry the
	// given value for the given property key. False is definitive.
	MayHaveProp(label, key string, val graph.Value) bool
}
