package storage

import (
	"fmt"

	"repro/internal/graph"
)

// BulkVertex describes one vertex in a batched ingest.
type BulkVertex struct {
	Labels []string
}

// BulkEdge describes one edge in a batched ingest. Src and Dst may refer
// to vertices that are still buffered in the same BulkLoader: vertex IDs
// are assigned sequentially at buffering time, and the loader always
// flushes pending vertices before pending edges.
type BulkEdge struct {
	Src, Dst VID
	Type     string
}

// BatchBuilder is Builder's batched write path. It trades the per-call
// read-modify-write work of AddVertex/AddEdge for deferred construction:
// batches only append raw records, and Finalize builds adjacency, degree,
// and index structures in one pass.
//
// Contract:
//
//   - AddVertexBatch assigns the batch consecutive VIDs starting at the
//     returned first ID (== NumVertices() before the call).
//   - Edges ingested through AddEdgeBatch may be invisible to the read
//     surface until Finalize runs; Finalize must be called after the last
//     batch and before the store is queried.
//   - Finalize may renumber edge IDs (e.g. to cluster adjacency by edge
//     type on disk); EIDs observed before Finalize are invalid after it.
//   - Finalize is idempotent and also legal after purely incremental
//     building, where it (re)establishes the store's optimal physical
//     layout — for diskstore, type-segmented adjacency.
//   - On a persistent backend Finalize is a durable commit: once it
//     returns, the built store survives a crash without a Flush or Close.
type BatchBuilder interface {
	// AddVertexBatch creates len(batch) vertices with the given labels and
	// returns the VID of the first; the rest follow consecutively.
	AddVertexBatch(batch []BulkVertex) (first VID, err error)
	// AddEdgeBatch creates the given edges. Degree and adjacency
	// construction may be deferred to Finalize.
	AddEdgeBatch(batch []BulkEdge) error
	// Finalize completes all deferred construction. Required before reads
	// after AddEdgeBatch; see the interface contract above.
	Finalize() error
}

// DefaultBulkBatch is the BulkLoader's default batch size.
const DefaultBulkBatch = 4096

// BulkLoader streams vertices and edges into a Builder's BatchBuilder
// path in batches (deferred degree/index construction, one finalize).
//
// Vertex IDs are assigned at buffering time (stores assign VIDs
// sequentially from NumVertices(); each flush verifies this), so
// buffered edges may reference buffered vertices. AddLabel and SetProp
// flush pending vertices and pass through, since they require the vertex
// to exist. Finalize must be called after the last Add; it flushes both
// buffers and runs the store's deferred construction.
type BulkLoader struct {
	b     Builder
	batch int

	nextVID VID
	vbuf    []BulkVertex
	ebuf    []BulkEdge
}

// NewBulkLoader wraps b. batchSize <= 0 picks DefaultBulkBatch.
func NewBulkLoader(b Builder, batchSize int) *BulkLoader {
	if batchSize <= 0 {
		batchSize = DefaultBulkBatch
	}
	return &BulkLoader{b: b, batch: batchSize, nextVID: VID(b.NumVertices())}
}

// AddVertex buffers a vertex and returns its (already final) VID.
func (l *BulkLoader) AddVertex(labels ...string) (VID, error) {
	v := l.nextVID
	l.nextVID++
	l.vbuf = append(l.vbuf, BulkVertex{Labels: append([]string(nil), labels...)})
	if len(l.vbuf) >= l.batch {
		if err := l.flushVertices(); err != nil {
			return 0, err
		}
	}
	return v, nil
}

// AddEdge buffers an edge between two (possibly still buffered) vertices.
func (l *BulkLoader) AddEdge(src, dst VID, etype string) error {
	if src < 0 || src >= l.nextVID || dst < 0 || dst >= l.nextVID {
		return fmt.Errorf("storage: bulk edge (%d)-[%s]->(%d) references an unknown vertex", src, etype, dst)
	}
	l.ebuf = append(l.ebuf, BulkEdge{Src: src, Dst: dst, Type: etype})
	if len(l.ebuf) >= l.batch {
		if err := l.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// AddLabel flushes pending vertices and adds a label to an existing one.
func (l *BulkLoader) AddLabel(v VID, label string) error {
	if err := l.flushVertices(); err != nil {
		return err
	}
	return l.b.AddLabel(v, label)
}

// SetProp flushes pending vertices and sets a property on an existing one.
func (l *BulkLoader) SetProp(v VID, key string, val graph.Value) error {
	if err := l.flushVertices(); err != nil {
		return err
	}
	return l.b.SetProp(v, key, val)
}

// Flush pushes both buffers to the store: pending vertices first, so
// pending edges always reference existing vertices.
func (l *BulkLoader) Flush() error {
	if err := l.flushVertices(); err != nil {
		return err
	}
	return l.flushEdges()
}

// Finalize flushes all buffered work and completes the store's deferred
// construction. Call it once, after the last Add and before the store is
// read.
func (l *BulkLoader) Finalize() error {
	if err := l.Flush(); err != nil {
		return err
	}
	return l.b.Finalize()
}

func (l *BulkLoader) flushVertices() error {
	if len(l.vbuf) == 0 {
		return nil
	}
	first, err := l.b.AddVertexBatch(l.vbuf)
	if err != nil {
		return err
	}
	if want := l.nextVID - VID(len(l.vbuf)); first != want {
		return fmt.Errorf("storage: batch vertex IDs start at %d, loader predicted %d", first, want)
	}
	l.vbuf = l.vbuf[:0]
	return nil
}

func (l *BulkLoader) flushEdges() error {
	if len(l.ebuf) == 0 {
		return nil
	}
	if err := l.b.AddEdgeBatch(l.ebuf); err != nil {
		return err
	}
	l.ebuf = l.ebuf[:0]
	return nil
}
