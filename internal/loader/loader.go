// Package loader instantiates property graphs from generated instance
// data according to a schema mapping: with the empty mapping it produces
// the paper's direct-mapped graph (DIR — one vertex per instance, isA and
// unionOf edges materialized), and with an optimizer-produced mapping it
// produces the optimized graph (OPT — facet vertices merged into
// multi-label vertices, collapsed relationships dropped, selected
// properties replicated as lists).
package loader

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/ontology"
	"repro/internal/storage"
)

// instRef identifies an instance inside a dataset.
type instRef struct {
	concept string
	ordinal int
}

// loadBatch is how many vertices or edges one Builder batch carries.
const loadBatch = 4096

// Load populates the builder with the dataset under the mapping and
// returns the number of vertices and edges created.
//
// It writes through the one bulk-write contract: vertex batches that carry
// each vertex's labels and properties, then edge batches, then one
// Finalize. On diskstore that makes the whole load one bulk load: it
// gathers in memory and the Finalize writes it as the store's first
// generation — adjacency type-segmented, each vertex's properties one run
// in key-ID order. A store interns keys in the order vertices carry them,
// each vertex's scalars before its lists, so a vertex's scalars lead its
// run unless an earlier vertex carried one of its list keys before one of
// its scalar keys was first seen. That holds for no vertex on the two
// mappings the benchmark serves (TestServedSchemasKeepScalarsFirst); at
// the full NSC budget it fails for more than half the list carriers.
func Load(b storage.Builder, ds *datagen.Dataset, m *core.Mapping) (vertices, edges int, err error) {
	if m == nil {
		m = &core.Mapping{}
	}
	o := ds.Ontology

	// 1. Union-find over instances, seeded by the mapping's merges.
	uf := newInstanceUF()
	mergedRels := map[string]bool{}
	for _, mg := range m.Merges {
		mergedRels[mg.RelKey] = true
		r := relByKey(o, mg.RelKey)
		if r == nil {
			return 0, 0, fmt.Errorf("loader: mapping references unknown relationship %s", mg.RelKey)
		}
		for _, l := range ds.Links[mg.RelKey] {
			uf.union(instRef{r.Src, l.Src}, instRef{r.Dst, l.Dst})
		}
	}

	// 2. One vertex per merge group, in deterministic order: group i gets
	// VID first+i, where first is the store's vertex count. byLabel
	// records each label's vertices in VID order for step 3.
	first := storage.VID(b.NumVertices())
	groups := map[instRef][]instRef{}
	for _, c := range o.Concepts {
		for ord := range ds.Extents[c.Name] {
			ref := instRef{c.Name, ord}
			root := uf.find(ref)
			groups[root] = append(groups[root], ref)
		}
	}
	roots := make([]instRef, 0, len(groups))
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Slice(roots, func(i, j int) bool { return less(roots[i], roots[j]) })
	vertexOf := map[instRef]storage.VID{}
	byLabel := map[string][]storage.VID{}
	labelsOf := make([][]string, len(roots))
	for i, root := range roots {
		members := groups[root]
		sort.Slice(members, func(i, j int) bool { return less(members[i], members[j]) })
		v := first + storage.VID(i)
		for _, ref := range members {
			vertexOf[ref] = v
			if !slices.Contains(labelsOf[i], ref.concept) {
				labelsOf[i] = append(labelsOf[i], ref.concept)
				byLabel[ref.concept] = append(byLabel[ref.concept], v)
			}
		}
	}

	// 3. Replicated list properties, per carrier vertex in mapping order.
	// Values are collected directly from the dataset links so they are
	// exact regardless of merges. Every carrier vertex gets the property,
	// empty list included, so size() is 0 rather than NULL on childless
	// vertices.
	lists := make([][]storage.BulkProp, len(roots))
	for _, lp := range m.ListProps {
		r := relByKey(o, lp.RelKey)
		if r == nil {
			return 0, 0, fmt.Errorf("loader: mapping references unknown relationship %s", lp.RelKey)
		}
		values := map[storage.VID][]graph.Value{}
		for _, l := range ds.Links[lp.RelKey] {
			carrierRef := instRef{r.Src, l.Src}
			neighborRef := instRef{r.Dst, l.Dst}
			if lp.Reverse {
				carrierRef, neighborRef = neighborRef, carrierRef
			}
			cv := vertexOf[carrierRef]
			nInst := ds.Extents[neighborRef.concept][neighborRef.ordinal]
			if val, ok := nInst.Props[lp.Prop]; ok && !val.IsNull() {
				values[cv] = append(values[cv], val)
			}
		}
		for _, v := range byLabel[lp.Carrier] {
			i := v - first
			lists[i] = append(lists[i], storage.BulkProp{Key: lp.Key, Value: graph.L(values[v]...)})
		}
	}

	// 4. The vertices, each whole: its labels, then its members' scalar
	// properties — members in (concept, ordinal) order, each member's keys
	// sorted, so when merged members share a key the last one wins — then
	// its lists.
	batch := make([]storage.BulkVertex, 0, min(len(roots), loadBatch))
	for i, root := range roots {
		n := len(lists[i])
		for _, ref := range groups[root] {
			n += len(ds.Extents[ref.concept][ref.ordinal].Props)
		}
		props := make([]storage.BulkProp, 0, n)
		for _, ref := range groups[root] {
			inst := ds.Extents[ref.concept][ref.ordinal]
			keys := make([]string, 0, len(inst.Props))
			for k := range inst.Props {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				props = append(props, storage.BulkProp{Key: k, Value: inst.Props[k]})
			}
		}
		batch = append(batch, storage.BulkVertex{Labels: labelsOf[i], Props: append(props, lists[i]...)})
		if len(batch) == cap(batch) || i == len(roots)-1 {
			got, err := b.AddVertexBatch(batch)
			if err != nil {
				return 0, 0, err
			}
			if want := first + storage.VID(i+1-len(batch)); got != want {
				return 0, 0, fmt.Errorf("loader: batch vertex IDs start at %d, want %d", got, want)
			}
			batch = batch[:0]
		}
	}
	vertices = len(roots)

	// 5. Edges for every non-collapsed relationship. Inheritance and
	// union links materialize child→parent / member→union facet edges
	// (the paper's Figure 1(b) DIR layout).
	ebatch := make([]storage.BulkEdge, 0, loadBatch)
	for _, r := range o.Relationships {
		if mergedRels[r.Key()] {
			continue
		}
		src, dst := r.Src, r.Dst
		reversed := r.Type == ontology.Inheritance || r.Type == ontology.Union
		for _, l := range ds.Links[r.Key()] {
			sv := vertexOf[instRef{src, l.Src}]
			dv := vertexOf[instRef{dst, l.Dst}]
			if reversed {
				sv, dv = dv, sv
			}
			ebatch = append(ebatch, storage.BulkEdge{Src: sv, Dst: dv, Type: r.Name})
			if len(ebatch) == loadBatch {
				if err := b.AddEdgeBatch(ebatch); err != nil {
					return 0, 0, err
				}
				edges += len(ebatch)
				ebatch = ebatch[:0]
			}
		}
	}
	if len(ebatch) > 0 {
		if err := b.AddEdgeBatch(ebatch); err != nil {
			return 0, 0, err
		}
		edges += len(ebatch)
	}

	// One Finalize builds the deferred structures. On diskstore it writes
	// and commits the first generation, after which the store accepts
	// durable live mutations.
	if err := b.Finalize(); err != nil {
		return 0, 0, err
	}
	return vertices, edges, nil
}

func relByKey(o *ontology.Ontology, key string) *ontology.Relationship {
	for _, r := range o.Relationships {
		if r.Key() == key {
			return r
		}
	}
	return nil
}

// instanceUF is a union-find over instance references.
type instanceUF struct {
	parent map[instRef]instRef
}

func newInstanceUF() *instanceUF {
	return &instanceUF{parent: map[instRef]instRef{}}
}

func (u *instanceUF) find(r instRef) instRef {
	p, ok := u.parent[r]
	if !ok {
		return r
	}
	root := u.find(p)
	u.parent[r] = root
	return root
}

func less(a, b instRef) bool {
	if a.concept != b.concept {
		return a.concept < b.concept
	}
	return a.ordinal < b.ordinal
}

func (u *instanceUF) union(a, b instRef) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if less(rb, ra) {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
}
