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

// Load populates the builder with the dataset under the mapping and
// returns the number of vertices and edges created.
//
// Everything streams through a storage.BulkLoader and ends in one
// Finalize. On diskstore that makes the whole load one bulk load: the
// vertices, edges and properties gather in memory and the Finalize writes
// them as the store's first generation — adjacency type-segmented, each
// vertex's properties one run. On memstore the batches are plain
// in-memory writes. Scalar properties are written before the replicated
// lists, so their keys intern first and lead each vertex's property run
// (see step 4).
func Load(b storage.Builder, ds *datagen.Dataset, m *core.Mapping) (vertices, edges int, err error) {
	if m == nil {
		m = &core.Mapping{}
	}
	o := ds.Ontology
	bl := storage.NewBulkLoader(b, 0)

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

	// 2. One vertex per merge group, in deterministic order. byLabel
	// records each label's vertices in VID order for step 5.
	vertexOf := map[instRef]storage.VID{}
	byLabel := map[string][]storage.VID{}
	conceptNames := make([]string, 0, len(o.Concepts))
	for _, c := range o.Concepts {
		conceptNames = append(conceptNames, c.Name)
	}
	groups := map[instRef][]instRef{}
	for _, cn := range conceptNames {
		for ord := range ds.Extents[cn] {
			ref := instRef{cn, ord}
			root := uf.find(ref)
			groups[root] = append(groups[root], ref)
		}
	}
	var roots []instRef
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Slice(roots, func(i, j int) bool {
		if roots[i].concept != roots[j].concept {
			return roots[i].concept < roots[j].concept
		}
		return roots[i].ordinal < roots[j].ordinal
	})
	for _, root := range roots {
		members := groups[root]
		sort.Slice(members, func(i, j int) bool {
			if members[i].concept != members[j].concept {
				return members[i].concept < members[j].concept
			}
			return members[i].ordinal < members[j].ordinal
		})
		labels := make([]string, 0, len(members))
		seen := map[string]bool{}
		for _, ref := range members {
			if !seen[ref.concept] {
				seen[ref.concept] = true
				labels = append(labels, ref.concept)
			}
		}
		v, err := bl.AddVertex(labels...)
		if err != nil {
			return 0, 0, err
		}
		vertices++
		for _, ref := range members {
			vertexOf[ref] = v
		}
		for _, l := range labels {
			byLabel[l] = append(byLabel[l], v)
		}
	}

	// 3. Edges for every non-collapsed relationship. Inheritance and
	// union links materialize child→parent / member→union facet edges
	// (the paper's Figure 1(b) DIR layout).
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
			if err := bl.AddEdge(sv, dv, r.Name); err != nil {
				return 0, 0, err
			}
			edges++
		}
	}

	// 4. Scalar instance properties. They go in before the replicated
	// lists so their keys intern first: a generation stores each vertex's
	// properties in key-ID order, and point lookups find the scalars at
	// the head of the run.
	for _, root := range roots {
		for _, ref := range groups[root] {
			v := vertexOf[ref]
			inst := ds.Extents[ref.concept][ref.ordinal]
			keys := make([]string, 0, len(inst.Props))
			for k := range inst.Props {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if err := bl.SetProp(v, k, inst.Props[k]); err != nil {
					return 0, 0, err
				}
			}
		}
	}

	// 5. Replicated list properties. Values are collected directly from
	// the dataset links so they are exact regardless of merges.
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
		// Every carrier vertex gets the property, empty list included,
		// so size() is 0 rather than NULL on childless vertices.
		for _, v := range byLabel[lp.Carrier] {
			if err := bl.SetProp(v, lp.Key, graph.L(values[v]...)); err != nil {
				return 0, 0, err
			}
		}
	}

	// One finalize flushes the batches and builds the deferred structures.
	// On diskstore it writes and commits the first generation, after which
	// the store accepts durable live mutations.
	if err := bl.Finalize(); err != nil {
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
