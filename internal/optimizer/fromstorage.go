package optimizer

import (
	"repro/internal/ontology"
	"repro/internal/storage"
)

// FromStorage derives the cost model's data characteristics (§4.2) from
// a loaded store's persisted statistics instead of the uniform synthetic
// defaults: concept cardinalities come from per-label vertex counts and
// relationship cardinalities from per-type edge counts (diskstore reads
// its label counts from vertices.db and keeps the type counts in
// index.db). The loader writes one vertex label per concept and
// one edge type per relationship Name, so the mapping back is direct —
// except that distinct relationships may share a Name, in which case the
// type's count is split evenly across them.
//
// The result always covers the whole ontology (Stats.Validate passes):
// a concept or relationship with no instances in the store is clamped to
// cardinality 1 so the cost formulas stay positive, and when the store
// has no persisted edge-type counts (EdgeTypeCounts() == nil, a store
// that has never committed) relationship cardinalities fall back to the
// DefaultStats fanout multipliers scaled by the real source-concept
// cardinality.
func FromStorage(o *ontology.Ontology, st storage.Statistics) *ontology.Stats {
	s := ontology.NewStats(16)
	labels := st.LabelCounts()
	for _, c := range o.Concepts {
		n := labels[c.Name]
		if n < 1 {
			n = 1
		}
		s.ConceptCard[c.Name] = n
	}

	types := st.EdgeTypeCounts()
	byName := map[string][]*ontology.Relationship{}
	for _, r := range o.Relationships {
		byName[r.Name] = append(byName[r.Name], r)
	}
	for name, rs := range byName {
		total, counted := 0, false
		if types != nil {
			total, counted = types[name]
		}
		if counted {
			share, rem := total/len(rs), total%len(rs)
			for i, r := range rs {
				n := share
				if i < rem {
					n++
				}
				if n < 1 {
					n = 1
				}
				s.RelCard[r.Key()] = n
			}
			continue
		}
		for _, r := range rs {
			base := s.ConceptCard[r.Src]
			switch r.Type {
			case ontology.OneToMany:
				base *= 4
			case ontology.ManyToMany:
				base *= 8
			}
			if base < 1 {
				base = 1
			}
			s.RelCard[r.Key()] = base
		}
	}
	return s
}
