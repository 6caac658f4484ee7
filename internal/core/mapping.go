package core

import (
	"sort"

	"repro/internal/ontology"
)

// MergeKind enumerates the instance-level merges an optimized schema
// implies.
type MergeKind int

const (
	// MergeUnion merges each union-facet vertex into its member vertex.
	MergeUnion MergeKind = iota
	// MergeChildIntoParent merges each child vertex into its parent-facet
	// vertex (JS > θ1).
	MergeChildIntoParent
	// MergeParentIntoChild merges each parent-facet vertex into its child
	// vertex (JS < θ2).
	MergeParentIntoChild
	// MergeOneToOne merges the paired vertices of a 1:1 relationship.
	MergeOneToOne
)

// String names the merge kind.
func (k MergeKind) String() string {
	switch k {
	case MergeUnion:
		return "union"
	case MergeChildIntoParent:
		return "child->parent"
	case MergeParentIntoChild:
		return "parent->child"
	case MergeOneToOne:
		return "1:1"
	default:
		return "unknown"
	}
}

// Merge records that the DIR graph's instance edge for a relationship is
// collapsed in the OPT graph: the two endpoint vertices become one vertex
// carrying both labels.
type Merge struct {
	Kind MergeKind
	// RelKey is the original ontology relationship.
	RelKey string
	// EdgeName is the instance edge label in the DIR graph ("unionOf",
	// "isA", or the 1:1 relationship name).
	EdgeName string
	// From and To are the DIR instance edge's endpoint concepts in edge
	// direction: member→union for unions, child→parent for inheritance,
	// src→dst for 1:1.
	From, To string
}

// ListProp records that a destination property is replicated onto source
// vertices as a LIST property (1:M rule, and M:N in either direction).
type ListProp struct {
	RelKey   string
	EdgeName string
	// Carrier is the concept whose vertices carry the list property.
	Carrier string
	// Neighbor is the concept whose property is replicated.
	Neighbor string
	// Prop is the neighbor property name; Key is the list property name
	// on carrier vertices ("Neighbor.Prop", Figure 7).
	Prop string
	Key  string
	// Reverse is true for the dst→src direction of an M:N relationship.
	Reverse bool
	// Unambiguous is true when the carrier/neighbor concept pair is
	// connected by exactly one ontology relationship, which is what lets
	// the rewriter replace a traversal+aggregate with the local list.
	Unambiguous bool
}

// ScalarKey records that a concept's scalar property is stored under a
// qualified physical key on OPT vertices: another concept of its merge
// group declares a property of the same name, and a merged vertex holds
// one value per key, so under the plain name one member's value would
// overwrite the other's.
type ScalarKey struct {
	Concept, Prop string
	// Key is the physical key, "Concept:prop".
	Key string
}

// Mapping is the schema transformation trace: everything the loader needs
// to instantiate a property graph for the optimized schema, and everything
// the rewriter needs to translate DIR queries into OPT queries.
type Mapping struct {
	Config    Config
	Merges    []Merge
	ListProps []ListProp
	// ScalarKeys lists the qualified scalar keys, sorted by concept and
	// property; a (concept, property) pair not listed keeps its name.
	ScalarKeys []ScalarKey
	// Removed lists concepts without an own node type in the optimized
	// schema (union concepts, absorbed children, fully pushed parents).
	Removed map[string]bool
	// JS records the Jaccard similarity per inheritance relationship key.
	JS map[string]float64
}

// BuildMapping derives the mapping from the closed working graph. Only
// original ontology relationships appear (edge copies created during the
// closure are schema-level artifacts; at instance level the copied edges
// materialize automatically once vertices are merged).
func (g *Graph) BuildMapping() *Mapping {
	g.Close()
	m := &Mapping{
		Config:  g.cfg,
		Removed: g.removedNodes(),
		JS:      map[string]float64{},
	}
	for k, v := range g.js {
		m.JS[k] = v
	}
	relCount := map[[2]string]int{}
	for _, r := range g.o.Relationships {
		a, b := r.Src, r.Dst
		if b < a {
			a, b = b, a
		}
		relCount[[2]string{a, b}]++
	}
	unambiguous := func(x, y string) bool {
		if y < x {
			x, y = y, x
		}
		return relCount[[2]string{x, y}] == 1
	}
	for _, r := range g.o.Relationships {
		switch r.Type {
		case ontology.Union:
			if g.rules.Enabled(r.Key(), "", false) {
				m.Merges = append(m.Merges, Merge{
					Kind: MergeUnion, RelKey: r.Key(), EdgeName: r.Name,
					From: r.Dst, To: r.Src, // member -> union facet
				})
			}
		case ontology.Inheritance:
			if !g.rules.Enabled(r.Key(), "", false) {
				continue
			}
			js := g.js[r.Key()]
			switch {
			case js > g.cfg.Theta1:
				m.Merges = append(m.Merges, Merge{
					Kind: MergeChildIntoParent, RelKey: r.Key(), EdgeName: r.Name,
					From: r.Dst, To: r.Src, // child -> parent facet
				})
			case js < g.cfg.Theta2:
				m.Merges = append(m.Merges, Merge{
					Kind: MergeParentIntoChild, RelKey: r.Key(), EdgeName: r.Name,
					From: r.Dst, To: r.Src,
				})
			}
		case ontology.OneToOne:
			if g.rules.Enabled(r.Key(), "", false) {
				m.Merges = append(m.Merges, Merge{
					Kind: MergeOneToOne, RelKey: r.Key(), EdgeName: r.Name,
					From: r.Src, To: r.Dst,
				})
			}
		case ontology.OneToMany, ontology.ManyToMany:
			dst := g.o.Concept(r.Dst)
			if dst != nil {
				for _, p := range dst.Props {
					if g.rules.Enabled(r.Key(), p.Name, false) {
						m.ListProps = append(m.ListProps, ListProp{
							RelKey: r.Key(), EdgeName: r.Name,
							Carrier: r.Src, Neighbor: r.Dst,
							Prop: p.Name, Key: r.Dst + "." + p.Name,
							Unambiguous: unambiguous(r.Src, r.Dst),
						})
					}
				}
			}
			if r.Type != ontology.ManyToMany {
				continue
			}
			src := g.o.Concept(r.Src)
			if src != nil {
				for _, p := range src.Props {
					if g.rules.Enabled(r.Key(), p.Name, true) {
						m.ListProps = append(m.ListProps, ListProp{
							RelKey: r.Key(), EdgeName: r.Name,
							Carrier: r.Dst, Neighbor: r.Src,
							Prop: p.Name, Key: r.Src + "." + p.Name,
							Reverse:     true,
							Unambiguous: unambiguous(r.Src, r.Dst),
						})
					}
				}
			}
		}
	}
	sort.Slice(m.Merges, func(i, j int) bool {
		if m.Merges[i].RelKey != m.Merges[j].RelKey {
			return m.Merges[i].RelKey < m.Merges[j].RelKey
		}
		return m.Merges[i].Kind < m.Merges[j].Kind
	})
	sort.Slice(m.ListProps, func(i, j int) bool {
		a, b := m.ListProps[i], m.ListProps[j]
		if a.RelKey != b.RelKey {
			return a.RelKey < b.RelKey
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return !a.Reverse && b.Reverse
	})
	m.markColocatedListProps()
	m.qualifyColocatedScalars(g.o)
	return m
}

// mergeGroups returns the union-find root of each concept the enabled
// merges connect: concepts with one root may share an OPT vertex.
func (m *Mapping) mergeGroups() func(string) string {
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	for _, mg := range m.Merges {
		a, b := find(mg.From), find(mg.To)
		if a != b {
			parent[a] = b
		}
	}
	return find
}

// qualifyColocatedScalars gives a qualified physical key to every scalar
// property that two concepts of one merge group both declare, as
// markColocatedListProps keeps the traversal for colliding lists.
func (m *Mapping) qualifyColocatedScalars(o *ontology.Ontology) {
	find := m.mergeGroups()
	declared := map[[2]string][]string{} // (group root, property) -> concepts
	for _, c := range o.Concepts {
		for _, p := range c.Props {
			k := [2]string{find(c.Name), p.Name}
			declared[k] = append(declared[k], c.Name)
		}
	}
	for k, concepts := range declared {
		if len(concepts) < 2 {
			continue
		}
		for _, c := range concepts {
			m.ScalarKeys = append(m.ScalarKeys, ScalarKey{Concept: c, Prop: k[1], Key: c + ":" + k[1]})
		}
	}
	sort.Slice(m.ScalarKeys, func(i, j int) bool {
		a, b := m.ScalarKeys[i], m.ScalarKeys[j]
		if a.Concept != b.Concept {
			return a.Concept < b.Concept
		}
		return a.Prop < b.Prop
	})
}

// PropKey returns the physical key of a concept's scalar property on OPT
// vertices: its qualified key when ScalarKeys lists the pair, else the
// property's own name.
func (m *Mapping) PropKey(concept, prop string) string {
	for _, sk := range m.ScalarKeys {
		if sk.Concept == concept && sk.Prop == prop {
			return sk.Key
		}
	}
	return prop
}

// markColocatedListProps demotes replication entries whose list property
// name collides on vertices that the enabled merges can fuse: if carriers
// A and B are merge-connected and both carry a list named "X.p" coming
// from different relationships, a merged vertex holds only one of the two
// value lists, so the rewriter must keep the traversal for both.
func (m *Mapping) markColocatedListProps() {
	find := m.mergeGroups()
	byKey := map[string][]int{}
	for i := range m.ListProps {
		byKey[m.ListProps[i].Key] = append(byKey[m.ListProps[i].Key], i)
	}
	for _, idxs := range byKey {
		for i := 0; i < len(idxs); i++ {
			for j := i + 1; j < len(idxs); j++ {
				a, b := &m.ListProps[idxs[i]], &m.ListProps[idxs[j]]
				if a.RelKey == b.RelKey && a.Reverse == b.Reverse {
					continue
				}
				if find(a.Carrier) == find(b.Carrier) {
					a.Unambiguous = false
					b.Unambiguous = false
				}
			}
		}
	}
}

// MergeFor returns the merge that collapses the instance edge between the
// two concepts with the given edge label, or nil.
func (m *Mapping) MergeFor(fromConcept, toConcept, edgeName string) *Merge {
	for i := range m.Merges {
		mg := &m.Merges[i]
		if mg.EdgeName != edgeName {
			continue
		}
		if mg.From == fromConcept && mg.To == toConcept {
			return mg
		}
	}
	return nil
}
