package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ontology"
)

// PropType is a property declaration in a property graph schema.
type PropType struct {
	Name string
	Type ontology.DataType
	List bool
}

// NodeType is a node declaration in a property graph schema. A node type
// may carry several labels when concepts were merged (1:1 rule), in which
// case Name is the concatenation the paper uses (e.g. IndicationCondition).
type NodeType struct {
	Name   string
	Labels []string
	Props  []PropType
}

// EdgeType is an edge declaration in a property graph schema.
type EdgeType struct {
	Name string
	Src  string
	Dst  string
	Type ontology.RelType
}

// PGS is a property graph schema (Definition 2's schema counterpart),
// produced from a closed working graph.
type PGS struct {
	Nodes []*NodeType
	Edges []*EdgeType
}

// Node returns the node type containing the given label, or nil.
func (s *PGS) Node(label string) *NodeType {
	for _, n := range s.Nodes {
		for _, l := range n.Labels {
			if l == label {
				return n
			}
		}
	}
	return nil
}

// NumListProps counts LIST property declarations across all node types.
func (s *PGS) NumListProps() int {
	n := 0
	for _, nt := range s.Nodes {
		for _, p := range nt.Props {
			if p.List {
				n++
			}
		}
	}
	return n
}

// DDL renders the schema in the Cypher-flavoured data definition style the
// paper uses in Figures 4-7.
func (s *PGS) DDL() string {
	var b strings.Builder
	for _, n := range s.Nodes {
		parts := make([]string, 0, len(n.Props))
		for _, p := range n.Props {
			t := p.Type.String()
			if p.List {
				t = "LIST<" + t + ">"
			}
			name := p.Name
			if strings.ContainsAny(name, ". -") {
				name = "`" + name + "`"
			}
			parts = append(parts, name+" "+t)
		}
		fmt.Fprintf(&b, "%s (%s),\n", n.Name, strings.Join(parts, ", "))
	}
	for i, e := range s.Edges {
		fmt.Fprintf(&b, "(%s)-[%s]->(%s)", e.Src, e.Name, e.Dst)
		if i != len(s.Edges)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fingerprint returns a canonical string; two schemas are identical iff
// their fingerprints are equal (used by the Theorem 3 confluence test).
func (s *PGS) Fingerprint() string { return s.DDL() }

// GeneratePGS derives the property graph schema from the working graph,
// closing it first if necessary. Nodes dissolved by enabled rules (union
// concepts, absorbed children, fully pushed-down parents) are dropped, as
// in the paper's Figures 4-6.
func (g *Graph) GeneratePGS() *PGS {
	g.Close()
	removed := g.removedNodes()

	// Group membership (1:1 merges), ontology order.
	groups := map[string][]string{}
	for _, n := range g.order {
		root := g.find(n)
		groups[root] = append(groups[root], n)
	}

	// Suppress groups whose members are all removed; name surviving
	// groups after their alive members.
	groupName := map[string]string{} // root -> node type name ("" = suppressed)
	pgs := &PGS{}
	roots := make([]string, 0, len(groups))
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Strings(roots)
	for _, root := range roots {
		var alive []string
		for _, m := range groups[root] {
			if !removed[m] {
				alive = append(alive, m)
			}
		}
		if len(alive) == 0 {
			groupName[root] = ""
			continue
		}
		name := strings.Join(alive, "")
		groupName[root] = name
		nt := &NodeType{Name: name, Labels: alive}
		// Properties come from the whole merge group — a rule may have
		// landed a property on any member of a 1:1-merged group, and the
		// merged vertices carry them all regardless.
		for _, p := range g.groupProps(root) {
			nt.Props = append(nt.Props, PropType{Name: p.Name, Type: p.Type, List: p.List})
		}
		sort.Slice(nt.Props, func(i, j int) bool {
			// Scalars before lists, then by name — matching the paper's
			// DDL examples which list replicated properties last.
			if nt.Props[i].List != nt.Props[j].List {
				return !nt.Props[i].List
			}
			return nt.Props[i].Name < nt.Props[j].Name
		})
		pgs.Nodes = append(pgs.Nodes, nt)
	}
	sort.Slice(pgs.Nodes, func(i, j int) bool { return pgs.Nodes[i].Name < pgs.Nodes[j].Name })

	allEdges := g.snapshotEdges(nil)
	sortEdges(allEdges)
	seenEdges := map[string]bool{}
	for _, e := range allEdges {
		if g.edgeConsumed(e) {
			continue
		}
		src := groupName[g.find(e.Src)]
		dst := groupName[g.find(e.Dst)]
		if src == "" || dst == "" {
			continue
		}
		dk := fmt.Sprintf("%s|%s|%s|%d", src, e.Name, dst, e.Type)
		if seenEdges[dk] {
			continue
		}
		seenEdges[dk] = true
		pgs.Edges = append(pgs.Edges, &EdgeType{Name: e.Name, Src: src, Dst: dst, Type: e.Type})
	}
	sort.Slice(pgs.Edges, func(i, j int) bool {
		a, b := pgs.Edges[i], pgs.Edges[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Type < b.Type
	})
	return pgs
}

// edgeConsumed reports whether an enabled rule dissolved this edge.
func (g *Graph) edgeConsumed(e edge) bool {
	switch e.Type {
	case ontology.Union:
		return g.rules.Enabled(e.OrigKey, "", false)
	case ontology.OneToOne:
		// Only the original pair merges; copied 1:1 edges survive as
		// ordinary edges between the (possibly merged) node types.
		return g.orig[e] && g.rules.Enabled(e.OrigKey, "", false)
	case ontology.Inheritance:
		if !g.rules.Enabled(e.OrigKey, "", false) {
			return false
		}
		js := g.JS(e.OrigKey)
		return js > g.cfg.Theta1 || js < g.cfg.Theta2
	default:
		return false
	}
}

// removedNodes computes which concepts disappear from the schema:
//   - union concepts whose union rule is enabled (their members take over);
//   - children absorbed into parents (JS > θ1);
//   - parents pushed into every one of their children (all out-inheritance
//     edges enabled with JS < θ2), matching Figure 5(a) where the parent
//     node type vanishes from the schema.
func (g *Graph) removedNodes() map[string]bool {
	removed := map[string]bool{}
	ihOut := map[string][]edge{}
	allEdges := g.snapshotEdges(nil)
	sortEdges(allEdges)
	for _, e := range allEdges {
		if e.Src == e.Dst || g.sameGroup(e.Src, e.Dst) {
			continue // merge-induced self-loops carry no dissolution
		}
		switch e.Type {
		case ontology.Union:
			if g.rules.Enabled(e.OrigKey, "", false) {
				removed[e.Src] = true
			}
		case ontology.Inheritance:
			ihOut[e.Src] = append(ihOut[e.Src], e)
			if g.rules.Enabled(e.OrigKey, "", false) && g.JS(e.OrigKey) > g.cfg.Theta1 {
				removed[e.Dst] = true
			}
		}
	}
	for parent, edges := range ihOut {
		allPushed := true
		for _, e := range edges {
			if !g.rules.Enabled(e.OrigKey, "", false) || g.JS(e.OrigKey) >= g.cfg.Theta2 {
				allPushed = false
				break
			}
		}
		if allPushed && len(edges) > 0 {
			removed[parent] = true
		}
	}
	return removed
}
