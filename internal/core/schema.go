package core

import (
	"math/rand"
	"sort"

	"repro/internal/ontology"
)

// Config holds the optimizer thresholds of §3. The paper's default setting
// (used throughout §5.3) is θ1 = 0.66, θ2 = 0.33.
type Config struct {
	Theta1 float64 // child merges into parent when JS > Theta1
	Theta2 float64 // parent pushes into child when JS < Theta2
	// iterationSeed, when non-zero, shuffles the closure's edge visit
	// order. Only tests use it, to exercise Theorem 3.
	iterationSeed int64
}

// DefaultConfig returns the paper's default thresholds.
func DefaultConfig() Config {
	return Config{Theta1: 0.66, Theta2: 0.33}
}

// memoKey identifies one rule application site for version memoization.
type memoKey struct {
	e   edge
	rev bool
}

// prop is a property schema on a working-graph node group.
type prop struct {
	Name string
	Type ontology.DataType
	List bool
}

// edge is a working-graph edge, used directly as a map key. Copies made
// by rules keep the OrigKey of the ontology relationship they descend
// from, so selection (RuleSet) and statistics always resolve against the
// original ontology.
type edge struct {
	Name    string
	Src     string
	Dst     string
	Type    ontology.RelType
	OrigKey string
}

// Graph is the mutable working schema graph that the relationship rules
// transform. Build one with NewGraph, run Close, then GeneratePGS /
// BuildMapping.
//
// The rules are implemented as a monotone closure: every action only adds
// properties or edges, or merges nodes in a union-find, and every guard
// that can suppress an action depends only on immutable edge facts. The
// fixpoint is therefore unique regardless of iteration order — which is
// the paper's Theorem 3, checked by a property-based test.
type Graph struct {
	o     *ontology.Ontology
	cfg   Config
	rules *RuleSet
	js    map[string]float64

	order []string // original concept order, for deterministic output

	edges map[edge]bool
	bySrc map[string][]edge // incidence indexes by original endpoint name
	byDst map[string][]edge

	uf      map[string]string          // 1:1 union-find (parent pointers)
	members map[string][]string        // UF root -> member concept names
	props   map[string]map[string]prop // UF root -> property name -> prop
	// Cached sorted views of props, invalidated on writes; the closure
	// reads group properties once per edge per pass, so recomputing them
	// dominates runtime without the cache.
	sortedCache map[string][]prop // all props, sorted by name
	scalarCache map[string][]prop // non-list props, sorted by name

	orig map[edge]bool // edges present in the original ontology

	// version counts changes (props, incident edges, merges) per group
	// root; rule applications memoize the versions they last ran against
	// and skip re-execution when neither side changed.
	version map[string]int
	memo    map[memoKey][2]int

	closed bool
}

// NewGraph initializes the working graph from the ontology with the given
// enabled rule set.
func NewGraph(o *ontology.Ontology, rules *RuleSet, cfg Config) (*Graph, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	js, err := JaccardScores(o)
	if err != nil {
		return nil, err
	}
	g := &Graph{
		o:           o,
		cfg:         cfg,
		rules:       rules,
		js:          js,
		edges:       map[edge]bool{},
		bySrc:       map[string][]edge{},
		byDst:       map[string][]edge{},
		uf:          map[string]string{},
		members:     map[string][]string{},
		props:       map[string]map[string]prop{},
		sortedCache: map[string][]prop{},
		scalarCache: map[string][]prop{},
		orig:        map[edge]bool{},
		version:     map[string]int{},
		memo:        map[memoKey][2]int{},
	}
	for _, c := range o.Concepts {
		g.order = append(g.order, c.Name)
		g.uf[c.Name] = c.Name
		g.members[c.Name] = []string{c.Name}
		pm := make(map[string]prop, len(c.Props))
		for _, p := range c.Props {
			pm[p.Name] = prop{Name: p.Name, Type: p.Type}
		}
		g.props[c.Name] = pm
	}
	for _, r := range o.Relationships {
		e := edge{Name: r.Name, Src: r.Src, Dst: r.Dst, Type: r.Type, OrigKey: r.Key()}
		g.addEdge(e)
		g.orig[e] = true
	}
	return g, nil
}

// find returns the 1:1 merge representative of a concept.
func (g *Graph) find(name string) string {
	root := name
	for g.uf[root] != root {
		root = g.uf[root]
	}
	for g.uf[name] != root {
		g.uf[name], name = root, g.uf[name]
	}
	return root
}

// mergeNodes records a 1:1 merge; the smaller name becomes representative
// so results are order-independent.
func (g *Graph) mergeNodes(a, b string) bool {
	ra, rb := g.find(a), g.find(b)
	if ra == rb {
		return false
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	g.uf[rb] = ra
	g.members[ra] = append(g.members[ra], g.members[rb]...)
	delete(g.members, rb)
	dst := g.props[ra]
	for name, p := range g.props[rb] {
		if _, ok := dst[name]; !ok {
			dst[name] = p
		}
	}
	delete(g.props, rb)
	delete(g.sortedCache, ra)
	delete(g.scalarCache, ra)
	delete(g.sortedCache, rb)
	delete(g.scalarCache, rb)
	// The merged group's version must exceed everything memoized against
	// either side.
	if g.version[rb] > g.version[ra] {
		g.version[ra] = g.version[rb]
	}
	g.version[ra]++
	delete(g.version, rb)
	return true
}

// sameGroup reports whether two concepts are 1:1-merged.
func (g *Graph) sameGroup(a, b string) bool { return g.find(a) == g.find(b) }

// groupProps returns the union of the properties of every concept merged
// with name, sorted by property name. The result is cached per group and
// must not be mutated.
func (g *Graph) groupProps(name string) []prop {
	root := g.find(name)
	if cached, ok := g.sortedCache[root]; ok {
		return cached
	}
	pm := g.props[root]
	out := make([]prop, 0, len(pm))
	for _, p := range pm {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	g.sortedCache[root] = out
	return out
}

// groupScalarProps is groupProps restricted to non-list properties, the
// candidates for 1:M / M:N replication.
func (g *Graph) groupScalarProps(name string) []prop {
	root := g.find(name)
	if cached, ok := g.scalarCache[root]; ok {
		return cached
	}
	all := g.groupProps(root)
	out := make([]prop, 0, len(all))
	for _, p := range all {
		if !p.List {
			out = append(out, p)
		}
	}
	g.scalarCache[root] = out
	return out
}

// addProp adds a property to the node's merge group, reporting whether
// the set grew.
func (g *Graph) addProp(nodeName string, p prop) bool {
	root := g.find(nodeName)
	pm := g.props[root]
	if _, ok := pm[p.Name]; ok {
		return false
	}
	pm[p.Name] = p
	delete(g.sortedCache, root)
	delete(g.scalarCache, root)
	g.version[root]++
	return true
}

// addEdge inserts an edge, reporting whether it is new.
func (g *Graph) addEdge(e edge) bool {
	if g.edges[e] {
		return false
	}
	g.edges[e] = true
	g.bySrc[e.Src] = append(g.bySrc[e.Src], e)
	g.byDst[e.Dst] = append(g.byDst[e.Dst], e)
	g.version[g.find(e.Src)]++
	g.version[g.find(e.Dst)]++
	return true
}

// snapshotEdges returns the current edges; sorted only when a test seed
// demands a specific shuffle (the fixpoint is order-independent).
func (g *Graph) snapshotEdges(rng *rand.Rand) []edge {
	out := make([]edge, 0, len(g.edges))
	for e := range g.edges {
		out = append(out, e)
	}
	if rng != nil {
		sortEdges(out)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

func sortEdges(es []edge) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		return a.OrigKey < b.OrigKey
	})
}

// JS returns the Jaccard similarity associated with an inheritance edge
// (resolved through its original relationship).
func (g *Graph) JS(origKey string) float64 { return g.js[origKey] }

// Close runs every enabled rule to fixpoint. It is the engine behind
// Algorithm 5 (with AllRules) and behind the constrained algorithms (with
// a selected subset). Termination follows because every action strictly
// grows a finite set (properties, edges, or merged pairs).
func (g *Graph) Close() {
	if g.closed {
		return
	}
	var rng *rand.Rand
	if g.cfg.iterationSeed != 0 {
		rng = rand.New(rand.NewSource(g.cfg.iterationSeed))
	}
	for {
		changed := false
		for _, e := range g.snapshotEdges(rng) {
			switch e.Type {
			case ontology.OneToOne:
				// Only the original 1:1 relationship merges its node
				// pair. Copies produced by other rules stay ordinary
				// edges: Theorem 3 deliberately excludes the 1:1 rule,
				// and transitively merging through copies would collapse
				// unrelated concepts.
				if g.orig[e] && g.rules.Enabled(e.OrigKey, "", false) {
					if g.mergeNodes(e.Src, e.Dst) {
						changed = true
					}
				}
			case ontology.Union:
				if g.rules.Enabled(e.OrigKey, "", false) {
					if g.memoized(e, false, func() bool { return g.applyUnion(e) }) {
						changed = true
					}
				}
			case ontology.Inheritance:
				if g.rules.Enabled(e.OrigKey, "", false) {
					if g.memoized(e, false, func() bool { return g.applyInheritance(e) }) {
						changed = true
					}
				}
			case ontology.OneToMany:
				if g.memoized(e, false, func() bool { return g.applyReplicate(e, e.Src, e.Dst, false) }) {
					changed = true
				}
			case ontology.ManyToMany:
				if g.memoized(e, false, func() bool { return g.applyReplicate(e, e.Src, e.Dst, false) }) {
					changed = true
				}
				if g.memoized(e, true, func() bool { return g.applyReplicate(e, e.Dst, e.Src, true) }) {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	g.closed = true
}

// memoized skips a rule application when neither endpoint group changed
// since its last execution. Rule applications are deterministic functions
// of the two group states, so re-running them against unchanged state is
// a no-op; skipping preserves the fixpoint.
func (g *Graph) memoized(e edge, rev bool, apply func() bool) bool {
	key := memoKey{e: e, rev: rev}
	srcRoot, dstRoot := g.find(e.Src), g.find(e.Dst)
	cur := [2]int{g.version[srcRoot], g.version[dstRoot]}
	if prev, ok := g.memo[key]; ok && prev == cur {
		return false
	}
	// Record the PRE-apply versions: if the application itself bumps
	// either group (e.g. a copy that lands back inside its own group and
	// enables a further copy), the next pass must re-run it until the
	// site quiesces.
	g.memo[key] = cur
	return apply()
}

// applyUnion implements Algorithm 1: the member concept (e.Dst) takes over
// every non-union relationship of the union concept (e.Src), and — as a
// documented extension — the union concept's data properties, so that
// queries on them keep working after the union node is dissolved.
func (g *Graph) applyUnion(e edge) bool {
	u, m := e.Src, e.Dst
	changed := false
	for _, p := range g.groupProps(u) {
		if g.addProp(m, p) {
			changed = true
		}
	}
	if g.copyIncidentEdges(u, m, func(r edge) bool { return r.Type != ontology.Union }) {
		changed = true
	}
	return changed
}

// applyInheritance implements Algorithm 2: depending on the Jaccard
// similarity of the original relationship, the child is absorbed by the
// parent (JS > θ1), the parent is pushed into the child (JS < θ2), or
// nothing happens and the isA edge survives into the schema.
func (g *Graph) applyInheritance(e edge) bool {
	js := g.JS(e.OrigKey)
	p, c := e.Src, e.Dst
	// keep decides which edges transfer to the absorbing node. The guards
	// are deliberately immutable (edge type and original endpoint names)
	// — guards that could flip as merges accumulate would break the
	// order-independence of Theorem 3:
	//   - inheritance edges never transfer (Algorithm 2 and Equation 4
	//     exclude R_ih wholesale: siblings must not become each other's
	//     parents, and the consumed relationship itself disappears);
	//   - being a union *concept* is not a transferable role, so union
	//     edges whose source is the dissolving node stay behind (union
	//     memberships, where the dissolving node is the member, do
	//     transfer — appendix Figure 13(c)).
	keep := func(dissolving string) func(edge) bool {
		return func(r edge) bool {
			if r.Type == ontology.Inheritance {
				return false
			}
			if r.Type == ontology.Union && r.Src == dissolving {
				return false
			}
			return true
		}
	}
	changed := false
	switch {
	case js > g.cfg.Theta1:
		// Child merges into parent: parent gains the child's properties
		// and relationships.
		for _, q := range g.groupProps(c) {
			if g.addProp(p, q) {
				changed = true
			}
		}
		if g.copyIncidentEdges(c, p, keep(c)) {
			changed = true
		}
	case js < g.cfg.Theta2:
		// Parent pushes down into child.
		for _, q := range g.groupProps(p) {
			if g.addProp(c, q) {
				changed = true
			}
		}
		if g.copyIncidentEdges(p, c, keep(p)) {
			changed = true
		}
	}
	return changed
}

// copyIncidentEdges copies every edge incident to from's merge group onto
// to (with endpoint substitution), keeping OrigKey so selection and
// statistics still resolve. Returns whether anything was added.
//
// The operation is deliberately monotone: incidence via a growing merge
// group only ever enables more copies, and keep() only inspects immutable
// edge facts, so the closure's fixpoint is order-independent (Theorem 3).
// When both endpoints lie in from's group, both one-sided substitutions
// are emitted.
func (g *Graph) copyIncidentEdges(from, to string, keep func(edge) bool) bool {
	changed := false
	root := g.find(from)
	// Snapshot the incident lists: addEdge appends to the indexes we are
	// reading when to's group overlaps from's.
	var incidentSrc, incidentDst []edge
	for _, m := range g.members[root] {
		incidentSrc = append(incidentSrc, g.bySrc[m]...)
		incidentDst = append(incidentDst, g.byDst[m]...)
	}
	for _, r := range incidentSrc {
		if !keep(r) {
			continue
		}
		cp := r
		cp.Src = to
		if g.addEdge(cp) {
			changed = true
		}
	}
	for _, r := range incidentDst {
		if !keep(r) {
			continue
		}
		cp := r
		cp.Dst = to
		if g.addEdge(cp) {
			changed = true
		}
	}
	return changed
}

// applyReplicate implements Algorithm 4 (and its M:N generalization): each
// enabled scalar property of the far concept is replicated onto the near
// concept as a LIST property named "<FarNode>.<prop>" (Figure 7). Only
// scalar properties propagate, so replication cannot cascade into lists
// of lists.
func (g *Graph) applyReplicate(e edge, near, far string, reverse bool) bool {
	changed := false
	wildcard := g.rules.Enabled(e.OrigKey, "*", reverse)
	for _, q := range g.groupScalarProps(far) {
		if !wildcard && !g.rules.Enabled(e.OrigKey, q.Name, reverse) {
			continue
		}
		lp := prop{Name: far + "." + q.Name, Type: q.Type, List: true}
		if g.addProp(near, lp) {
			changed = true
		}
	}
	return changed
}
