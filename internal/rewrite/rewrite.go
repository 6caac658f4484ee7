// Package rewrite translates Cypher queries written against the direct
// (DIR) schema into semantically equivalent queries against an optimized
// (OPT) schema, driven by the optimizer's mapping trace:
//
//   - hops over collapsed relationships (unionOf, isA, merged 1:1 edges)
//     are eliminated by unifying the two pattern nodes into one multi-label
//     node, since the optimized graph merged those vertices (§3, Figures
//     4-6);
//   - traversal-plus-aggregation over a replicated 1:M / M:N property is
//     replaced by the local LIST property (Figure 7): COLLECT(x.p) becomes
//     carrier.`X.p` and COUNT(x.p) becomes size(carrier.`X.p`);
//   - a read of a scalar property that two concepts of one merge group
//     declare reads the reading concept's qualified key: x.p on an X node
//     becomes x.`X:p` (core.Mapping.ScalarKeys).
package rewrite

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cypher"
)

// Options tunes the rewrite.
type Options struct {
	// LocalizeScalarLookups also rewrites non-aggregated neighbor
	// property lookups (RETURN x.p) to the local list property. This is
	// the paper's Q6 behaviour; it returns one list row instead of one
	// row per neighbor, so it is opt-in.
	LocalizeScalarLookups bool
}

// Rewrite returns the translated query; the input is not modified. The
// second return lists human-readable notes of the transformations
// applied (used by example programs and the benchmark report).
func Rewrite(q *cypher.Query, m *core.Mapping, opts Options) (*cypher.Query, []string, error) {
	out := q.Clone()
	var notes []string
	// Qualify colliding scalar keys while each variable still names the
	// one concept it binds in DIR; collapsing merges them.
	qualifyKeys(out, m)
	// Collapse merged hops to fixpoint.
	for {
		changed, note, err := collapseOnce(out, m)
		if err != nil {
			return nil, nil, err
		}
		if !changed {
			break
		}
		notes = append(notes, note)
	}
	ln, err := localizeLists(out, m, opts)
	if err != nil {
		return nil, nil, err
	}
	notes = append(notes, ln...)
	return out, notes, nil
}

// qualifyKeys rewrites every property key — inline constraints and reads
// in WHERE, RETURN and ORDER BY — to its physical key on the OPT graph,
// taken from the first label of the node (or the variable's nodes) whose
// concept the mapping qualifies it for.
func qualifyKeys(q *cypher.Query, m *core.Mapping) {
	if len(m.ScalarKeys) == 0 {
		return
	}
	physical := func(labels []string, key string) string {
		for _, l := range labels {
			if pk := m.PropKey(l, key); pk != key {
				return pk
			}
		}
		return key
	}
	labelsOf := map[string][]string{}
	for _, pat := range q.Patterns {
		for _, n := range pat.Nodes {
			if n.Var != "" {
				labelsOf[n.Var] = append(labelsOf[n.Var], n.Labels...)
			}
			if len(n.Props) == 0 {
				continue
			}
			props := make(map[string]cypher.Expr, len(n.Props))
			for k, v := range n.Props {
				props[physical(n.Labels, k)] = v
			}
			n.Props = props
		}
	}
	var walk func(e cypher.Expr)
	walk = func(e cypher.Expr) {
		switch x := e.(type) {
		case *cypher.PropAccess:
			x.Key = physical(labelsOf[x.Var], x.Key)
		case *cypher.Binary:
			walk(x.L)
			walk(x.R)
		case *cypher.Not:
			walk(x.E)
		case *cypher.FuncCall:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	if q.Where != nil {
		walk(q.Where)
	}
	for _, ri := range q.Return {
		walk(ri.Expr)
	}
	for _, s := range q.OrderBy {
		walk(s.Expr)
	}
}

// collapseOnce finds one hop whose relationship the mapping collapsed and
// unifies its endpoints. Returns whether a change was made.
func collapseOnce(q *cypher.Query, m *core.Mapping) (bool, string, error) {
	for _, pat := range q.Patterns {
		for i, rel := range pat.Rels {
			left, right := pat.Nodes[i], pat.Nodes[i+1]
			src, dst := left, right
			if rel.Dir == cypher.DirIn {
				src, dst = right, left
			}
			mg := findMerge(m, src.Labels, dst.Labels, rel.Type)
			if mg == nil {
				continue
			}
			if err := unify(q, pat, i, src, dst); err != nil {
				return false, "", err
			}
			return true, fmt.Sprintf("collapsed %s hop %s->%s (%s rule)", rel.Type, mg.From, mg.To, mg.Kind), nil
		}
	}
	return false, "", nil
}

// findMerge locates a mapping merge whose From/To concepts appear among
// the two nodes' labels with the given edge label.
func findMerge(m *core.Mapping, srcLabels, dstLabels []string, edgeName string) *core.Merge {
	for _, la := range srcLabels {
		for _, lb := range dstLabels {
			if mg := m.MergeFor(la, lb, edgeName); mg != nil {
				return mg
			}
		}
	}
	return nil
}

// unify merges node `other` into node `survivor`, removing hop i of the
// pattern and renaming every reference.
func unify(q *cypher.Query, pat *cypher.PathPattern, hop int, survivor, other *cypher.NodePattern) error {
	// Labels union (survivor's first, preserving order).
	seen := map[string]bool{}
	for _, l := range survivor.Labels {
		seen[l] = true
	}
	for _, l := range other.Labels {
		if !seen[l] {
			seen[l] = true
			survivor.Labels = append(survivor.Labels, l)
		}
	}
	// Property constraints: both must hold on the merged vertex.
	for k, v := range other.Props {
		if prev, ok := survivor.Props[k]; ok && !sameValue(prev, v) {
			return fmt.Errorf("rewrite: conflicting property constraint %s on merged nodes", k)
		}
		if survivor.Props == nil {
			survivor.Props = map[string]cypher.Expr{}
		}
		survivor.Props[k] = v
	}
	// Variable unification.
	switch {
	case survivor.Var == "":
		survivor.Var = other.Var
	case other.Var != "" && other.Var != survivor.Var:
		renameVar(q, other.Var, survivor.Var)
	}
	// Drop the other node and the hop from the pattern.
	var nodes []*cypher.NodePattern
	for _, n := range pat.Nodes {
		if n != other {
			nodes = append(nodes, n)
		}
	}
	pat.Nodes = nodes
	pat.Rels = append(pat.Rels[:hop], pat.Rels[hop+1:]...)
	return nil
}

// sameValue reports whether two constraint values are equal: two
// literals by value, two parameter slots by slot. A shape key gives equal
// literals one slot and keeps any literal a slot could equal out of the
// slots (cypher.Shape), so a slot equals no literal.
func sameValue(a, b cypher.Expr) bool {
	switch x := a.(type) {
	case *cypher.Literal:
		y, ok := b.(*cypher.Literal)
		return ok && x.Val.Equal(y.Val)
	case *cypher.Param:
		y, ok := b.(*cypher.Param)
		return ok && x.Slot == y.Slot
	}
	return false
}

// renameVar rewrites every reference to a pattern variable.
func renameVar(q *cypher.Query, from, to string) {
	for _, pat := range q.Patterns {
		for _, n := range pat.Nodes {
			if n.Var == from {
				n.Var = to
			}
		}
	}
	if q.Where != nil {
		renameInExpr(q.Where, from, to)
	}
	for _, ri := range q.Return {
		renameInExpr(ri.Expr, from, to)
	}
	for _, s := range q.OrderBy {
		renameInExpr(s.Expr, from, to)
	}
}

func renameInExpr(e cypher.Expr, from, to string) {
	switch x := e.(type) {
	case *cypher.PropAccess:
		if x.Var == from {
			x.Var = to
		}
	case *cypher.VarRef:
		if x.Name == from {
			x.Name = to
		}
	case *cypher.Binary:
		renameInExpr(x.L, from, to)
		renameInExpr(x.R, from, to)
	case *cypher.Not:
		renameInExpr(x.E, from, to)
	case *cypher.FuncCall:
		for _, a := range x.Args {
			renameInExpr(a, from, to)
		}
	}
}

// localizeLists rewrites traversal+aggregation patterns into local list
// property reads.
func localizeLists(q *cypher.Query, m *core.Mapping, opts Options) ([]string, error) {
	var notes []string
	for _, pat := range q.Patterns {
		for {
			changed, note := tryLocalizeEnd(q, pat, m, opts)
			if !changed {
				break
			}
			notes = append(notes, note)
		}
	}
	return notes, nil
}

// tryLocalizeEnd attempts to remove one terminal hop of the pattern whose
// far node is consumed only by localizable property reads.
func tryLocalizeEnd(q *cypher.Query, pat *cypher.PathPattern, m *core.Mapping, opts Options) (bool, string) {
	if len(pat.Rels) == 0 {
		return false, ""
	}
	ends := []struct {
		hop      int
		farLeft  bool
		far, nir *cypher.NodePattern // far = candidate for removal
	}{
		{0, true, pat.Nodes[0], pat.Nodes[1]},
		{len(pat.Rels) - 1, false, pat.Nodes[len(pat.Nodes)-1], pat.Nodes[len(pat.Nodes)-2]},
	}
	for _, end := range ends {
		if len(pat.Nodes) < 2 {
			return false, ""
		}
		rel := pat.Rels[end.hop]
		far, near := end.far, end.nir
		if far == near {
			continue
		}
		// Orientation: the instance-edge source is the far node exactly
		// when (far is the textual left node) == (the arrow points
		// left-to-right).
		src, dst := near, far
		if end.farLeft == (rel.Dir == cypher.DirOut) {
			src, dst = far, near
		}
		if far.Var == "" || len(far.Props) > 0 {
			continue
		}
		lps, carrier := matchListProps(m, src, dst, far, rel.Type)
		if len(lps) == 0 {
			continue
		}
		if !replaceFarUses(q, pat, far, carrier, lps, opts) {
			continue
		}
		// Remove the hop and the far node.
		var nodes []*cypher.NodePattern
		for _, n := range pat.Nodes {
			if n != far {
				nodes = append(nodes, n)
			}
		}
		pat.Nodes = nodes
		pat.Rels = append(pat.Rels[:end.hop], pat.Rels[end.hop+1:]...)
		return true, fmt.Sprintf("localized %s properties onto %s as list reads", far.Labels, carrier.Var)
	}
	return false, ""
}

// matchListProps collects the replication entries where far is the
// neighbor and the other endpoint is the carrier, keyed by the neighbor
// property's physical key, which far's reads name after qualifyKeys.
// Only unambiguous entries (a single relationship between the concept
// pair) are used, since the loader's list contents correspond to that
// relationship's links.
func matchListProps(m *core.Mapping, src, dst, far *cypher.NodePattern, edgeName string) (map[string]*core.ListProp, *cypher.NodePattern) {
	carrier := src
	if far == src {
		carrier = dst
	}
	out := map[string]*core.ListProp{}
	for _, cl := range carrier.Labels {
		for _, fl := range far.Labels {
			for i := range m.ListProps {
				lp := &m.ListProps[i]
				if !lp.Unambiguous || lp.Carrier != cl || lp.Neighbor != fl {
					continue
				}
				if edgeName != "" && lp.EdgeName != edgeName {
					continue
				}
				// Orientation check: forward replication runs
				// carrier->neighbor, reverse runs neighbor->carrier.
				if !lp.Reverse && carrier != src {
					continue
				}
				if lp.Reverse && carrier != dst {
					continue
				}
				if k := m.PropKey(lp.Neighbor, lp.Prop); out[k] == nil {
					out[k] = lp
				}
			}
		}
	}
	return out, carrier
}

// replaceFarUses rewrites every use of the far node's variable, provided
// all of them are localizable reads of replicated properties. Returns
// false (leaving the query untouched) otherwise.
func replaceFarUses(q *cypher.Query, pat *cypher.PathPattern, far, carrier *cypher.NodePattern, lps map[string]*core.ListProp, opts Options) bool {
	// The far variable must not appear in WHERE, other patterns, ORDER
	// BY, or as another hop's endpoint.
	if q.Where != nil && exprUsesVar(q.Where, far.Var) {
		return false
	}
	for _, p := range q.Patterns {
		for _, n := range p.Nodes {
			if n != far && n.Var == far.Var {
				return false
			}
		}
	}
	for _, s := range q.OrderBy {
		if exprUsesVar(s.Expr, far.Var) {
			return false
		}
	}
	// The hop must exist only to reach the replicated properties: the far
	// variable must actually be read in RETURN. An unused far node still
	// multiplies rows (one per edge), so its hop must stay.
	used := false
	for _, ri := range q.Return {
		if exprUsesVar(ri.Expr, far.Var) {
			used = true
		}
	}
	if !used {
		return false
	}
	if carrier.Var == "" {
		carrier.Var = "_rw_carrier"
	}
	// Validate every RETURN usage first.
	for _, ri := range q.Return {
		if !localizable(ri.Expr, far.Var, lps, opts, false) {
			return false
		}
	}
	for i, ri := range q.Return {
		q.Return[i].Expr = rewriteExpr(ri.Expr, far.Var, carrier.Var, lps)
	}
	return true
}

func exprUsesVar(e cypher.Expr, v string) bool {
	if v == "" {
		return false
	}
	vars := map[string]bool{}
	cypher.Vars(e, vars)
	return vars[v]
}

// localizable checks that every use of farVar within e is an aggregate
// (or, with the option, bare) read of a replicated property.
func localizable(e cypher.Expr, farVar string, lps map[string]*core.ListProp, opts Options, insideAgg bool) bool {
	switch x := e.(type) {
	case *cypher.PropAccess:
		if x.Var != farVar {
			return true
		}
		if lps[x.Key] == nil {
			return false
		}
		return insideAgg || opts.LocalizeScalarLookups
	case *cypher.VarRef:
		return x.Name != farVar
	case *cypher.Binary:
		return localizable(x.L, farVar, lps, opts, insideAgg) && localizable(x.R, farVar, lps, opts, insideAgg)
	case *cypher.Not:
		return localizable(x.E, farVar, lps, opts, insideAgg)
	case *cypher.FuncCall:
		if x.Star {
			// COUNT(*) counts pattern rows; removing the hop would
			// change it.
			return false
		}
		agg := insideAgg
		if x.IsAggregate() {
			if x.Distinct {
				// DISTINCT over replicated lists would need dedup; keep
				// the traversal.
				for _, a := range x.Args {
					if exprUsesVar(a, farVar) {
						return false
					}
				}
				return true
			}
			// Only COLLECT and COUNT translate to list reads.
			if x.Name != "collect" && x.Name != "count" {
				for _, a := range x.Args {
					if exprUsesVar(a, farVar) {
						return false
					}
				}
				return true
			}
			agg = true
		}
		for _, a := range x.Args {
			if !localizable(a, farVar, lps, opts, agg) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// rewriteExpr replaces aggregate reads of farVar's replicated properties
// with the carrier's list properties.
func rewriteExpr(e cypher.Expr, farVar, carrierVar string, lps map[string]*core.ListProp) cypher.Expr {
	switch x := e.(type) {
	case *cypher.PropAccess:
		if x.Var == farVar {
			if lp := lps[x.Key]; lp != nil {
				return &cypher.PropAccess{Var: carrierVar, Key: lp.Key}
			}
		}
		return x
	case *cypher.Binary:
		x.L = rewriteExpr(x.L, farVar, carrierVar, lps)
		x.R = rewriteExpr(x.R, farVar, carrierVar, lps)
		return x
	case *cypher.Not:
		x.E = rewriteExpr(x.E, farVar, carrierVar, lps)
		return x
	case *cypher.FuncCall:
		if x.IsAggregate() && len(x.Args) == 1 {
			if pa, ok := x.Args[0].(*cypher.PropAccess); ok && pa.Var == farVar {
				if lp := lps[pa.Key]; lp != nil {
					listProp := &cypher.PropAccess{Var: carrierVar, Key: lp.Key}
					switch x.Name {
					case "collect":
						return listProp
					case "count":
						return &cypher.FuncCall{Name: "size", Args: []cypher.Expr{listProp}}
					}
				}
			}
		}
		for i, a := range x.Args {
			x.Args[i] = rewriteExpr(a, farVar, carrierVar, lps)
		}
		return x
	default:
		return e
	}
}
