package core

import (
	"fmt"
	"sort"

	"repro/internal/ontology"
)

// RuleApp identifies one selectable rule application. Union, inheritance
// and 1:1 rules are selected per relationship. 1:M and M:N rules are
// selected per (relationship, destination property) pair, and M:N
// additionally per direction (§4.2.2: "some of the original M:N
// relationships could be optimized for only one direction"), matching the
// granularity of the paper's cost-benefit model (Equations 3-5).
type RuleApp struct {
	// RelKey is the Relationship.Key() of the *original* ontology
	// relationship; edge copies made by other rules inherit it.
	RelKey string
	// Prop is the destination property being replicated (1:M and M:N
	// rules only). The wildcard "*" enables every property, including
	// ones copied into the destination by other rules — this is what
	// Algorithm 5 (no space constraint) uses.
	Prop string
	// Reverse selects the dst→src direction of an M:N relationship.
	Reverse bool
}

// String renders the rule application compactly.
func (a RuleApp) String() string {
	s := a.RelKey
	if a.Prop != "" {
		s += " prop=" + a.Prop
	}
	if a.Reverse {
		s += " (reverse)"
	}
	return s
}

// RuleSet is the set of enabled rule applications. The empty set produces
// the direct-mapping schema (DIR); AllRules produces the paper's
// unconstrained NSC schema.
type RuleSet struct {
	apps map[RuleApp]bool
}

// NewRuleSet returns an empty rule set (the direct mapping).
func NewRuleSet() *RuleSet {
	return &RuleSet{apps: map[RuleApp]bool{}}
}

// AllRules enables every rule on every relationship of the ontology with
// wildcard property selection — the input to Algorithm 5.
func AllRules(o *ontology.Ontology) *RuleSet {
	rs := NewRuleSet()
	allowed := MergeableRels(o)
	for _, r := range o.Relationships {
		switch r.Type {
		case ontology.Union, ontology.Inheritance, ontology.OneToOne:
			if allowed[r.Key()] {
				rs.Add(RuleApp{RelKey: r.Key()})
			}
		case ontology.OneToMany:
			rs.Add(RuleApp{RelKey: r.Key(), Prop: "*"})
		case ontology.ManyToMany:
			rs.Add(RuleApp{RelKey: r.Key(), Prop: "*"})
			rs.Add(RuleApp{RelKey: r.Key(), Prop: "*", Reverse: true})
		}
	}
	return rs
}

// MergeableRels resolves merge conflicts: the merge-producing
// relationships (union, inheritance, 1:1) that may fire form a spanning
// forest over the concepts. If the merge relationships contained a cycle
// (including two merge relationships between the same pair), two distinct
// instances of one concept could be fused into a single vertex — their
// same-named properties would collide, and label-based query rewriting
// would match vertices merged by an unrelated rule. With an acyclic merge
// graph, every merged vertex carries at most one instance per concept.
//
// Relationships enter the forest in priority order — union > inheritance
// > 1:1, ties broken by key — so the choice is deterministic and derived
// from the ontology alone; every algorithm (NSC, CC, RC) sees the same
// candidate set.
func MergeableRels(o *ontology.Ontology) map[string]bool {
	priority := func(t ontology.RelType) int {
		switch t {
		case ontology.Union:
			return 3
		case ontology.Inheritance:
			return 2
		case ontology.OneToOne:
			return 1
		default:
			return 0
		}
	}
	var cands []*ontology.Relationship
	for _, r := range o.Relationships {
		if priority(r.Type) > 0 {
			cands = append(cands, r)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		pi, pj := priority(cands[i].Type), priority(cands[j].Type)
		if pi != pj {
			return pi > pj
		}
		return cands[i].Key() < cands[j].Key()
	})
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
	allowed := map[string]bool{}
	for _, r := range cands {
		ra, rb := find(r.Src), find(r.Dst)
		if ra == rb {
			continue // would close a merge cycle
		}
		parent[ra] = rb
		allowed[r.Key()] = true
	}
	return allowed
}

// Add enables a rule application.
func (rs *RuleSet) Add(a RuleApp) { rs.apps[a] = true }

// Len returns the number of enabled applications.
func (rs *RuleSet) Len() int { return len(rs.apps) }

// Enabled reports whether a rule application may fire, honouring property
// wildcards for replication rules.
func (rs *RuleSet) Enabled(relKey, prop string, reverse bool) bool {
	if rs.apps[RuleApp{RelKey: relKey, Prop: prop, Reverse: reverse}] {
		return true
	}
	if prop != "" && rs.apps[RuleApp{RelKey: relKey, Prop: "*", Reverse: reverse}] {
		return true
	}
	return false
}

// Apps returns the enabled applications in deterministic order.
func (rs *RuleSet) Apps() []RuleApp {
	out := make([]RuleApp, 0, len(rs.apps))
	for a := range rs.apps {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RelKey != out[j].RelKey {
			return out[i].RelKey < out[j].RelKey
		}
		if out[i].Prop != out[j].Prop {
			return out[i].Prop < out[j].Prop
		}
		return !out[i].Reverse && out[j].Reverse
	})
	return out
}

// EnumerateApps lists every selectable rule application for the ontology
// at cost-model granularity: one per union/inheritance/1:1 relationship,
// one per (1:M relationship, original destination property), and one per
// (M:N relationship, property, direction). This is the item universe for
// the relation-centric algorithm's knapsack.
func EnumerateApps(o *ontology.Ontology) []RuleApp {
	var apps []RuleApp
	allowed := MergeableRels(o)
	for _, r := range o.Relationships {
		switch r.Type {
		case ontology.Union, ontology.Inheritance, ontology.OneToOne:
			if !allowed[r.Key()] {
				continue
			}
			apps = append(apps, RuleApp{RelKey: r.Key()})
		case ontology.OneToMany:
			dst := o.Concept(r.Dst)
			if dst == nil {
				continue
			}
			for _, p := range dst.Props {
				apps = append(apps, RuleApp{RelKey: r.Key(), Prop: p.Name})
			}
		case ontology.ManyToMany:
			dst, src := o.Concept(r.Dst), o.Concept(r.Src)
			if dst != nil {
				for _, p := range dst.Props {
					apps = append(apps, RuleApp{RelKey: r.Key(), Prop: p.Name})
				}
			}
			if src != nil {
				for _, p := range src.Props {
					apps = append(apps, RuleApp{RelKey: r.Key(), Prop: p.Name, Reverse: true})
				}
			}
		}
	}
	return apps
}

// Jaccard computes JS(ci.Pi, cj.Pj) (Equation 1) over the property names
// of the two concepts in the original ontology. When both concepts have no
// properties the similarity is defined as 1 (identical property sets).
func Jaccard(a, b *ontology.Concept) float64 {
	set := map[string]bool{}
	for _, p := range a.Props {
		set[p.Name] = true
	}
	inter := 0
	union := len(set)
	for _, p := range b.Props {
		if set[p.Name] {
			inter++
		} else {
			union++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// JaccardScores precomputes the similarity of every inheritance
// relationship, keyed by Relationship.Key(). Per §3, scores are computed
// on the given ontology before any rules are applied and never change.
func JaccardScores(o *ontology.Ontology) (map[string]float64, error) {
	js := map[string]float64{}
	for _, r := range o.Relationships {
		if r.Type != ontology.Inheritance {
			continue
		}
		p, c := o.Concept(r.Src), o.Concept(r.Dst)
		if p == nil || c == nil {
			return nil, fmt.Errorf("core: inheritance %s references missing concept", r.Key())
		}
		js[r.Key()] = Jaccard(p, c)
	}
	return js, nil
}
