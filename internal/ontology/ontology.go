// Package ontology models the domain ontologies that drive property graph
// schema optimization (Definition 1 of the paper): a set of concepts, a set
// of data properties attached to concepts, and a set of typed relationships
// (1:1, 1:M, M:N, union, inheritance) between concepts.
//
// An Ontology is the sole semantic input to the optimizer; data statistics
// (Stats) and access frequencies (AccessFrequencies) are the optional
// cost-model inputs described in the paper's §4.2.
package ontology

import (
	"fmt"
	"sort"
	"strings"
)

// RelType enumerates the relationship types of Definition 1.
type RelType int

const (
	// OneToOne relates each source instance to at most one destination
	// instance and vice versa.
	OneToOne RelType = iota
	// OneToMany relates each source instance to any number of destination
	// instances; each destination instance has at most one source.
	OneToMany
	// ManyToMany places no cardinality bound on either end.
	ManyToMany
	// Union marks the source concept as a union whose extent is exactly
	// the disjoint union of its member (destination) concepts.
	Union
	// Inheritance marks the destination concept as a child (subclass) of
	// the source concept.
	Inheritance
)

// String returns the paper's name for the relationship type.
func (t RelType) String() string {
	switch t {
	case OneToOne:
		return "1:1"
	case OneToMany:
		return "1:M"
	case ManyToMany:
		return "M:N"
	case Union:
		return "union"
	case Inheritance:
		return "inheritance"
	default:
		return fmt.Sprintf("RelType(%d)", int(t))
	}
}

// DataType enumerates property value types. Sizes feed the cost model
// (p.type in Equations 4 and 5).
type DataType int

const (
	// TString is a variable-length string property.
	TString DataType = iota
	// TInt is a 64-bit integer property.
	TInt
	// TFloat is a 64-bit floating point property.
	TFloat
	// TBool is a boolean property.
	TBool
)

// String returns the DDL spelling of the data type.
func (t DataType) String() string {
	switch t {
	case TString:
		return "STRING"
	case TInt:
		return "INT"
	case TFloat:
		return "DOUBLE"
	case TBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("DataType(%d)", int(t))
	}
}

// FixedSize returns the in-storage size in bytes for fixed-width types and
// 0 for TString (whose size comes from Stats.AvgStringLen).
func (t DataType) FixedSize() int {
	switch t {
	case TInt, TFloat:
		return 8
	case TBool:
		return 1
	default:
		return 0
	}
}

// Property is a data property (OWL DataProperty) of a concept.
type Property struct {
	Name string
	Type DataType
}

// Concept is an ontology concept (OWL class) with its data properties.
type Concept struct {
	Name  string
	Props []Property
}

// PropNames returns the property names of the concept in declaration order.
func (c *Concept) PropNames() []string {
	names := make([]string, len(c.Props))
	for i, p := range c.Props {
		names[i] = p.Name
	}
	return names
}

// HasProp reports whether the concept declares a property with this name.
func (c *Concept) HasProp(name string) bool {
	for _, p := range c.Props {
		if p.Name == name {
			return true
		}
	}
	return false
}

// Relationship is a typed, directed relationship between two concepts
// (OWL ObjectProperty, or the pseudo-relationships union/inheritance).
//
// Orientation follows the paper's algorithms: for Union, Src is the union
// concept and Dst the member; for Inheritance, Src is the parent and Dst
// the child; for OneToMany, Src is the "one" side and Dst the "many" side.
type Relationship struct {
	Name string // edge label, e.g. "treat"; "unionOf"/"isA" for union/inheritance
	Src  string // source concept name
	Dst  string // destination concept name
	Type RelType
}

// Key returns a string uniquely identifying the relationship within an
// ontology. Two relationships may share a Name (e.g. two "cause" edges),
// so the key includes both endpoints.
func (r *Relationship) Key() string {
	return r.Src + "-[" + r.Name + "]->" + r.Dst
}

// Other returns the concept on the opposite end from the given concept.
func (r *Relationship) Other(concept string) string {
	if r.Src == concept {
		return r.Dst
	}
	return r.Src
}

// Ontology is the paper's O(C, R, P): concepts with data properties and
// relationships between them. The zero value is an empty ontology; use
// AddConcept/AddRelationship to populate it.
type Ontology struct {
	Concepts      []*Concept
	Relationships []*Relationship

	byName map[string]*Concept
}

// New returns an empty ontology.
func New() *Ontology {
	return &Ontology{byName: map[string]*Concept{}}
}

// AddConcept adds a concept with the given properties and returns it.
// Adding a duplicate name panics: ontologies are built by generators and a
// duplicate is a programming error.
func (o *Ontology) AddConcept(name string, props ...Property) *Concept {
	if o.byName == nil {
		o.byName = map[string]*Concept{}
	}
	if _, dup := o.byName[name]; dup {
		panic("ontology: duplicate concept " + name)
	}
	c := &Concept{Name: name, Props: props}
	o.Concepts = append(o.Concepts, c)
	o.byName[name] = c
	return c
}

// AddRelationship adds a relationship and returns it.
func (o *Ontology) AddRelationship(name, src, dst string, t RelType) *Relationship {
	r := &Relationship{Name: name, Src: src, Dst: dst, Type: t}
	o.Relationships = append(o.Relationships, r)
	return r
}

// Concept returns the concept with the given name, or nil.
func (o *Ontology) Concept(name string) *Concept {
	if o.byName == nil {
		o.reindex()
	}
	return o.byName[name]
}

func (o *Ontology) reindex() {
	o.byName = make(map[string]*Concept, len(o.Concepts))
	for _, c := range o.Concepts {
		o.byName[c.Name] = c
	}
}

// OutE returns all relationships whose source is the concept.
func (o *Ontology) OutE(concept string) []*Relationship {
	var out []*Relationship
	for _, r := range o.Relationships {
		if r.Src == concept {
			out = append(out, r)
		}
	}
	return out
}

// InE returns all relationships whose destination is the concept.
func (o *Ontology) InE(concept string) []*Relationship {
	var in []*Relationship
	for _, r := range o.Relationships {
		if r.Dst == concept {
			in = append(in, r)
		}
	}
	return in
}

// Rels returns all relationships touching the concept (ci.Ri in the paper).
func (o *Ontology) Rels(concept string) []*Relationship {
	var rs []*Relationship
	for _, r := range o.Relationships {
		if r.Src == concept || r.Dst == concept {
			rs = append(rs, r)
		}
	}
	return rs
}

// CountByType returns the number of relationships per type.
func (o *Ontology) CountByType() map[RelType]int {
	m := map[RelType]int{}
	for _, r := range o.Relationships {
		m[r.Type]++
	}
	return m
}

// NumProps returns the total number of data properties across all concepts.
func (o *Ontology) NumProps() int {
	n := 0
	for _, c := range o.Concepts {
		n += len(c.Props)
	}
	return n
}

// Clone returns a deep copy of the ontology.
func (o *Ontology) Clone() *Ontology {
	c := New()
	for _, con := range o.Concepts {
		props := make([]Property, len(con.Props))
		copy(props, con.Props)
		c.AddConcept(con.Name, props...)
	}
	for _, r := range o.Relationships {
		c.AddRelationship(r.Name, r.Src, r.Dst, r.Type)
	}
	return c
}

// Validate checks referential integrity and the structural constraints the
// optimizer relies on: every relationship endpoint names an existing
// concept, relationship keys are unique, concept property names are unique
// within a concept, and no concept inherits from itself.
func (o *Ontology) Validate() error {
	if o.byName == nil || len(o.byName) != len(o.Concepts) {
		o.reindex()
	}
	seen := map[string]bool{}
	for _, c := range o.Concepts {
		pseen := map[string]bool{}
		for _, p := range c.Props {
			if pseen[p.Name] {
				return fmt.Errorf("ontology: concept %s has duplicate property %s", c.Name, p.Name)
			}
			pseen[p.Name] = true
		}
	}
	for _, r := range o.Relationships {
		if o.byName[r.Src] == nil {
			return fmt.Errorf("ontology: relationship %s references unknown source %s", r.Key(), r.Src)
		}
		if o.byName[r.Dst] == nil {
			return fmt.Errorf("ontology: relationship %s references unknown destination %s", r.Key(), r.Dst)
		}
		if r.Src == r.Dst && (r.Type == Inheritance || r.Type == Union) {
			return fmt.Errorf("ontology: %s relationship %s is self-referential", r.Type, r.Key())
		}
		if seen[r.Key()] {
			return fmt.Errorf("ontology: duplicate relationship %s", r.Key())
		}
		seen[r.Key()] = true
	}
	if err := o.checkAcyclic(Inheritance); err != nil {
		return err
	}
	return o.checkAcyclic(Union)
}

// checkAcyclic rejects cycles among relationships of type t, walking
// parent->child (src->dst) edges.
func (o *Ontology) checkAcyclic(t RelType) error {
	adj := map[string][]string{}
	for _, r := range o.Relationships {
		if r.Type == t {
			adj[r.Src] = append(adj[r.Src], r.Dst)
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(string) error
	visit = func(c string) error {
		color[c] = gray
		for _, n := range adj[c] {
			switch color[n] {
			case gray:
				return fmt.Errorf("ontology: cycle of %s relationships through %s", t, n)
			case white:
				if err := visit(n); err != nil {
					return err
				}
			}
		}
		color[c] = black
		return nil
	}
	for c := range adj {
		if color[c] == white {
			if err := visit(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// String renders a compact multi-line description, useful in tests and
// example output. Concepts and relationships are sorted for determinism.
func (o *Ontology) String() string {
	var b strings.Builder
	names := make([]string, 0, len(o.Concepts))
	for _, c := range o.Concepts {
		names = append(names, c.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		c := o.Concept(n)
		fmt.Fprintf(&b, "%s(%s)\n", c.Name, strings.Join(c.PropNames(), ", "))
	}
	keys := make([]string, 0, len(o.Relationships))
	byKey := map[string]*Relationship{}
	for _, r := range o.Relationships {
		keys = append(keys, r.Key())
		byKey[r.Key()] = r
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s [%s]\n", k, byKey[k].Type)
	}
	return b.String()
}
