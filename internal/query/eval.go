// Package query executes parsed Cypher queries against any storage.Graph.
// Queries are compiled once (Prepare) into a plan that runs against the
// storage fast path — interned symbol IDs, slot-indexed variable bindings,
// and a fixed traversal order — and can then be executed many times
// (Exec, which streams rows to a Sink; Collect materializes them). The
// executor implements label-scan starts, path-pattern
// expansion with Cypher's relationship-uniqueness semantics, WHERE
// filtering with three-valued logic, and RETURN projection with implicit
// grouping for aggregates — enough to run the paper's entire
// microbenchmark and workload queries.
package query

import (
	"fmt"

	"repro/internal/cypher"
	"repro/internal/graph"
)

// kleene implements SQL/Cypher three-valued AND/OR.
func kleene(op cypher.BinaryOp, l, r graph.Value) graph.Value {
	lt, ln := truth(l)
	rt, rn := truth(r)
	if op == cypher.OpAnd {
		switch {
		case !ln && !lt, !rn && !rt:
			return graph.B(false)
		case ln || rn:
			return graph.Null
		default:
			return graph.B(true)
		}
	}
	switch {
	case !ln && lt, !rn && rt:
		return graph.B(true)
	case ln || rn:
		return graph.Null
	default:
		return graph.B(false)
	}
}

// truth returns (value, isNull) for a boolean context.
func truth(v graph.Value) (bool, bool) {
	if v.IsNull() {
		return false, true
	}
	return v.Bool(), false
}

// aggSpec is one compiled aggregate call: its function name, modifiers,
// and compiled argument. The spec is shared by every group's aggState.
type aggSpec struct {
	name     string // count, collect, sum, avg, min, max
	distinct bool
	star     bool
	arg      cexpr // nil when star
}

// aggState accumulates one aggregate call across the rows of a group.
// States are stored by value inside each group to keep group creation to a
// single allocation.
type aggState struct {
	count   int64
	sumI    int64
	sumF    float64
	allInt  bool
	items   []graph.Value
	minmax  graph.Value
	started bool
	seen    map[string]bool // DISTINCT support
}

func (s *aggState) init(spec *aggSpec) {
	s.allInt = true
	if spec.distinct {
		s.seen = map[string]bool{}
	}
}

// update folds the current row into the aggregate.
func (s *aggState) update(spec *aggSpec, m *machine) error {
	if spec.star {
		s.count++
		return nil
	}
	val, err := spec.arg(m)
	if err != nil {
		return err
	}
	if val.IsNull() {
		return nil // aggregates skip NULLs
	}
	if s.seen != nil {
		m.scratch = val.AppendKey(m.scratch[:0])
		if s.seen[string(m.scratch)] {
			return nil
		}
		s.seen[string(m.scratch)] = true
		if m.trackDistinct && spec.name != "collect" {
			// A morsel worker records the accepted values so the sink can
			// replay them through its own seen set at merge time; collect
			// already keeps them in items.
			s.items = append(s.items, val)
		}
	}
	return s.fold(spec, val)
}

// fold applies one accepted value — non-NULL and already DISTINCT-filtered
// — to the running state. Shared by per-row update and cross-worker merge.
func (s *aggState) fold(spec *aggSpec, val graph.Value) error {
	switch spec.name {
	case "count":
		s.count++
	case "collect":
		s.items = append(s.items, val)
	case "sum", "avg":
		s.count++
		if val.Kind() == graph.KindInt {
			s.sumI += val.Int()
		} else {
			s.allInt = false
		}
		s.sumF += val.Float()
	case "min":
		if !s.started {
			s.minmax, s.started = val, true
		} else if cmp, ok := val.Compare(s.minmax); ok && cmp < 0 {
			s.minmax = val
		}
	case "max":
		if !s.started {
			s.minmax, s.started = val, true
		} else if cmp, ok := val.Compare(s.minmax); ok && cmp > 0 {
			s.minmax = val
		}
	default:
		return fmt.Errorf("query: unknown aggregate %s", spec.name)
	}
	return nil
}

// merge folds another partial state for the same spec into s — the sink
// side of the morsel executor's per-worker partial aggregation. For
// DISTINCT aggregates the other state's accepted values (recorded under
// trackDistinct) are replayed through s's seen set so duplicates observed
// by different workers collapse; scratch is the caller's reusable key
// buffer. Non-distinct states combine algebraically: counts and sums add,
// collect concatenates, min/max compares the extremes.
func (s *aggState) merge(spec *aggSpec, o *aggState, scratch *[]byte) error {
	if spec.distinct {
		for _, val := range o.items {
			*scratch = val.AppendKey((*scratch)[:0])
			if s.seen[string(*scratch)] {
				continue
			}
			s.seen[string(*scratch)] = true
			if err := s.fold(spec, val); err != nil {
				return err
			}
		}
		return nil
	}
	switch spec.name {
	case "count":
		s.count += o.count
	case "collect":
		s.items = append(s.items, o.items...)
	case "sum", "avg":
		s.count += o.count
		s.sumI += o.sumI
		s.sumF += o.sumF
		if !o.allInt {
			s.allInt = false
		}
	case "min", "max":
		if o.started {
			return s.fold(spec, o.minmax)
		}
	default:
		return fmt.Errorf("query: unknown aggregate %s", spec.name)
	}
	return nil
}

// final returns the aggregate's value.
func (s *aggState) final(spec *aggSpec) graph.Value {
	switch spec.name {
	case "count":
		return graph.I(s.count)
	case "collect":
		return graph.L(s.items...)
	case "sum":
		if s.allInt {
			return graph.I(s.sumI)
		}
		return graph.F(s.sumF)
	case "avg":
		if s.count == 0 {
			return graph.Null
		}
		return graph.F(s.sumF / float64(s.count))
	case "min", "max":
		if !s.started {
			return graph.Null
		}
		return s.minmax
	default:
		return graph.Null
	}
}
