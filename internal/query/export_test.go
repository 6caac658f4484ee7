package query

// Parallelizable reports the planner's compile-time decision: whether
// this plan's shape is eligible for morsel-driven execution at all.
// Execution still runs on one morsel when the worker count is <= 1 or the
// root label has fewer than MinParallelRootCount vertices.
func (p *Prepared) Parallelizable() bool { return p.parallelOK }
