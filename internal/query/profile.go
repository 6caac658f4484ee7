package query

// Per-query PROFILE tracing. Every machine's step chain counts, per
// compiled step, how many vertices/edges/rows the step visited and how
// many it passed downstream; the execution's Stats are folded from those
// same counters (fold). An Exec call with ExecOptions.Profile set also
// copies them into the Profile, so profiled and unprofiled runs share
// one chain and one pool. The serving layer returns these in the /query response
// under ?profile=1 (or a PROFILE query prefix) and feeds the slow-query
// log with them.

// StepProfile is one compiled step's operator counters. Steps appear in
// execution order: the plan's moves (scan / lookup / bind / expand_out /
// expand_in), then the terminal project step (WHERE filter + row
// emission or group accumulation).
type StepProfile struct {
	// Op is the step kind: "scan" (unbound label scan), "lookup" (unbound
	// start served by the store's ForEachVertexByPropID on an inline
	// property), "bind" (start on an already-bound variable),
	// "expand_out"/"expand_in" (adjacency expansion), or "project"
	// (WHERE + emit/group).
	Op string `json:"op"`
	// Target is the scan's label, the lookup's Label.key, or the
	// expansion's edge type; "*" is the wildcard.
	Target string `json:"target,omitempty"`
	// Bound marks expansions that check an already-bound variable instead
	// of binding a new one (join back-edges).
	Bound bool `json:"bound,omitempty"`
	// Visited counts items the step examined: vertices for scans, edges
	// for expansions, candidate rows for project.
	Visited int64 `json:"visited"`
	// Produced counts items the step passed downstream: bindings that
	// survived the step's checks, or rows emitted by project.
	Produced int64 `json:"produced"`
}

// Profile is one execution's operator trace; Exec fills the one that
// ExecOptions.Profile points at. Counter totals are exact: morsel
// executions merge every worker's per-step counters, so a profiled
// many-morsel run reports the same Visited/Produced a one-morsel run
// would.
type Profile struct {
	Steps []StepProfile `json:"steps"`
	// Parallel reports whether the morsel driver ran; Morsels is the
	// number of root-scan partitions it dispatched and Workers the
	// goroutines that consumed them (1 for serial executions).
	Parallel bool `json:"parallel"`
	Morsels  int  `json:"morsels,omitempty"`
	Workers  int  `json:"workers"`
}

// stepCounts is the per-machine mutable half of one StepProfile.
type stepCounts struct{ visited, produced int64 }

// orStar renders the empty wildcard target as "*".
func orStar(s string) string {
	if s == "" {
		return "*"
	}
	return s
}

// profileSteps returns the plan's step template: one StepProfile per
// compiled move plus the terminal project step, counters zeroed.
func (p *Prepared) profileSteps() []StepProfile {
	steps := make([]StepProfile, 0, len(p.moves)+1)
	for _, mv := range p.moves {
		var sp StepProfile
		switch {
		case mv.start && mv.bound:
			sp = StepProfile{Op: "bind", Target: orStar(mv.scanName), Bound: true}
		case mv.lookup:
			sp = StepProfile{Op: "lookup", Target: mv.scanName + "." + mv.probe.keyName}
		case mv.start:
			sp = StepProfile{Op: "scan", Target: orStar(mv.scanName)}
		case mv.outgoing:
			sp = StepProfile{Op: "expand_out", Target: orStar(mv.typeName), Bound: mv.bound}
		default:
			sp = StepProfile{Op: "expand_in", Target: orStar(mv.typeName), Bound: mv.bound}
		}
		steps = append(steps, sp)
	}
	return append(steps, StepProfile{Op: "project"})
}

// addSteps folds one machine's raw counters into the profile.
func (prof *Profile) addSteps(counts []stepCounts) {
	for i := range counts {
		if i >= len(prof.Steps) {
			break
		}
		prof.Steps[i].Visited += counts[i].visited
		prof.Steps[i].Produced += counts[i].produced
	}
}
