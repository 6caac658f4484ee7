package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// compare is the measuring rule as code. It takes reports in pairs
// (parent, change, parent, change, ...), and for every workload and
// end-to-end metric prints each side's median and quartiles, the ratio
// with its base, and one of four verdicts:
//
//	worse       the change's median is worse than the parent's by more
//	            than the metric's bound and by more than the spread
//	            between the parent's own runs
//	better      ten or more pairs were given, the change's median is
//	            better by more than the spread between the parent's own
//	            runs, and it wins at least nine tenths of the pairs, ties
//	            counting for neither
//	unresolved  neither of those, and a side's spread is wider than the
//	            bound, or the change is worse by more than the bound and
//	            there are too few pairs to know the spread between runs:
//	            "no change" cannot be told from a change
//	same        neither of those: no regression
//
// The spread that decides worse and better is the one between runs: the
// distance between the quartiles of the parent's per-run medians. It
// takes three pairs to read one. One or two pairs have only the spread of
// the windows inside a run, which on a shared machine is several times
// narrower than the spread between two runs of one binary (whole runs
// drift by 15-25% here, windows inside a run by 3-10%): judged by it,
// identical code earned a "worse". So one or two pairs can show "same" or
// "unresolved" and nothing else. The exception is a metric that repeats
// exactly between runs of one binary (disk_mb, fail_frac): its bound alone
// decides, with any number of pairs.

const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictSame       = "same"
	verdictUnresolved = "unresolved"
)

const (
	// spreadPairs is how many pairs it takes to read a spread between
	// runs: the fewest whose quartiles, taken the way Python takes them,
	// lie inside the runs' own range.
	spreadPairs = 3
	// claimPairs is how many pairs a gain needs; claimWins the share of
	// the decided ones the change must win.
	claimPairs = 10
	claimWins  = 0.9
)

// side is one side's view of one metric: a summary and the per-report
// medians it was made from.
type side struct {
	summary
	medians []float64
}

func collect(reports []*report, workload, metric string, bound float64) (side, bool) {
	var s side
	var single summary
	for _, r := range reports {
		w := r.Workloads[workload]
		if w == nil {
			continue
		}
		m, ok := w.EndToEnd[metric]
		if !ok {
			continue
		}
		single = m
		s.medians = append(s.medians, m.Median)
	}
	switch len(s.medians) {
	case 0:
		return s, false
	case 1:
		s.summary = single
		s.Unresolved = bound > 0 && single.spread() > bound
	default:
		s.summary = summarize(s.medians, bound)
	}
	return s, true
}

// worsening is how much worse b is than a as a share of a; negative
// when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// wins counts the pairs the change won and lost; ties count for neither.
func wins(d metricDef, a, b []float64) (won, lost int) {
	for i := 0; i < len(a) && i < len(b); i++ {
		switch w := worsening(d, a[i], b[i]); {
		case w < 0:
			won++
		case w > 0:
			lost++
		}
	}
	return won, lost
}

func verdict(d metricDef, a, b side) string {
	if d.AbsBound > 0 { // a metric whose healthy value is 0
		switch {
		case b.Median > a.Median+d.AbsBound:
			return verdictWorse
		case b.Median < a.Median-d.AbsBound && len(a.medians) >= claimPairs:
			return verdictBetter
		}
		return verdictSame
	}
	w := worsening(d, a.Median, b.Median)
	if d.Exact {
		switch {
		case w > d.Bound:
			return verdictWorse
		case w < 0:
			return verdictBetter
		}
		return verdictSame
	}
	if pairs := len(a.medians); pairs >= spreadPairs {
		between := a.spread()
		if w > d.Bound && w > between {
			return verdictWorse
		}
		if -w > between && pairs >= claimPairs {
			if won, lost := wins(d, a.medians, b.medians); float64(won) >= claimWins*float64(won+lost) {
				return verdictBetter
			}
		}
	}
	if w > d.Bound || a.spread() > d.Bound || b.spread() > d.Bound {
		return verdictUnresolved
	}
	return verdictSame
}

// compareMain implements `benchmark compare`; its result is the exit
// code: 1 on any worse verdict or a higher fail_frac, 2 on bad usage or
// on reports measured under different protocols.
func compareMain(paths []string, out io.Writer) int {
	if len(paths) < 2 || len(paths)%2 != 0 {
		fmt.Fprintln(out, "usage: benchmark compare PARENT.json CHANGE.json [PARENT2.json CHANGE2.json ...]")
		return 2
	}
	var parents, changes []*report
	for i, p := range paths {
		r, err := readReport(p)
		if err != nil {
			fmt.Fprintln(out, "compare:", err)
			return 2
		}
		if i > 0 && r.Meta.Protocol != parents[0].Meta.Protocol {
			fmt.Fprintf(out, "compare: %s was measured under another protocol than %s and cannot be compared with it:\n  %+v\n  %+v\n",
				p, paths[0], r.Meta.Protocol, parents[0].Meta.Protocol)
			return 2
		}
		if i%2 == 0 {
			parents = append(parents, r)
		} else {
			changes = append(changes, r)
		}
	}
	pairs := len(parents)
	fmt.Fprintf(out, "%d pair(s); A = parent %s, B = change %s\n", pairs, parents[0].Meta.Commit, changes[0].Meta.Commit)
	switch {
	case pairs < spreadPairs:
		fmt.Fprintf(out, "fewer than %d pairs: the spread between runs is unknown, so a timing can be called same or unresolved, not worse or better\n", spreadPairs)
	case pairs < claimPairs:
		fmt.Fprintf(out, "fewer than %d pairs: enough to show a regression or none, not to claim a gain\n", claimPairs)
	}

	code := 0
	counts := map[string]int{}
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q25, q75] n\tB median [q25, q75] n\tB/A (base A)\twon-lost\tbound\tverdict\t")
	for _, name := range workloadNames() {
		for _, d := range endToEnd {
			a, okA := collect(parents, name, d.Name, d.Bound)
			b, okB := collect(changes, name, d.Name, d.Bound)
			if !okA || !okB {
				continue
			}
			v := verdict(d, a, b)
			counts[v]++
			if v == verdictWorse || (d.Name == "fail_frac" && b.Median > a.Median) {
				code = 1
			}
			ratio := "n/a (base 0)"
			if a.Median != 0 {
				ratio = fmt.Sprintf("%.3f (%.4g)", b.Median/a.Median, a.Median)
			}
			bound := fmt.Sprintf("%.0f%%", d.Bound*100)
			if d.AbsBound > 0 {
				bound = fmt.Sprintf("+%g", d.AbsBound)
			}
			won, lost := wins(d, a.medians, b.medians)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] %d\t%.4g [%.4g, %.4g] %d\t%s\t%d-%d\t%s\t%s\t\n",
				name, d.Name, d.Unit, a.Median, a.Q25, a.Q75, a.N, b.Median, b.Q25, b.Q75, b.N, ratio, won, lost, bound, v)
		}
	}
	tw.Flush()
	fmt.Fprintf(out, "verdicts: %d better, %d same, %d unresolved, %d worse\n",
		counts[verdictBetter], counts[verdictSame], counts[verdictUnresolved], counts[verdictWorse])

	// Per-layer numbers carry no bound and get no verdict; they are where
	// to look for the cause of a verdict above.
	tw = tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	header := false
	for _, name := range workloadNames() {
		for _, d := range perLayer {
			a, okA := layerMedian(parents, name, d.Name)
			b, okB := layerMedian(changes, name, d.Name)
			if !okA || !okB {
				continue
			}
			if !header {
				fmt.Fprintln(tw, "\nworkload\tlayer metric\tunit\tA\tB\tB/A (base A)\t")
				header = true
			}
			ratio := "n/a (base 0)"
			if a != 0 {
				ratio = fmt.Sprintf("%.3f (%.4g)", b/a, a)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%s\t\n", name, d.Name, d.Unit, a, b, ratio)
		}
	}
	tw.Flush()
	return code
}

func layerMedian(reports []*report, workload, metric string) (float64, bool) {
	var vals []float64
	for _, r := range reports {
		if w := r.Workloads[workload]; w != nil {
			if v, ok := w.PerLayer[metric]; ok {
				vals = append(vals, v)
			}
		}
	}
	return median(vals), len(vals) > 0
}
