package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest value with at least p percent of the samples at or below it.
// No interpolation, so every reported latency is one that was observed.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// median of an unsorted slice; the mean of the middle two when even.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), because
// that is what the pipeline judging this benchmark computes spreads with.
// A single value is its own quartiles.
func quartiles(vals []float64) (q1, q3 float64) {
	s := sortedCopy(vals)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// summary is how every timing and throughput metric is reported: the
// median over measurement windows (or over runs), its quartiles, and how
// many samples it rests on. Unresolved marks a metric whose own spread is
// wider than the bound it is supposed to be judged by.
type summary struct {
	Median     float64 `json:"median"`
	Q25        float64 `json:"q25"`
	Q75        float64 `json:"q75"`
	N          int     `json:"n"`
	Unresolved bool    `json:"unresolved,omitempty"`
}

// spread is the inter-quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q75 - s.Q25) / s.Median)
}

// summarize reduces per-window (or per-run) values. bound <= 0 means the
// metric has no bound and can never be unresolved.
func summarize(vals []float64, bound float64) summary {
	s := summary{Median: median(vals), N: len(vals)}
	s.Q25, s.Q75 = quartiles(vals)
	s.Unresolved = bound > 0 && s.spread() > bound
	return s
}
