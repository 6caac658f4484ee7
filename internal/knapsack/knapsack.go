// Package knapsack implements the 0/1 knapsack solvers used by the
// relation-centric schema optimization algorithm (§4.2.2): an exact
// dynamic program for small instances (used in tests as ground truth) and
// the fully polynomial-time approximation scheme (FPTAS) of Vazirani that
// the paper adopts, which guarantees a total benefit within (1-ε) of
// optimal.
package knapsack

import (
	"math"
)

// Item is one selectable object. Benefit and Cost must be positive for
// Solve; the relation-centric algorithm pre-filters zero-cost items
// (Proposition 1's positivity requirement).
type Item struct {
	Benefit float64
	Cost    float64
}

// maxStates bounds the benefit-indexed DP table; when ε would produce a
// larger table, the scale factor grows (coarser precision) to stay within
// memory. This only loosens the approximation for degenerate inputs.
const maxStates = 1 << 20

// Solve selects a subset of items maximizing total benefit subject to
// total cost ≤ budget, using benefit scaling with parameter eps (0 < eps
// < 1). The returned indices are sorted ascending. The total benefit of
// the selection is at least (1-eps) times optimal.
func Solve(items []Item, budget float64, eps float64) []int {
	if len(items) == 0 || budget <= 0 {
		return nil
	}
	if eps <= 0 || eps >= 1 {
		eps = 0.1
	}
	// Drop items that cannot fit or contribute.
	type cand struct {
		idx int
		b   float64
		c   float64
	}
	var cands []cand
	maxB := 0.0
	for i, it := range items {
		if it.Benefit <= 0 || it.Cost <= 0 || it.Cost > budget {
			continue
		}
		cands = append(cands, cand{i, it.Benefit, it.Cost})
		if it.Benefit > maxB {
			maxB = it.Benefit
		}
	}
	if len(cands) == 0 {
		return nil
	}
	n := len(cands)
	// Scale factor K = ε·Bmax/n (Vazirani §8.2). Raise it if the DP
	// would exceed the state bound.
	k := eps * maxB / float64(n)
	if k <= 0 {
		k = 1
	}
	for {
		total := 0
		ok := true
		for _, c := range cands {
			total += int(math.Floor(c.b / k))
			if total > maxStates {
				ok = false
				break
			}
		}
		if ok {
			break
		}
		k *= 2
	}
	scaled := make([]int, n)
	sum := 0
	for i, c := range cands {
		scaled[i] = int(math.Floor(c.b / k))
		sum += scaled[i]
	}
	// dp[v] = minimal cost achieving scaled benefit exactly v.
	const inf = math.MaxFloat64
	dp := make([]float64, sum+1)
	for v := 1; v <= sum; v++ {
		dp[v] = inf
	}
	// take[i] marks the benefits v where item i improved dp[v].
	words := (sum + 1 + 63) / 64
	take := make([][]uint64, n)
	for i := range take {
		take[i] = make([]uint64, words)
	}
	reach := 0
	for i, c := range cands {
		b := scaled[i]
		if b == 0 {
			continue
		}
		hi := reach + b
		if hi > sum {
			hi = sum
		}
		for v := hi; v >= b; v-- {
			if dp[v-b] == inf {
				continue
			}
			if cost := dp[v-b] + c.c; cost < dp[v] {
				dp[v] = cost
				take[i][v/64] |= 1 << (v % 64)
			}
		}
		reach = hi
	}
	best := 0
	for v := sum; v > 0; v-- {
		if dp[v] <= budget {
			best = v
			break
		}
	}
	// Reconstruct: walk items backwards; item i was chosen at benefit v
	// iff it set the take bit there during its (final) relaxation pass.
	var chosen []int
	v := best
	for i := n - 1; i >= 0 && v > 0; i-- {
		if scaled[i] == 0 {
			continue
		}
		if take[i][v/64]&(1<<(v%64)) != 0 {
			chosen = append(chosen, cands[i].idx)
			v -= scaled[i]
		}
	}
	// Zero-scaled items ride along for free if they fit in the residual
	// budget (their true benefit is tiny but nonzero).
	usedCost := 0.0
	sel := map[int]bool{}
	for _, idx := range chosen {
		sel[idx] = true
		usedCost += items[idx].Cost
	}
	for i, c := range cands {
		if scaled[i] == 0 && !sel[c.idx] && usedCost+c.c <= budget {
			chosen = append(chosen, c.idx)
			usedCost += c.c
		}
	}
	sortInts(chosen)
	return chosen
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
