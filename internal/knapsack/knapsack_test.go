package knapsack

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveEmptyAndDegenerate(t *testing.T) {
	if got := Solve(nil, 10, 0.1); got != nil {
		t.Errorf("Solve(nil) = %v", got)
	}
	if got := Solve([]Item{{1, 1}}, 0, 0.1); got != nil {
		t.Errorf("Solve budget 0 = %v", got)
	}
	if got := Solve([]Item{{0, 1}, {1, 0}, {-1, 2}, {2, -3}}, 10, 0.1); got != nil {
		t.Errorf("Solve with non-positive items = %v", got)
	}
}

func TestSolveSimple(t *testing.T) {
	items := []Item{
		{Benefit: 60, Cost: 10},
		{Benefit: 100, Cost: 20},
		{Benefit: 120, Cost: 30},
	}
	sel := Solve(items, 50, 0.01)
	if got := totalBenefit(items, sel); got != 220 {
		t.Errorf("benefit = %v (sel %v), want 220", got, sel)
	}
	if got := totalCost(items, sel); got > 50 {
		t.Errorf("cost = %v exceeds budget", got)
	}
}

func TestSolveRespectsBudgetAlways(t *testing.T) {
	f := func(seed int64, budget16 uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				Benefit: float64(1 + rng.Intn(100)),
				Cost:    float64(1 + rng.Intn(50)),
			}
		}
		budget := float64(budget16 % 200)
		sel := Solve(items, budget, 0.1)
		return totalCost(items, sel) <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFPTASBound: the FPTAS achieves at least (1-ε)·OPT on random integer
// instances where the exact DP is feasible.
func TestFPTASBound(t *testing.T) {
	const eps = 0.1
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		items := make([]Item, n)
		benefits := make([]float64, n)
		costs := make([]int, n)
		for i := range items {
			b := float64(1 + rng.Intn(100))
			c := 1 + rng.Intn(40)
			items[i] = Item{Benefit: b, Cost: float64(c)}
			benefits[i], costs[i] = b, c
		}
		budget := 10 + rng.Intn(200)
		approx := totalBenefit(items, Solve(items, float64(budget), eps))
		exact := totalBenefit(items, solveExact(benefits, costs, budget))
		return approx >= (1-eps)*exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSolveExactMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		benefits := make([]float64, n)
		costs := make([]int, n)
		items := make([]Item, n)
		for i := range benefits {
			benefits[i] = float64(1 + rng.Intn(30))
			costs[i] = 1 + rng.Intn(15)
			items[i] = Item{Benefit: benefits[i], Cost: float64(costs[i])}
		}
		budget := rng.Intn(60)
		got := totalBenefit(items, solveExact(benefits, costs, budget))
		// Brute force over all subsets.
		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			b, c := 0.0, 0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					b += benefits[i]
					c += costs[i]
				}
			}
			if c <= budget && b > best {
				best = b
			}
		}
		return got == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSolveSelectionIsConsistent(t *testing.T) {
	items := []Item{{10, 5}, {20, 8}, {15, 7}, {9, 4}}
	sel := Solve(items, 15, 0.05)
	seen := map[int]bool{}
	for _, i := range sel {
		if i < 0 || i >= len(items) {
			t.Fatalf("index out of range: %d", i)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
	for i := 1; i < len(sel); i++ {
		if sel[i] < sel[i-1] {
			t.Fatal("selection not sorted")
		}
	}
}

func TestLargeInstanceStaysFast(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	items := make([]Item, 500)
	for i := range items {
		items[i] = Item{Benefit: rng.Float64() * 1000, Cost: rng.Float64()*1e6 + 1}
	}
	sel := Solve(items, 5e7, 0.1)
	if len(sel) == 0 {
		t.Error("large instance selected nothing")
	}
	if totalCost(items, sel) > 5e7 {
		t.Error("budget exceeded")
	}
}

// solveExact solves small instances exactly by dynamic programming over
// integer costs: the ground truth for the FPTAS bound. Costs must be
// non-negative integers and budget modest.
func solveExact(benefits []float64, costs []int, budget int) []int {
	n := len(benefits)
	if n == 0 || budget <= 0 {
		return nil
	}
	dp := make([]float64, budget+1)
	take := make([][]bool, n)
	for i := range take {
		take[i] = make([]bool, budget+1)
	}
	for i := 0; i < n; i++ {
		if benefits[i] <= 0 || costs[i] < 0 || costs[i] > budget {
			continue
		}
		for w := budget; w >= costs[i]; w-- {
			if v := dp[w-costs[i]] + benefits[i]; v > dp[w] {
				dp[w] = v
				take[i][w] = true
			}
		}
	}
	var chosen []int
	w := budget
	for i := n - 1; i >= 0; i-- {
		if w >= 0 && costs[i] <= w && take[i][w] {
			chosen = append(chosen, i)
			w -= costs[i]
		}
	}
	sortInts(chosen)
	return chosen
}

// totalBenefit sums the benefits of the selected items.
func totalBenefit(items []Item, sel []int) float64 {
	t := 0.0
	for _, i := range sel {
		t += items[i].Benefit
	}
	return t
}

// totalCost sums the costs of the selected items.
func totalCost(items []Item, sel []int) float64 {
	t := 0.0
	for _, i := range sel {
		t += items[i].Cost
	}
	return t
}
