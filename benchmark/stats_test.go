package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {95, 100}, {90, 90}, {91, 100}, {10, 10}, {1, 10}, {0, 10}, {100, 100},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// Nearest rank never invents a value between two samples.
	if got := percentile([]float64{1, 1000}, 50); got != 1 {
		t.Errorf("percentile([1 1000], 50) = %v, want 1", got)
	}
}

func TestMedianOfWindows(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	// One window wrecked by a steal burst does not move the median.
	calm := []float64{100, 101, 99, 100, 102, 98, 100}
	burst := append([]float64{2}, calm...)
	if a, b := median(calm), median(burst); math.Abs(a-b) > 1 {
		t.Errorf("median moved from %v to %v on one outlier window", a, b)
	}
}

// The expected values are Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8}, 2.25, 6.75},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 5, 5, 9, 1, 7, 3, 8, 2, 6, 4, 10}, 3.25, 7.75},
		{[]float64{42}, 42, 42},
	} {
		q1, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSummarizeMarksUnresolved(t *testing.T) {
	tight := summarize([]float64{100, 101, 99, 100, 102, 98, 100, 101}, 0.10)
	if tight.Unresolved || tight.N != 8 || tight.Median != 100 {
		t.Errorf("tight windows: %+v", tight)
	}
	wide := summarize([]float64{60, 100, 140, 80, 120, 100, 70, 130}, 0.10)
	if !wide.Unresolved {
		t.Errorf("spread %.2f over a 0.10 bound should be unresolved: %+v", wide.spread(), wide)
	}
	if unbounded := summarize([]float64{1, 100}, 0); unbounded.Unresolved {
		t.Errorf("a metric without a bound can never be unresolved: %+v", unbounded)
	}
}

// sideOf is one side of a compare over several pairs: one median per run.
func sideOf(vals ...float64) side {
	return side{summary: summarize(vals, 0), medians: vals}
}

// oneRun is one side of a compare over a single pair: the quartiles are
// those of the run's own windows.
func oneRun(windows ...float64) side {
	s := summarize(windows, 0)
	return side{summary: s, medians: []float64{s.Median}}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "read_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	fail := metricDef{Name: "fail_frac", Better: "lower", AbsBound: 0.001}
	steady := []float64{100, 101, 99, 100, 100, 101, 99, 100, 100, 101}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{70, 130, 90, 110, 60, 140, 100, 80, 120, 100}

	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, scale(1.02), verdictSame},
		{"worse beyond bound and spread", lower, steady, scale(1.20), verdictWorse},
		{"worse within bound is same", lower, steady, scale(1.08), verdictSame},
		{"better beyond parent spread, wins every pair", lower, steady, scale(0.80), verdictBetter},
		{"higher-is-better worsens when it drops", higher, steady, scale(0.80), verdictWorse},
		{"higher-is-better improves when it rises", higher, steady, scale(1.25), verdictBetter},
		{"noisy parent cannot say unchanged", lower, noisy, noisy, verdictUnresolved},
		{"noisy parent hides a 12% worsening", lower, noisy, scale(1.12), verdictUnresolved},
		{"fail_frac above its absolute bound", fail, []float64{0, 0, 0}, []float64{0.01, 0.01, 0.01}, verdictWorse},
		{"fail_frac still zero", fail, []float64{0, 0, 0}, []float64{0, 0, 0}, verdictSame},
	} {
		if got := verdict(c.d, sideOf(c.a...), sideOf(c.b...)); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}

	// One or two pairs know only the spread of the windows inside a run,
	// which is narrower than the spread between runs: they can say same
	// or unresolved, never worse or better. Three pairs can say worse.
	exact := metricDef{Name: "disk_mb", Better: "lower", Bound: 0.02, Exact: true}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b side
		want string
	}{
		{"one pair, 20% slower, tight windows", lower, oneRun(steady...), oneRun(scale(1.20)...), verdictUnresolved},
		{"one pair, 2% slower", lower, oneRun(steady...), oneRun(scale(1.02)...), verdictSame},
		{"one pair, 30% faster is no regression and no gain", lower, oneRun(steady...), oneRun(scale(0.70)...), verdictSame},
		{"one pair, noisy windows", lower, oneRun(noisy...), oneRun(steady...), verdictUnresolved},
		{"two pairs, 20% slower", lower, sideOf(100, 101), sideOf(120, 121), verdictUnresolved},
		{"three pairs, 20% slower", lower, sideOf(100, 101, 99), sideOf(120, 121, 119), verdictWorse},
		{"exact metric, one pair, 5% larger", exact, oneRun(15.12), oneRun(15.9), verdictWorse},
		{"exact metric, one pair, unchanged", exact, oneRun(15.12), oneRun(15.12), verdictSame},
		{"exact metric, one pair, smaller", exact, oneRun(15.12), oneRun(14.0), verdictBetter},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}

	// Ten pairs, medians well apart, but the change loses three of them:
	// under nine tenths, so no gain may be claimed.
	a := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	b := []float64{80, 80, 80, 80, 80, 80, 80, 120, 120, 120}
	if got := verdict(lower, sideOf(a...), sideOf(b...)); got == verdictBetter {
		t.Errorf("7 wins of 10 must not be a gain, got %s", got)
	}
	// Fewer than ten pairs never make a gain, however large the difference.
	if got := verdict(lower, sideOf(100, 101, 99), sideOf(50, 51, 49)); got == verdictBetter {
		t.Errorf("3 pairs must not be a gain, got %s", got)
	}
	if won, lost := wins(lower, a, b); won != 7 || lost != 3 {
		t.Errorf("wins = %d-%d, want 7-3", won, lost)
	}
}
