package bench

import (
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/workload"
)

func smallOpts() Options {
	return Options{MedCard: 20, FinCard: 8, Seed: 5, Reps: 1, CachePages: 16}
}

func newEnv(t *testing.T, name string) *Env {
	t.Helper()
	env, err := NewEnv(name, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestVaryingSpaceShapes(t *testing.T) {
	for _, name := range []string{"MED", "FIN"} {
		env := newEnv(t, name)
		for _, dist := range []workload.Distribution{workload.Uniform, workload.Zipf} {
			pts, err := VaryingSpace(env, dist, []float64{0.1, 10, 50, 100})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, dist, err)
			}
			if len(pts) != 4 {
				t.Fatalf("%d points", len(pts))
			}
			for _, p := range pts {
				if p.RC < 0 || p.RC > 1.000001 || p.CC < 0 || p.CC > 1.000001 {
					t.Errorf("%s/%s BR out of range at %v%%: %+v", name, dist, p.Pct, p)
				}
			}
			last := pts[len(pts)-1]
			if last.RC != 1 || last.CC != 1 {
				t.Errorf("%s/%s: BR at 100%% = %+v, want 1/1 (Theorem 3 check)", name, dist, last)
			}
			if pts[0].RC > last.RC+1e-9 {
				t.Errorf("%s/%s: BR decreased with budget", name, dist)
			}
		}
	}
}

func TestVaryingThetas(t *testing.T) {
	env := newEnv(t, "FIN")
	pts, err := VaryingThetas(env, workload.Uniform, DefaultThetaPairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		// Paper §5.2: in the worst case both achieve >0.7 at 50% budget.
		if p.RC < 0.5 {
			t.Errorf("RC BR at (%.2f,%.2f) = %.3f, suspiciously low", p.Theta1, p.Theta2, p.RC)
		}
		if p.RC > 1.000001 || p.CC > 1.000001 {
			t.Errorf("BR above 1: %+v", p)
		}
	}
	if !strings.Contains(FormatThetaTable("t", pts), "0.66") {
		t.Error("theta table formatting broken")
	}
}

func TestMicrobenchmarkRows(t *testing.T) {
	for _, name := range []string{"MED", "FIN"} {
		env := newEnv(t, name)
		rows, err := Microbenchmark(env, []Backend{Memstore})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) != 6 {
			t.Fatalf("%s: %d rows, want 6", name, len(rows))
		}
		for _, r := range rows {
			if r.DirMs <= 0 || r.OptMs <= 0 {
				t.Errorf("%s %s: non-positive latencies %+v", name, r.Query, r)
			}
			if r.OptEdges > r.DirEdges {
				t.Errorf("%s %s: OPT traversed more edges (%d) than DIR (%d)",
					name, r.Query, r.OptEdges, r.DirEdges)
			}
		}
		out := FormatMicroTable("fig11", rows)
		if !strings.Contains(out, "speedup") {
			t.Error("micro table formatting broken")
		}
	}
}

func TestMicrobenchmarkReducesTraversals(t *testing.T) {
	env := newEnv(t, "MED")
	rows, err := Microbenchmark(env, []Backend{Memstore})
	if err != nil {
		t.Fatal(err)
	}
	// At least half the queries must traverse strictly fewer edges on
	// OPT; Q7-style local lookups legitimately tie at zero.
	better := 0
	for _, r := range rows {
		if r.OptEdges < r.DirEdges {
			better++
		}
	}
	if better < len(rows)/2 {
		t.Errorf("only %d/%d queries reduced traversals", better, len(rows))
	}
}

func TestWorkloadLatency(t *testing.T) {
	env := newEnv(t, "MED")
	rows, err := WorkloadLatency(env, []Backend{Memstore, Diskstore})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Queries != 15 {
			t.Errorf("workload size = %d, want 15", r.Queries)
		}
		if r.OptEdges > r.DirEdges {
			t.Errorf("%s: OPT edges %d > DIR edges %d", r.Backend, r.OptEdges, r.DirEdges)
		}
	}
	if !strings.Contains(FormatWorkloadTable("fig12", rows), "memstore") {
		t.Error("workload table formatting broken")
	}
}

func TestEfficiencyRows(t *testing.T) {
	env := newEnv(t, "MED")
	rows, err := Efficiency(env, []int{25, 50, 75})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.RCms < 0 || r.CCms < 0 {
			t.Errorf("negative times: %+v", r)
		}
	}
	if !strings.Contains(FormatEffTable("table2", rows), "RC(ms)") {
		t.Error("eff table formatting broken")
	}
}

func TestMotivating(t *testing.T) {
	env := newEnv(t, "MED")
	rows, err := Motivating(env, Memstore)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if _, err := Motivating(newEnv(t, "FIN"), Memstore); err == nil {
		t.Error("FIN accepted for motivating examples")
	}
	if !strings.Contains(FormatMotivating(rows), "Example1") {
		t.Error("motivating formatting broken")
	}
}

func TestIntraQueryScalingShapes(t *testing.T) {
	env := newEnv(t, "MED")
	for _, b := range []Backend{Memstore, Diskstore} {
		pts, err := IntraQueryScaling(env, b, []int{1, 2}, 5)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if len(pts) != 2 {
			t.Fatalf("%s: %d points", b, len(pts))
		}
		for i, p := range pts {
			if p.Ops != 5 {
				t.Errorf("%s: point %d ops = %d, want 5", b, i, p.Ops)
			}
			if p.OpsPerSec <= 0 || p.TotalMs <= 0 {
				t.Errorf("%s: point %d has non-positive throughput: %+v", b, i, p)
			}
		}
		if pts[0].Speedup != 1 {
			t.Errorf("%s: baseline speedup = %v, want 1", b, pts[0].Speedup)
		}
	}
	if !strings.Contains(FormatIntraQueryTable("intra", []IntraQueryPoint{{Workers: 1, Ops: 5}}), "ops/sec") {
		t.Error("intra-query table formatting broken")
	}
	if _, err := IntraQueryScaling(env, Memstore, []int{0}, 5); err == nil {
		t.Error("invalid worker count accepted")
	}
}

// TestIntraQueryScalingDiskMultiCore is the intra-query acceptance gate
// from the morsel-parallelism work: a single client running the pattern
// query with 4 morsel workers over a cache-tight diskstore must beat the
// serial (1-worker) throughput by > 2x on a machine with >= 4 cores. The
// assertion is opt-in (PGS_INTRA_SCALING_GATE=1) because throughput
// ratios on shared runners we don't control are too noisy for the default
// `go test ./...`; without the variable the test still runs the
// experiment and logs the curve.
func TestIntraQueryScalingDiskMultiCore(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation distorts throughput; scaling is asserted in the non-race run")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need >= 4 procs for scaling, have %d", runtime.GOMAXPROCS(0))
	}
	env, err := NewEnv("MED", Options{MedCard: 60, Seed: 5, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := IntraQueryScaling(env.WithCachePages(16), Diskstore, []int{1, 4, 8}, 60)
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for _, p := range pts[1:] {
		if p.Speedup > best {
			best = p.Speedup
		}
	}
	table := FormatIntraQueryTable("intra-query/diskstore-tight", pts)
	if best <= 2 {
		if os.Getenv("PGS_INTRA_SCALING_GATE") == "" {
			t.Logf("best intra-query diskstore throughput = %.2fx of serial (gate threshold 2x; set PGS_INTRA_SCALING_GATE=1 to enforce)\n%s", best, table)
			return
		}
		t.Errorf("best intra-query diskstore throughput = %.2fx of serial, want > 2x\n%s", best, table)
	}
}

func TestNewEnvUnknown(t *testing.T) {
	if _, err := NewEnv("XXX", smallOpts()); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestDiskstoreBackendWorks(t *testing.T) {
	env := newEnv(t, "MED")
	rows, err := Microbenchmark(env, []Backend{Diskstore})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
}

func TestFormatBRTable(t *testing.T) {
	out := FormatBRTable("Figure 8(a)", []BRPoint{{Pct: 0.1, RC: 0.5, CC: 0.4}})
	if !strings.Contains(out, "Figure 8(a)") || !strings.Contains(out, "0.500") {
		t.Errorf("format: %s", out)
	}
}
