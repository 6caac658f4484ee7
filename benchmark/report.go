package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
)

// meta stamps a report with where and how it was measured.
type meta struct {
	Commit     string        `json:"commit"`
	Dirty      bool          `json:"dirty"`
	GoVersion  string        `json:"go_version"`
	NProc      int           `json:"nproc"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Kernel     string        `json:"kernel"`
	Seed       int64         `json:"seed"`
	Protocol   protocolStamp `json:"protocol"`
	Traced     bool          `json:"traced"`
	StealFrac  float64       `json:"steal_frac"` // over the whole invocation
}

// protocolStamp is everything about how a report was measured that moves
// its numbers. compare refuses two reports whose stamps differ.
type protocolStamp struct {
	Clients      int     `json:"clients"`  // C
	Rounds       int     `json:"rounds"`   // R
	WindowS      float64 `json:"window_s"` // T
	WarmupS      float64 `json:"warmup_s"`
	Setups       int     `json:"setups"`
	Replay       int     `json:"replay"`
	CrashBatches int     `json:"crash_batches"`
	Card         int     `json:"card_override,omitempty"`
}

// report is what one invocation measured; compare reads two or more.
type report struct {
	Meta      meta                       `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func stampOf(cfg *config) protocolStamp {
	return protocolStamp{
		Clients: cfg.Clients, Rounds: cfg.Rounds, WindowS: cfg.Window.Seconds(), WarmupS: cfg.Warmup.Seconds(),
		Setups: cfg.Setups, Replay: cfg.Replay, CrashBatches: cfg.CrashBatches, Card: cfg.Card,
	}
}

func nproc() int { return runtime.NumCPU() }

func newMeta(cfg *config, root string) meta {
	m := meta{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: nproc(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel: "unknown", Seed: cfg.Seed, Traced: cfg.Trace, Protocol: stampOf(cfg),
	}
	// The pipeline runs the benchmark in a checkout that is not a git
	// repository; the commit is then unknown, which the stamp says.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
			m.Dirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	return m
}

func writeReportJSON(path string, r *report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads in report", path)
	}
	return &r, nil
}

// printHuman writes every metric by name with its unit.
func printHuman(out io.Writer, r *report, order []string) {
	m := r.Meta
	fmt.Fprintf(out, "commit %s dirty=%v  %s  nproc=%d GOMAXPROCS=%d  kernel %s\n", m.Commit, m.Dirty, m.GoVersion, m.NProc, m.GOMAXPROCS, m.Kernel)
	p := m.Protocol
	fmt.Fprintf(out, "seed=%d  C=%d clients  R=%d rounds  T=%.3gs window  warm-up %.3gs  set-ups %d  replay %d  crash batches %d  traced=%v  steal=%.3f\n",
		m.Seed, p.Clients, p.Rounds, p.WindowS, p.WarmupS, p.Setups, p.Replay, p.CrashBatches, m.Traced, m.StealFrac)
	for _, name := range order {
		w := r.Workloads[name]
		if w == nil {
			continue
		}
		fmt.Fprintf(out, "\n== %s ==  pgsserve %s\n", name, strings.Join(w.ServerFlags, " "))
		if w.StoreMiB > 0 {
			fmt.Fprintf(out, "store %.2f MiB, page cache %.2f MiB\n", w.StoreMiB, w.CacheMiB)
		}
		fmt.Fprintf(out, "%d requests measured, %d attempted, %d failed\n", w.Requests, w.Attempted, w.Failed)
		tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "end-to-end\tunit\tmedian\tq25\tq75\tn\tbound\t")
		for _, d := range endToEnd {
			s, ok := w.EndToEnd[d.Name]
			if !ok {
				continue
			}
			bound := fmt.Sprintf("%.0f%%", d.Bound*100)
			if d.AbsBound > 0 {
				bound = fmt.Sprintf("+%g abs", d.AbsBound)
			}
			flag := ""
			if s.Unresolved {
				flag = fmt.Sprintf("unresolved (spread %.0f%%)", s.spread()*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%d\t%s\t%s\n", d.Name, d.Unit, s.Median, s.Q25, s.Q75, s.N, bound, flag)
		}
		tw.Flush()
		if len(w.PerLayer) > 0 {
			tw = tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "per-layer\tunit\tvalue\tshould move\t")
			for _, d := range perLayer {
				if v, ok := w.PerLayer[d.Name]; ok && d.definedOn(name) {
					fmt.Fprintf(tw, "%s\t%s\t%.5g\t%s\t\n", d.Name, d.Unit, v, d.Moves)
				}
			}
			tw.Flush()
		}
		for _, v := range w.Validity {
			fmt.Fprintf(out, "validity: %s\n", v)
		}
		for _, e := range w.Errors {
			fmt.Fprintf(out, "error: %s\n", e)
		}
	}
	if d, o := r.Workloads[wPaperDir], r.Workloads[wPaperOpt]; d != nil && o != nil {
		dp, op := d.EndToEnd["read_p50_ms"], o.EndToEnd["read_p50_ms"]
		if op.Median > 0 {
			fmt.Fprintf(out, "\nserved speed-up, paper_dir.read_p50_ms / paper_opt.read_p50_ms = %.4g ms / %.4g ms = %.3f\n",
				dp.Median, op.Median, dp.Median/op.Median)
		}
	}
}

// undefinedCell is what the pipeline's result line carries for a metric
// that is not defined on the workload: its format has no empty cell, and
// no measurement produces -1. The report written by -out leaves such
// cells out.
const undefinedCell = -1

// driverLine is the single JSON object the pipeline reads from the last
// line of standard output: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1.
func driverLine(w *workloadResult, name string, traced bool) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	if traced {
		for _, d := range driverPerLayer() {
			v := w.PerLayer[d.Name]
			if s, ok := w.EndToEnd[d.Name]; ok {
				v = s.Median
			}
			if !d.definedOn(name) {
				v = undefinedCell
			}
			metrics[d.Name] = metric{v, d.Unit}
		}
	} else {
		for _, d := range driverEndToEnd() {
			metrics[d.Name] = metric{w.EndToEnd[d.Name].Median, d.Unit}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   w.Failed == 0 && len(w.Errors) == 0,
		"attempted": w.Attempted,
		"failed":    w.Failed,
		"metrics":   metrics,
	})
	return string(line)
}
