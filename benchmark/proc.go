package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverSpec is one served configuration: what the pgsserve child is
// started with and what the twin rebuilds in process.
type serverSpec struct {
	Dataset  string
	Card     int
	Seed     int64
	Backend  string // memstore or diskstore
	Optimize bool
	Localize bool
	// CachePages is the diskstore page cache the store is served with. It
	// is always loaded under loadCachePages by a child that is then
	// stopped, and served by a second child: a store pgsserve has just
	// loaded keeps its base files in the page cache until its first clean
	// shutdown, and a SIGKILL before that leaves it unopenable.
	CachePages  int
	AutoCompact int // delta items that start a background fold; 0 = never
}

// direct is the oracle's configuration: the same dataset under the direct
// schema on memstore.
func (s serverSpec) direct() serverSpec {
	return serverSpec{Dataset: s.Dataset, Card: s.Card, Seed: s.Seed, Backend: "memstore"}
}

// flags renders the pgsserve command line. cachePages and autoCompact are
// parameters because a workload restarts its child with different values.
func (s serverSpec) flags(dataDir string, cachePages, autoCompact int) []string {
	f := []string{
		"-dataset", s.Dataset, "-card", strconv.Itoa(s.Card), "-seed", strconv.FormatInt(s.Seed, 10),
		"-backend", s.Backend, "-addr", "127.0.0.1:0",
	}
	if s.Optimize {
		f = append(f, "-optimize")
	}
	if s.Localize {
		f = append(f, "-localize")
	}
	if s.Backend == "diskstore" {
		f = append(f, "-data-dir", dataDir, "-cache-pages", strconv.Itoa(cachePages))
		if autoCompact > 0 {
			f = append(f, "-auto-compact", strconv.Itoa(autoCompact))
		}
	}
	return f
}

// serverProc is one running pgsserve child.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port

	logMu  sync.Mutex
	log    bytes.Buffer
	exited chan struct{}
}

// children tracks every live child so a signal or a failed run can stop
// them all; the benchmark must not leave a process behind.
var children struct {
	sync.Mutex
	procs map[*serverProc]struct{}
}

func killAllChildren() {
	children.Lock()
	procs := make([]*serverProc, 0, len(children.procs))
	for p := range children.procs {
		procs = append(procs, p)
	}
	children.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// startServer spawns bin with flags and returns once /healthz answers ok.
// The child picks its own port; it is read from the "listening on" line.
func startServer(bin string, flags []string) (*serverProc, error) {
	cmd := exec.Command(bin, flags...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, exited: make(chan struct{})}
	children.Lock()
	if children.procs == nil {
		children.procs = map[*serverProc]struct{}{}
	}
	children.procs[p] = struct{}{}
	children.Unlock()

	addrCh := make(chan string, 1)
	go func() {
		defer close(p.exited)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			p.logMu.Lock()
			p.log.WriteString(line)
			p.log.WriteByte('\n')
			p.logMu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 && !sent {
				fields := strings.Fields(line[i+len("listening on "):])
				if len(fields) > 0 {
					addrCh <- fields[0]
					sent = true
				}
			}
		}
		cmd.Wait()
		children.Lock()
		delete(children.procs, p)
		children.Unlock()
	}()

	select {
	case addr := <-addrCh:
		p.base = "http://" + addr
	case <-p.exited:
		return nil, fmt.Errorf("pgsserve %v exited before listening:\n%s", flags, p.logText())
	case <-time.After(120 * time.Second):
		p.kill()
		return nil, fmt.Errorf("pgsserve %v did not start listening in 120s:\n%s", flags, p.logText())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("pgsserve %v never became healthy: %v", flags, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (p *serverProc) logText() string {
	p.logMu.Lock()
	defer p.logMu.Unlock()
	return p.log.String()
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// stop drains the child (SIGINT, as an operator would) and waits for it;
// a child that does not exit in time is killed. It reports whether the
// child exited cleanly, which is when it has closed and flushed its store.
func (p *serverProc) stop() bool {
	p.cmd.Process.Signal(syscall.SIGINT)
	select {
	case <-p.exited:
	case <-time.After(20 * time.Second):
		p.kill()
	}
	return p.cmd.ProcessState != nil && p.cmd.ProcessState.ExitCode() == 0
}

// kill is the crash: SIGKILL, no drain, no flush. It waits for the exit.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// ---- /proc readers ----

// clockTick is USER_HZ; it is 100 on every Linux this repo targets and
// cannot be asked for without cgo.
const clockTick = 100

// cpuMillis returns utime+stime of pid in milliseconds.
func cpuMillis(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	fields := strings.Fields(string(data[i+1:]))
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return (utime + stime) * 1000 / clockTick, nil
}

// rssMiB returns one memory line of the child's /proc status in MiB:
// "VmRSS" is what it holds now, "VmHWM" the most it ever held.
func rssMiB(pid int, field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// meanRSSMiB reads pid's resident set from /proc every 20 ms until stop is
// closed and returns the mean, in MiB. A server that folds its delta in
// the background swings between 40 and 100 MiB about once a second, a new
// base generation built and the old one dropped; one reading per window
// lands anywhere on that swing, the time average does not. Reading /proc
// costs the child nothing.
func meanRSSMiB(pid int, stop <-chan struct{}) float64 {
	path := fmt.Sprintf("/proc/%d/statm", pid)
	pageMiB := float64(os.Getpagesize()) / (1 << 20)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	sum, n := 0.0, 0
	for {
		if data, err := os.ReadFile(path); err == nil {
			if fields := strings.Fields(string(data)); len(fields) > 1 {
				if pages, err := strconv.ParseFloat(fields[1], 64); err == nil {
					sum += pages * pageMiB
					n++
				}
			}
		}
		select {
		case <-stop:
			return sum / float64(max(n, 1))
		case <-tick.C:
		}
	}
}

// cpuTotals returns the machine's steal and total jiffies from /proc/stat.
func cpuTotals() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// dirMiB is the size of every regular file under dir, in MiB.
func dirMiB(dir string) (float64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return float64(n) / (1 << 20), err
}

// ---- /metrics scrape ----

// scrape fetches the child's Prometheus exposition and returns its
// samples keyed by the series exactly as written, labels included, e.g.
// `pgs_server_requests_total{outcome="shed"}`.
func (p *serverProc) scrape() (map[string]float64, error) {
	resp, err := http.Get(p.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
