package crashtest

// The real-crash half of the harness: a child process applies the
// deterministic workload against the store while the parent SIGKILLs it
// at random instants, then audits the reopened store. Because the kill
// is asynchronous it lands everywhere the truncation sweep cannot reach
// by construction — inside an fsync, inside Compact's fold, between
// Compact's manifest commit and its WAL truncation.
//
// Audit rule: the child appends one fsynced line to an ack file after
// every acknowledged mutation, so the parent knows a lower bound L on
// the applied count (an acknowledged-but-unlogged mutation allows the
// true count to be L+1, never more — the child is serial). The reopened
// store must fingerprint-match exactly prefix L or L+1; anything less is
// a lost acknowledgment, anything else is a phantom or corrupted write.
// Every reopen must succeed: a refused one is a violation like any other.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/memstore"
	"repro/internal/storage/storetest"
)

// Environment variables carrying the child's parameters (argv stays
// caller-defined so any binary, such as a test binary re-invoking itself,
// can host ChildMain).
const (
	envDir          = "CRASH_DIR"
	envAck          = "CRASH_ACK"
	envStart        = "CRASH_START"
	envMaxOps       = "CRASH_MAXOPS"
	envCompactEvery = "CRASH_COMPACT_EVERY"
	envCompactBg    = "CRASH_COMPACT_BG"
)

// KillConfig parameterizes KillLoop.
type KillConfig struct {
	Scratch        string        // working directory (created if needed)
	Rounds         int           // child spawn/kill cycles
	Child          []string      // argv of a process that calls ChildMain
	ChildEnv       []string      // extra environment for the child
	MaxOpsPerRound int           // child exits cleanly after this many ops (default 200)
	CompactEvery   int           // child runs Compact every k ops (default 23; negative disables)
	MaxKillDelay   time.Duration // upper bound on the random kill delay (default 40ms)

	// CompactInBackground makes the child run Compact in a goroutine
	// and keep mutating while the fold is in flight, so the SIGKILL can
	// land anywhere inside a background fold — mid-build, between the
	// manifest commit and the WAL rotation, mid-swap.
	CompactInBackground bool
	// buildInChild starts every round from an empty directory: the child
	// bulk-builds the base itself (BuildRandom: an in-memory load
	// whose Finalize writes and commits generation 1), acknowledges
	// mutations and never flushes or closes the store, so kills land
	// mid-load, mid-finalize and after acknowledgements. A reopen with
	// nothing acknowledged may also show the empty store (the kill came
	// before the load's commit, and the load had written nothing). The
	// child must run childMain(true).
	buildInChild bool
	Seed         int64
	Log          func(format string, args ...any) // optional progress logging
}

// KillReport summarizes a KillLoop run.
type KillReport struct {
	Rounds     int // rounds executed
	Kills      int // children that died by our SIGKILL
	CleanExits int // children that finished their op budget first
	FinalOps   int // acknowledged mutations surviving in the final store
}

// KillLoop runs the SIGKILL crash loop and returns an error on the first
// crash-consistency violation.
func KillLoop(cfg KillConfig) (KillReport, error) {
	var rep KillReport
	if cfg.MaxOpsPerRound <= 0 {
		cfg.MaxOpsPerRound = 200
	}
	if cfg.CompactEvery == 0 {
		cfg.CompactEvery = 23
	}
	if cfg.MaxKillDelay <= 0 {
		cfg.MaxKillDelay = 40 * time.Millisecond
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if len(cfg.Child) == 0 {
		return rep, fmt.Errorf("crashtest: KillConfig.Child is empty")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	dir := filepath.Join(cfg.Scratch, "store")
	ackPath := filepath.Join(cfg.Scratch, "acks")
	if !cfg.buildInChild {
		if err := buildBase(dir); err != nil {
			return rep, err
		}
	}
	o, err := newOracle()
	if err != nil {
		return rep, err
	}
	empty := storetest.Fingerprint(memstore.New())

	n := 0 // verified acknowledged-mutation count in dir
	for round := 0; round < cfg.Rounds; round++ {
		rep.Rounds = round + 1
		if cfg.buildInChild {
			if err := os.RemoveAll(dir); err != nil {
				return rep, err
			}
			n = 0
		}
		if err := os.RemoveAll(ackPath); err != nil {
			return rep, err
		}

		cmd := exec.Command(cfg.Child[0], cfg.Child[1:]...)
		var childOut bytes.Buffer
		cmd.Stdout, cmd.Stderr = &childOut, &childOut
		cmd.Env = append(os.Environ(), cfg.ChildEnv...)
		cmd.Env = append(cmd.Env,
			envDir+"="+dir,
			envAck+"="+ackPath,
			fmt.Sprintf("%s=%d", envStart, n),
			fmt.Sprintf("%s=%d", envMaxOps, cfg.MaxOpsPerRound),
			fmt.Sprintf("%s=%d", envCompactEvery, cfg.CompactEvery),
		)
		if cfg.CompactInBackground {
			cmd.Env = append(cmd.Env, envCompactBg+"=1")
		}
		if err := cmd.Start(); err != nil {
			return rep, err
		}
		time.Sleep(time.Duration(1 + rng.Int63n(int64(cfg.MaxKillDelay))))
		_ = cmd.Process.Kill()
		werr := cmd.Wait()
		killed := false
		if werr != nil {
			var xe *exec.ExitError
			if errors.As(werr, &xe) {
				if ws, ok := xe.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
					killed = true
				} else {
					return rep, fmt.Errorf("crashtest: child failed on its own (round %d): %v\n%s", round, werr, childOut.String())
				}
			} else {
				return rep, fmt.Errorf("crashtest: child wait (round %d): %w", round, werr)
			}
		}
		if killed {
			rep.Kills++
		} else {
			rep.CleanExits++
		}

		lastAcked, err := readAcks(ackPath, n)
		if err != nil {
			return rep, err
		}

		s, err := diskstore.Open(dir, diskstore.Options{})
		if err != nil {
			return rep, fmt.Errorf("crashtest: reopen after kill (round %d): %w", round, err)
		}
		got := storetest.Fingerprint(s)
		if err := s.Close(); err != nil {
			return rep, err
		}
		if cfg.buildInChild && lastAcked == 0 && got == empty {
			logf("round %d: killed=%v before the load committed, store empty", round, killed)
			continue
		}
		matched := -1
		for _, m := range []int{lastAcked, lastAcked + 1} {
			want, err := o.fingerprintAt(m)
			if err != nil {
				return rep, err
			}
			if got == want {
				matched = m
				break
			}
		}
		if matched < 0 {
			return rep, fmt.Errorf("crashtest: round %d: reopened store matches neither the %d acknowledged mutations nor one in-flight more — acknowledged write lost or phantom write visible", round, lastAcked)
		}
		logf("round %d: killed=%v acked=%d recovered=%d", round, killed, lastAcked, matched)
		n = matched
	}
	rep.FinalOps = n
	return rep, nil
}

// readAcks returns the highest acknowledged-mutation count recorded in
// the child's ack file, at least floor (the count verified before the
// round). A torn final line — the child died mid-write — is ignored.
func readAcks(path string, floor int) (int, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return floor, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	last := floor
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		v, err := strconv.Atoi(sc.Text())
		if err != nil {
			break // torn tail
		}
		if v > last {
			last = v
		}
	}
	return last, sc.Err()
}

// ChildMain is the child-process body: it reads its parameters from the
// environment, opens the store, and applies the deterministic workload,
// fsyncing one ack line per acknowledged mutation. It never returns —
// the normal exit is the parent's SIGKILL; running out of the op budget
// closes the store and exits 0.
func ChildMain() { childMain(false) }

// childMain is ChildMain; with build set it is the child of a
// buildInChild loop, which first bulk-builds the store into the empty
// directory and never flushes or closes it — running out of the op
// budget exits 0 as abruptly as a kill.
func childMain(build bool) {
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "crashtest child:", err)
		os.Exit(1)
	}
	dir := os.Getenv(envDir)
	ackPath := os.Getenv(envAck)
	start, _ := strconv.Atoi(os.Getenv(envStart))
	maxOps, _ := strconv.Atoi(os.Getenv(envMaxOps))
	compactEvery, _ := strconv.Atoi(os.Getenv(envCompactEvery))
	compactBg := os.Getenv(envCompactBg) != ""
	if dir == "" || ackPath == "" || maxOps <= 0 {
		die(fmt.Errorf("missing %s/%s/%s", envDir, envAck, envMaxOps))
	}
	s, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		die(err)
	}
	if build {
		if _, err := storetest.BuildRandom(s, baseSeed, baseNV, baseNE); err != nil {
			die(err)
		}
	}
	ack, err := os.OpenFile(ackPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		die(err)
	}
	curV := s.NumVertices()
	var folds sync.WaitGroup
	for i := 0; i < maxOps; i++ {
		nOp := start + i
		muts := mutationAt(nOp, curV)
		if _, err := s.ApplyMutations(muts); err != nil {
			die(fmt.Errorf("mutation %d: %w", nOp, err))
		}
		if countsVertex(muts) {
			curV++
		}
		// The mutation is acknowledged (WAL-durable); only now may the
		// ack line exist. The line is fsynced so the parent's lower
		// bound is itself crash-safe.
		if _, err := fmt.Fprintf(ack, "%d\n", nOp+1); err != nil {
			die(err)
		}
		if err := ack.Sync(); err != nil {
			die(err)
		}
		if compactEvery > 0 && (nOp+1)%compactEvery == 0 {
			if compactBg {
				// Fold in the background and keep mutating: the parent's
				// SIGKILL can now land while acknowledged writes race a
				// fold. An overlapping trigger finds the previous fold
				// still running — that is the single-flight contract, not
				// a failure.
				folds.Add(1)
				go func(at int) {
					defer folds.Done()
					if err := s.Compact(); err != nil && !errors.Is(err, storage.ErrCompactInProgress) {
						die(fmt.Errorf("background compact at %d: %w", at, err))
					}
				}(nOp)
			} else if err := s.Compact(); err != nil {
				die(fmt.Errorf("compact at %d: %w", nOp, err))
			}
		}
	}
	// A clean exit must not close the store under an in-flight fold —
	// Close mid-Compact is a caller bug, not a crash we are simulating.
	folds.Wait()
	if !build {
		if err := s.Close(); err != nil {
			die(err)
		}
	}
	os.Exit(0)
}
