package crashtest

import (
	"os"
	"testing"
	"time"
)

// TestTruncationSweep is the deterministic half of the acceptance bar:
// at least 100 distinct WAL kill points, each required to reopen to the
// exact acknowledged prefix.
func TestTruncationSweep(t *testing.T) {
	rep, err := TruncationSweep(t.TempDir(), 60, 120)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KillPoints < 100 {
		t.Errorf("verified %d kill points, want >= 100", rep.KillPoints)
	}
	t.Logf("verified %d kill points over a %d-byte WAL (%d mutations)", rep.KillPoints, rep.WALBytes, rep.Mutations)
}

// TestCrashChild is not a test: it is the child-process body for
// TestKillRecovery, entered only when the parent re-invokes this test
// binary with CRASH_CHILD=1.
func TestCrashChild(t *testing.T) {
	if os.Getenv("CRASH_CHILD") != "1" {
		t.Skip("child-process entry point; driven by TestKillRecovery")
	}
	ChildMain()
}

// TestKillRecovery SIGKILLs a real writer process at random instants —
// including mid-fsync and mid-checkpoint — and verifies the reopened
// store holds exactly the acknowledged prefix each time.
func TestKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real processes; skipped in -short")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := KillLoop(KillConfig{
		Scratch:      t.TempDir(),
		Rounds:       14,
		Child:        []string{exe, "-test.run=^TestCrashChild$"},
		ChildEnv:     []string{"CRASH_CHILD=1"},
		MaxKillDelay: 30 * time.Millisecond,
		Seed:         time.Now().UnixNano(), // timing is inherently nondeterministic; vary the schedule too
		Log:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("report: %+v", rep)
	if rep.Kills == 0 {
		t.Error("no child was killed; the loop never exercised a crash")
	}
}

// TestKillRecoveryBackgroundFold is the background-compaction half of
// the crash bar: the child keeps acknowledging mutations while folds
// run in a goroutine, and the SIGKILL lands mid-fold — mid-build,
// between manifest commit and WAL rotation, mid-swap. Every reopen must
// be the exact acknowledged prefix.
func TestKillRecoveryBackgroundFold(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real processes; skipped in -short")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := KillLoop(KillConfig{
		Scratch:             t.TempDir(),
		Rounds:              14,
		Child:               []string{exe, "-test.run=^TestCrashChild$"},
		ChildEnv:            []string{"CRASH_CHILD=1"},
		CompactEvery:        11, // trigger folds often so kills land inside them
		CompactInBackground: true,
		MaxKillDelay:        30 * time.Millisecond,
		Seed:                time.Now().UnixNano(),
		Log:                 t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("report: %+v", rep)
	if rep.Kills == 0 {
		t.Error("no child was killed; the loop never exercised a crash")
	}
}

// TestCrashBuildChild is not a test: it is the child-process body for
// TestKillRecoveryBuildInChild, entered only when the parent re-invokes
// this test binary with CRASH_CHILD=1.
func TestCrashBuildChild(t *testing.T) {
	if os.Getenv("CRASH_CHILD") != "1" {
		t.Skip("child-process entry point; driven by TestKillRecoveryBuildInChild")
	}
	childMain(true)
}

// TestKillRecoveryBuildInChild kills a child that bulk-loads the store
// itself, acknowledges writes on the freshly finalized store and never
// flushes it: kills land mid-load, mid-finalize and after
// acknowledgements, and the rounds that run out their op budget exit
// without a Close. A pending load lives in memory only, so a kill before
// its Finalize commits leaves nothing on disk but empty files and, at
// most, orphans of the uncommitted generation. Every reopen must succeed
// and show either the empty store (the kill came before the load's
// commit) or the loaded base plus the acknowledged prefix — a freshly
// loaded store is crash-safe from the moment its Finalize returns.
func TestKillRecoveryBuildInChild(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real processes; skipped in -short")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := KillLoop(KillConfig{
		Scratch:      t.TempDir(),
		Rounds:       20,
		Child:        []string{exe, "-test.run=^TestCrashBuildChild$"},
		ChildEnv:     []string{"CRASH_CHILD=1"},
		CompactEvery: -1,
		MaxKillDelay: 10 * time.Millisecond,
		Seed:         time.Now().UnixNano(),
		Log:          t.Logf,
		buildInChild: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("report: %+v", rep)
	if rep.Kills == 0 {
		t.Error("no child was killed; the loop never exercised a crash")
	}
}

// TestOracleHarness is the randomized no-crash acceptance bar: one
// writer, concurrent snapshot-stability readers, and a background
// compactor hammering folds, with writer-pinned snapshots checked
// bit-for-bit against the memstore oracle before and after the folds
// that retire their epochs. Run it under -race; the schedule is the
// test.
func TestOracleHarness(t *testing.T) {
	ops := 300
	if testing.Short() {
		ops = 120
	}
	rep, err := OracleRun(OracleConfig{
		Scratch: t.TempDir(),
		Ops:     ops,
		Readers: 3,
		Seed:    time.Now().UnixNano(),
		Log:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("report: %+v", rep)
	if rep.Folds == 0 {
		t.Error("no fold committed during the run; the harness never exercised a concurrent compaction")
	}
	if rep.OracleSnapshots == 0 {
		t.Error("no writer-pinned snapshot was verified against the oracle")
	}
	if rep.StabilityChecks == 0 {
		t.Error("no reader stability check completed")
	}
}
