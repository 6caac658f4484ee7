package diskstore

// Tests for the durable live-write path: WAL append/fsync/replay, the
// delta segment's read merge, checkpointing via Compact, and the
// degraded-input recovery paths (torn WAL tails, stale logs, torn
// index.db files, interrupted finalize).

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/memstore"
	"repro/internal/storage/storetest"
)

const (
	liveSeed = 7
	liveNV   = 40
	liveNE   = 120
)

// openLivePair bulk-loads the pseudo-random base graph into a diskstore
// in dir and returns it with the graph itself, the model applyLiveStream
// keeps in step with the store.
func openLivePair(t *testing.T, dir string) (*Store, *storetest.Batch) {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storetest.BuildRandom(s, liveSeed, liveNV, liveNE); err != nil {
		t.Fatal(err)
	}
	if !s.Live() {
		t.Fatal("store not live after its bulk load's Finalize")
	}
	return s, storetest.RandomBatch(liveSeed, liveNV, liveNE)
}

// modelFingerprint is the fingerprint of the model loaded into a fresh
// memstore: the reference a live diskstore must read as.
func modelFingerprint(t *testing.T, model *storetest.Batch) string {
	t.Helper()
	ms := memstore.New()
	if err := model.Load(ms); err != nil {
		t.Fatal(err)
	}
	return storetest.Fingerprint(ms)
}

// mustApply applies one ApplyMutations batch and returns its result.
func mustApply(t *testing.T, s *Store, muts ...storage.Mutation) storage.MutationResult {
	t.Helper()
	res, err := s.ApplyMutations(muts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// applyLiveStream applies n deterministic random mutations to the live
// diskstore, each as one ApplyMutations batch (WAL + delta), and records
// the same writes in the model, so fingerprints can be compared
// afterwards.
func applyLiveStream(t *testing.T, seed int64, n int, s *Store, model *storetest.Batch) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"A", "B", "C", "D", "Live"}
	etypes := []string{"r1", "r2", "r3", "follows"}
	nV := s.NumVertices()
	for i := 0; i < n; i++ {
		op := rng.Intn(10)
		v := storage.VID(rng.Intn(nV))
		w := storage.VID(rng.Intn(nV))
		label := labels[rng.Intn(len(labels))]
		var m storage.Mutation
		switch {
		case op < 2: // add vertex
			m = storage.Mutation{Op: storage.MutAddVertex, Labels: []string{label}}
			model.Vertex(label)
		case op < 6: // add edge
			m = storage.Mutation{Op: storage.MutAddEdge, Src: v, Dst: w, Type: etypes[rng.Intn(len(etypes))]}
			model.Edge(v, w, m.Type)
		case op < 8: // set prop
			key := fmt.Sprintf("p%d", rng.Intn(5))
			var val graph.Value
			switch rng.Intn(4) {
			case 0:
				val = graph.S(fmt.Sprintf("live%d", rng.Intn(50)))
			case 1:
				val = graph.I(rng.Int63n(1000))
			case 2:
				val = graph.B(rng.Intn(2) == 0)
			default:
				val = graph.L(graph.S("y"), graph.I(rng.Int63n(9)))
			}
			m = storage.Mutation{Op: storage.MutSetProp, V: v, Key: key, Value: val}
			model.Prop(v, key, val)
		default: // add label
			m = storage.Mutation{Op: storage.MutAddLabel, V: v, Label: label}
			model.Label(v, label)
		}
		res, err := s.ApplyMutations([]storage.Mutation{m})
		if err != nil {
			t.Fatalf("op %d (%d): %v", i, m.Op, err)
		}
		if m.Op == storage.MutAddVertex {
			if int(res.Vertices[0]) != nV {
				t.Fatalf("op %d AddVertex VID = %d, want %d", i, res.Vertices[0], nV)
			}
			nV++
		}
	}
}

func TestLiveEquivalenceDifferential(t *testing.T) {
	s, model := openLivePair(t, t.TempDir())
	defer s.Close()
	applyLiveStream(t, 11, 300, s, model)
	if got, want := storetest.Fingerprint(s), modelFingerprint(t, model); got != want {
		t.Errorf("live diskstore diverged from memstore reference\n got %s\nwant %s", got, want)
	}
	// The fast-path interface must agree with the generic one over the
	// merged base+delta view.
	storetest.CheckFastEquivalence(t, s, s)
	ls := s.LiveStats()
	if !ls.Live || ls.DeltaVertices == 0 || ls.DeltaEdges == 0 || ls.WALAppends == 0 || ls.WALSyncs == 0 || ls.WALBytes == 0 {
		t.Errorf("live stats did not move: %+v", ls)
	}
}

func TestLiveReopenReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	s, model := openLivePair(t, dir)
	applyLiveStream(t, 23, 200, s, model)
	want := modelFingerprint(t, model)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, walFileName)); err != nil {
		t.Fatalf("wal.db should persist across close: %v", err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.Live() {
		t.Error("reopened store should be live")
	}
	if got := storetest.Fingerprint(s2); got != want {
		t.Errorf("replayed store diverged from reference\n got %s\nwant %s", got, want)
	}
	// Replay must continue accepting writes whose effects persist again.
	applyLiveStream(t, 29, 50, s2, model)
	if got, want := storetest.Fingerprint(s2), modelFingerprint(t, model); got != want {
		t.Errorf("post-replay writes diverged\n got %s\nwant %s", got, want)
	}
}

// TestCompactFoldsDeltaAndCheckpointsWAL folds three times with live
// writes before each fold — from the second fold on, the generation
// writer folds a base it wrote itself — and compares against the
// memstore reference after every step and after a reopen.
func TestCompactFoldsDeltaAndCheckpointsWAL(t *testing.T) {
	dir := t.TempDir()
	s, model := openLivePair(t, dir)
	var want string
	for fold, seed := range []int64{31, 37, 41} {
		applyLiveStream(t, seed, 250, s, model)
		want = modelFingerprint(t, model)
		if got := storetest.Fingerprint(s); got != want {
			t.Fatalf("fold %d: live store diverged from reference before the fold\n got %s\nwant %s", fold, got, want)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if got := storetest.Fingerprint(s); got != want {
			t.Errorf("fold %d: compacted store diverged from reference\n got %s\nwant %s", fold, got, want)
		}
		ls := s.LiveStats()
		if ls.DeltaVertices != 0 || ls.DeltaEdges != 0 {
			t.Errorf("fold %d: delta not empty after Compact: %+v", fold, ls)
		}
		if !ls.Live || ls.Compactions != int64(fold+1) {
			t.Errorf("fold %d: store should stay live, with %d compactions: %+v", fold, fold+1, ls)
		}
		if st, err := os.Stat(filepath.Join(dir, walFileName)); err != nil || st.Size() != 0 {
			t.Errorf("fold %d: wal.db not truncated by checkpoint: size=%v err=%v", fold, st, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := storetest.Fingerprint(s2); got != want {
		t.Errorf("reopened compacted store diverged\n got %s\nwant %s", got, want)
	}
}

// TestFinalizeIsDeterministic folds one live store in two byte-identical
// copies and requires the two new generations to be byte-identical too.
// The delta holds what map iteration could reorder: delta vertices with
// several properties, override-only keys and overrides on base vertices,
// and labels added to base vertices.
func TestFinalizeIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	s, _ := openLivePair(t, dir)
	for i := 0; i < 12; i++ {
		b := storage.VID(i * 3)
		mustApply(t, s,
			storage.Mutation{Op: storage.MutAddVertex, Labels: []string{"Live"}},
			storage.Mutation{Op: storage.MutSetProp, V: -1, Key: "p0", Value: graph.S(fmt.Sprintf("new%d", i))},
			storage.Mutation{Op: storage.MutSetProp, V: -1, Key: "p1", Value: graph.I(int64(i))},
			storage.Mutation{Op: storage.MutSetProp, V: -1, Key: "q0", Value: graph.L(graph.S("z"), graph.I(int64(i)))},
			storage.Mutation{Op: storage.MutSetProp, V: b, Key: "q0", Value: graph.S(fmt.Sprintf("over%d", i))},
			storage.Mutation{Op: storage.MutSetProp, V: b, Key: "q1", Value: graph.B(i%2 == 0)},
			storage.Mutation{Op: storage.MutSetProp, V: b, Key: "p2", Value: graph.F(float64(i) / 4)},
			storage.Mutation{Op: storage.MutAddLabel, V: b, Label: "Live"},
			storage.Mutation{Op: storage.MutAddLabel, V: b, Label: "E"},
			storage.Mutation{Op: storage.MutAddEdge, Src: -1, Dst: b, Type: "follows"},
		)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var files [2]map[string][]byte
	for i := range files {
		c, err := Open(copyDir(t, dir), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Compact(); err != nil {
			t.Fatal(err)
		}
		gen := c.Format().Generation
		files[i] = map[string][]byte{}
		for _, name := range append(baseFileNames[:], indexFileName) {
			data, err := os.ReadFile(filepath.Join(c.dir, genFileName(name, gen)))
			if err != nil {
				t.Fatal(err)
			}
			files[i][name] = data
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range files[0] {
		if !bytes.Equal(data, files[1][name]) {
			t.Errorf("%s differs between two folds of the same store", name)
		}
	}
}

// TestPropertyRunsAreContiguous loads vertices whose properties mix a
// list and scalars and requires the generation's layout to pass
// checkLayout — every vertex's properties one sorted run, the runs and
// the adjacency blocks tiling their files — after the load's Finalize and
// again after a fold of live writes.
func TestPropertyRunsAreContiguous(t *testing.T) {
	s, err := Open(t.TempDir(), Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	model := &storetest.Batch{}
	const n = 60
	for v := 0; v < n; v++ {
		model.Vertex([]string{"A", "B"}[v%2])
		model.Prop(storage.VID(v), "tags", graph.L(graph.S("t"), graph.I(int64(v))))
		model.Prop(storage.VID(v), "name", graph.S(fmt.Sprintf("v%d", v)))
		model.Prop(storage.VID(v), "rank", graph.I(int64(v)))
		model.Edge(storage.VID(v), storage.VID((v+1)%n), "next")
	}
	if err := model.Load(s); err != nil {
		t.Fatal(err)
	}
	checkLayout(t, s, "after Finalize")
	applyLiveStream(t, 61, 120, s, model)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	checkLayout(t, s, "after a fold")
	if got, want := storetest.Fingerprint(s), modelFingerprint(t, model); got != want {
		t.Errorf("store diverged from reference\n got %s\nwant %s", got, want)
	}
}

// TestPropOverrideGuard: a base property read skips a delta that holds
// no override, without its lock. The first override turns the guard on:
// it is visible at once through the store, invisible through a snapshot
// taken before it and visible through one taken after; once a fold
// absorbs it and the delta is pruned, the guard is off again and the
// base serves the new value.
func TestPropOverrideGuard(t *testing.T) {
	s := newTestStore(t, Options{PageSize: 512, CachePages: 16})
	v, err := s.AddVertexBatch([]storage.BulkVertex{{Labels: []string{"N"}, Props: []storage.BulkProp{{Key: "k", Value: graph.I(1)}}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if n := s.delta.overrides.Load(); n != 0 {
		t.Fatalf("a finalized store's delta counts %d overrides", n)
	}
	before := s.AcquireSnapshot()
	mustApply(t, s, storage.Mutation{Op: storage.MutSetProp, V: v, Key: "k", Value: graph.I(2)})
	if n := s.delta.overrides.Load(); n != 1 {
		t.Errorf("after one override the delta counts %d", n)
	}
	after := s.AcquireSnapshot()
	for _, c := range []struct {
		name string
		g    storage.Graph
		want int64
	}{{"store", s, 2}, {"snapshot before", before, 1}, {"snapshot after", after, 2}} {
		if val, ok := c.g.Prop(v, "k"); !ok || val.Int() != c.want {
			t.Errorf("%s: Prop = %v, %v; want %d", c.name, val, ok, c.want)
		}
	}
	before.Release()
	after.Release()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := s.delta.overrides.Load(); n != 0 {
		t.Errorf("after the fold absorbed it the delta counts %d overrides", n)
	}
	if val, ok := s.Prop(v, "k"); !ok || val.Int() != 2 {
		t.Errorf("after the fold: Prop = %v, %v; want 2", val, ok)
	}
}

// TestLiveSnapshotIsolationAcrossFold pins a snapshot of a live store,
// writes a delta on top, then folds the delta into a new base
// generation — and demands the snapshot keeps reading the pre-write
// state throughout, even though the fold retires the very epoch it
// pins. This is the long-traversal contract: a reader that started
// before a compaction is never torn between generations.
func TestLiveSnapshotIsolationAcrossFold(t *testing.T) {
	s, model := openLivePair(t, t.TempDir())
	defer s.Close()
	before := storetest.Fingerprint(s)
	snap := s.AcquireSnapshot()
	defer snap.Release()

	applyLiveStream(t, 909, 40, s, model)
	after := modelFingerprint(t, model)
	if got := storetest.Fingerprint(s); got != after {
		t.Fatalf("live store diverged from reference before the fold\n got %s\nwant %s", got, after)
	}
	if got := storetest.Fingerprint(snap); got != before {
		t.Fatalf("delta writes leaked into a snapshot pinned before them\n got %s\nwant %s", got, before)
	}

	gen := s.LiveStats().Generation
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if ls := s.LiveStats(); ls.Generation != gen+1 {
		t.Fatalf("Generation = %d after fold, want %d", ls.Generation, gen+1)
	}
	if got := storetest.Fingerprint(snap); got != before {
		t.Errorf("snapshot drifted when the fold retired its epoch\n got %s\nwant %s", got, before)
	}
	if got := storetest.Fingerprint(s); got != after {
		t.Errorf("store state changed across the fold\n got %s\nwant %s", got, after)
	}
	post := s.AcquireSnapshot()
	if got := storetest.Fingerprint(post); got != after {
		t.Errorf("snapshot acquired after the fold reads stale state\n got %s\nwant %s", got, after)
	}
	post.Release()
	snap.Release()
	if got := s.LiveStats().PinnedSnapshots; got != 0 {
		t.Errorf("%d snapshots still pinned after release", got)
	}
}

// TestWALReplaySelfReferencingBatch covers the normal /mutate client
// shape: one batch that creates a vertex and immediately references it
// with batch-relative refs. The WAL logs the record with the references
// already resolved to absolute VIDs, so replay at reopen must accept a
// record that points at vertices the record itself creates — before the
// fix, recovery refused such a log with "vertex out of range" and the
// acknowledged batch was unrecoverable.
func TestWALReplaySelfReferencingBatch(t *testing.T) {
	dir := t.TempDir()
	s, _ := openLivePair(t, dir)
	res, err := s.ApplyMutations([]storage.Mutation{
		{Op: storage.MutAddVertex, Labels: []string{"SelfRef"}},
		{Op: storage.MutSetProp, V: -1, Key: "k", Value: graph.I(42)},
		{Op: storage.MutAddEdge, Src: -1, Dst: 0, Type: "selfT"},
		{Op: storage.MutAddVertex, Labels: []string{"SelfRef"}},
		{Op: storage.MutAddEdge, Src: -2, Dst: -1, Type: "selfT"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vertices) != 2 {
		t.Fatalf("expected 2 new vertices, got %v", res.Vertices)
	}
	want := storetest.Fingerprint(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen replays the WAL record; nothing was checkpointed, so the
	// whole self-referencing batch comes back through replayBatch.
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after self-referencing batch: %v", err)
	}
	defer re.Close()
	if got := storetest.Fingerprint(re); got != want {
		t.Fatalf("replayed store diverged from the acknowledged state")
	}
	v := res.Vertices[0]
	if val, ok := re.Prop(v, "k"); !ok || val.Int() != 42 {
		t.Fatalf("replayed vertex %d lost its property: %v %v", v, val, ok)
	}
}

func TestTornWALTailTruncatedOnOpen(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(path string, clean int64) error
	}{
		{"garbage appended", func(path string, clean int64) error {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01})
			return err
		}},
		{"half record", func(path string, clean int64) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			// Re-append the first half of the last record: a crash mid-append.
			return os.WriteFile(path, append(data, data[clean-9:]...), 0o644)
		}},
		{"corrupt crc", func(path string, clean int64) error {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				return err
			}
			defer f.Close()
			// A full-looking record whose CRC cannot match.
			rec := []byte{4, 0, 0, 0, 1, 2, 3, 4, 9, 9, 9, 9}
			_, err = f.Write(rec)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, model := openLivePair(t, dir)
			applyLiveStream(t, 37, 120, s, model)
			want := modelFingerprint(t, model)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			walPath := filepath.Join(dir, walFileName)
			st, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			clean := st.Size()
			if err := tc.mut(walPath, clean); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if got := storetest.Fingerprint(s2); got != want {
				t.Errorf("store after torn-tail repair diverged\n got %s\nwant %s", got, want)
			}
			if st, err := os.Stat(walPath); err != nil || st.Size() != clean {
				t.Errorf("torn tail not truncated: size=%d want %d (err=%v)", st.Size(), clean, err)
			}
		})
	}
}

// TestStaleWALSkippedBySeqFence reproduces a crash between Compact's
// manifest commit and its WAL truncation: the restored log's records all
// carry sequence numbers at or below the manifest's wal_seq fence, so
// replay must skip them (they are already folded into the base) and
// recovery must finish the truncation.
func TestStaleWALSkippedBySeqFence(t *testing.T) {
	dir := t.TempDir()
	s, model := openLivePair(t, dir)
	applyLiveStream(t, 41, 150, s, model)
	walPath := filepath.Join(dir, walFileName)
	stale, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	want := modelFingerprint(t, model)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Undo the truncation, as if the crash hit right before it.
	if err := os.WriteFile(walPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := storetest.Fingerprint(s2); got != want {
		t.Errorf("stale WAL was replayed on top of the folded base\n got %s\nwant %s", got, want)
	}
	if st, err := os.Stat(walPath); err != nil || st.Size() != 0 {
		t.Errorf("stale WAL not truncated during recovery: %v %v", st, err)
	}
	// New writes after the fence must still be logged, replayed, and not
	// collide with the stale sequence range.
	applyLiveStream(t, 43, 40, s2, model)
	want = modelFingerprint(t, model)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := storetest.Fingerprint(s3); got != want {
		t.Errorf("post-fence writes lost\n got %s\nwant %s", got, want)
	}
}

func TestApplyMutationsBatchSemantics(t *testing.T) {
	s, _ := openLivePair(t, t.TempDir())
	defer s.Close()
	nV, nE := s.NumVertices(), s.NumEdges()

	res, err := s.ApplyMutations([]storage.Mutation{
		{Op: storage.MutAddVertex, Labels: []string{"X", "Y"}},
		{Op: storage.MutAddVertex, Labels: []string{"X"}},
		{Op: storage.MutAddEdge, Src: -1, Dst: -2, Type: "knows"},
		{Op: storage.MutAddEdge, Src: -2, Dst: 0, Type: "knows"},
		{Op: storage.MutSetProp, V: -1, Key: "name", Value: graph.S("first")},
		{Op: storage.MutAddLabel, V: -2, Label: "Z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vertices) != 2 || int(res.Vertices[0]) != nV || int(res.Vertices[1]) != nV+1 {
		t.Fatalf("vertex IDs = %v, want [%d %d]", res.Vertices, nV, nV+1)
	}
	if len(res.Edges) != 2 || int(res.Edges[0]) != nE || int(res.Edges[1]) != nE+1 {
		t.Fatalf("edge IDs = %v, want [%d %d]", res.Edges, nE, nE+1)
	}
	v1, v2 := res.Vertices[0], res.Vertices[1]
	if got := s.Labels(v1); fmt.Sprint(got) != "[X Y]" {
		t.Errorf("Labels(%d) = %v", v1, got)
	}
	if got := s.Labels(v2); fmt.Sprint(got) != "[X Z]" {
		t.Errorf("Labels(%d) = %v", v2, got)
	}
	if val, ok := s.Prop(v1, "name"); !ok || val.Str() != "first" {
		t.Errorf("Prop(%d, name) = %v %v", v1, val, ok)
	}
	var dsts []storage.VID
	s.ForEachOut(v1, "knows", func(_ storage.EID, dst storage.VID) bool {
		dsts = append(dsts, dst)
		return true
	})
	if len(dsts) != 1 || dsts[0] != v2 {
		t.Errorf("out(knows) of %d = %v, want [%d]", v1, dsts, v2)
	}
	if got := s.Degree(v2, "knows", true); got != 1 {
		t.Errorf("Degree(%d, knows, out) = %d, want 1", v2, got)
	}

	// Invalid batches must be rejected whole, before logging anything.
	nV, nE = s.NumVertices(), s.NumEdges()
	appends := s.LiveStats().WALAppends
	for name, batch := range map[string][]storage.Mutation{
		"forward batch ref": {
			{Op: storage.MutAddEdge, Src: -1, Dst: 0, Type: "knows"},
			{Op: storage.MutAddVertex},
		},
		"out of range": {{Op: storage.MutAddEdge, Src: 0, Dst: storage.VID(nV + 99), Type: "knows"}},
		"empty label":  {{Op: storage.MutAddVertex, Labels: []string{""}}},
		"empty type":   {{Op: storage.MutAddEdge, Src: 0, Dst: 1, Type: ""}},
		"empty key":    {{Op: storage.MutSetProp, V: 0, Key: "", Value: graph.I(1)}},
		"nested list":  {{Op: storage.MutSetProp, V: 0, Key: "p0", Value: graph.L(graph.L(graph.I(1)))}},
		"unknown op":   {{Op: storage.MutationOp(99)}},
	} {
		if _, err := s.ApplyMutations(batch); err == nil {
			t.Errorf("%s: batch accepted, want error", name)
		}
	}
	if s.NumVertices() != nV || s.NumEdges() != nE {
		t.Error("rejected batches changed the graph")
	}
	if got := s.LiveStats().WALAppends; got != appends {
		t.Errorf("rejected batches reached the WAL: appends %d -> %d", appends, got)
	}
}

// TestApplyMutationsNotLive: ErrNotLive means a pending bulk load, and
// says how to end it.
func TestApplyMutationsNotLive(t *testing.T) {
	s := newTestStore(t, Options{})
	if _, err := s.AddVertexBatch([]storage.BulkVertex{{Labels: []string{"A"}}}); err != nil {
		t.Fatal(err)
	}
	_, err := s.ApplyMutations([]storage.Mutation{{Op: storage.MutAddVertex}})
	if !errors.Is(err, storage.ErrNotLive) {
		t.Fatalf("ApplyMutations during a bulk load: err = %v, want ErrNotLive", err)
	}
	if !strings.Contains(fmt.Sprint(err), "Finalize") {
		t.Errorf("ErrNotLive should hint at Finalize: %v", err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyMutations([]storage.Mutation{{Op: storage.MutAddVertex}}); err != nil {
		t.Errorf("ApplyMutations after the load's Finalize: %v", err)
	}

	// A load whose first batch failed holds nothing; its Finalize still
	// ends it.
	empty := newTestStore(t, Options{})
	if _, err := empty.AddVertexBatch([]storage.BulkVertex{{Labels: []string{""}}}); err == nil {
		t.Fatal("a vertex with an empty label was accepted")
	}
	if err := empty.Finalize(); err != nil {
		t.Fatal(err)
	}
	if !empty.Live() {
		t.Error("the Finalize of an empty load left it pending")
	}
}

// TestFreshStoreIsLive: a store is live from Open, with nothing built. A
// batch applies and reads back at once, and a reopen without Close
// replays it from the WAL.
func TestFreshStoreIsLive(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Live() {
		t.Fatal("fresh store is not live")
	}
	res, err := s.ApplyMutations([]storage.Mutation{
		{Op: storage.MutAddVertex, Labels: []string{"A"}},
		{Op: storage.MutAddVertex, Labels: []string{"B"}},
		{Op: storage.MutAddEdge, Src: -1, Dst: -2, Type: "r"},
		{Op: storage.MutSetProp, V: -2, Key: "k", Value: graph.S("v")},
	})
	if err != nil {
		t.Fatalf("ApplyMutations on a fresh store: %v", err)
	}
	model := &storetest.Batch{}
	a, b := model.Vertex("A"), model.Vertex("B")
	model.Edge(a, b, "r")
	model.Prop(b, "k", graph.S("v"))
	want := modelFingerprint(t, model)
	if got := storetest.Fingerprint(s); got != want || len(res.Vertices) != 2 || len(res.Edges) != 1 {
		t.Fatalf("fresh store after one batch (result %+v)\n got %s\nwant %s", res, got, want)
	}
	if err := s.closeFiles(); err != nil { // crash: no Flush, no Close
		t.Fatal(err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := storetest.Fingerprint(re); got != want {
		t.Errorf("reopen did not replay the batch from the WAL\n got %s\nwant %s", got, want)
	}
}

// TestPendingLoadWritesNothing: a bulk load gathers in memory. While it is
// pending every file in the store directory is empty or absent, reads see
// the empty store and ApplyMutations is refused; a Finalize that fails
// keeps it pending, and the one that succeeds commits exactly the graph
// its batches hold.
func TestPendingLoadWritesNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	first, err := s.AddVertexBatch([]storage.BulkVertex{
		{Labels: []string{"A"}, Props: []storage.BulkProp{{Key: "name", Value: graph.S("a")}}},
		{Labels: []string{"B"}, Props: []storage.BulkProp{{Key: "tags", Value: graph.L(graph.S("x"), graph.I(2))}}},
		{Labels: []string{"A"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdgeBatch([]storage.BulkEdge{{Src: first, Dst: first + 1, Type: "r"}, {Src: first + 2, Dst: first, Type: "s"}}); err != nil {
		t.Fatal(err)
	}
	v, err := s.AddVertexBatch([]storage.BulkVertex{{Labels: []string{"C"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdgeBatch([]storage.BulkEdge{{Src: v, Dst: first + 1, Type: "r"}}); err != nil {
		t.Fatal(err)
	}
	model := &storetest.Batch{}
	for _, labels := range [][]string{{"A"}, {"B"}, {"A"}, {"C"}} {
		model.Vertex(labels...)
	}
	model.Edge(0, 1, "r")
	model.Edge(2, 0, "s")
	model.Prop(0, "name", graph.S("a"))
	model.Prop(1, "tags", graph.L(graph.S("x"), graph.I(2)))
	model.Edge(3, 1, "r")

	pending := func() {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if info, err := e.Info(); err != nil || info.Size() != 0 {
				t.Errorf("%s holds %d bytes during a pending load (err %v)", e.Name(), info.Size(), err)
			}
		}
		if s.NumVertices() != 0 || s.NumEdges() != 0 || s.CountLabel("A") != 0 {
			t.Errorf("reads see a pending load: %d vertices, %d edges", s.NumVertices(), s.NumEdges())
		}
		if _, err := s.ApplyMutations([]storage.Mutation{{Op: storage.MutAddVertex}}); !errors.Is(err, storage.ErrNotLive) {
			t.Errorf("ApplyMutations during the load: err = %v, want ErrNotLive", err)
		}
	}
	pending()
	squat := filepath.Join(dir, genFileName("edges.db", 1))
	if err := os.Mkdir(squat, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err == nil {
		t.Fatal("Finalize succeeded with its edges file occupied")
	}
	if err := os.RemoveAll(squat); err != nil { // the cleanup may have taken it
		t.Fatal(err)
	}
	pending()
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got, want := storetest.Fingerprint(s), modelFingerprint(t, model); got != want {
		t.Errorf("finalized load diverges from the reference\n got %s\nwant %s", got, want)
	}
	if !s.Live() || s.Format().Generation != 1 {
		t.Errorf("after the load's Finalize: live=%v generation %d, want live at generation 1", s.Live(), s.Format().Generation)
	}
}

// TestAddEdgeAfterFinalizeStaysSegmented is the silent-degradation fix:
// an incremental edge on a finalized store used to clear the segmented
// invariant and push every typed traversal onto the
// filter-the-full-adjacency path. Now it lands in the delta and base
// edges keep their segment fast path.
func TestAddEdgeAfterFinalizeStaysSegmented(t *testing.T) {
	s, model := openLivePair(t, t.TempDir())
	defer s.Close()
	mustApply(t, s, storage.Mutation{Op: storage.MutAddEdge, Src: 0, Dst: 1, Type: "r1"})
	model.Edge(0, 1, "r1")
	if ls := s.LiveStats(); ls.DeltaEdges != 1 {
		t.Errorf("LiveStats = %+v, want one delta edge", ls)
	}
	if got, want := storetest.Fingerprint(s), modelFingerprint(t, model); got != want {
		t.Errorf("graph state diverged after live AddEdge\n got %s\nwant %s", got, want)
	}
}

// TestInterruptedFinalizeTypedError: the marker an earlier build's
// in-place Finalize left behind surfaces as ErrFinalizeInterrupted, with
// a recovery hint that names the marker.
func TestInterruptedFinalizeTypedError(t *testing.T) {
	dir := t.TempDir()
	s, _ := openLivePair(t, dir)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, finalizeMarker), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	if err == nil {
		t.Fatal("Open accepted a store with a finalize marker")
	}
	if !errors.Is(err, ErrFinalizeInterrupted) {
		t.Errorf("err = %v, want errors.Is ErrFinalizeInterrupted", err)
	}
	msg := err.Error()
	for _, want := range []string{"rebuild", finalizeMarker} {
		if !strings.Contains(msg, want) {
			t.Errorf("error message %q missing recovery hint %q", msg, want)
		}
	}
}

// TestLiveFinalizeKeepsLaterWrites: writes acknowledged after a Finalize
// of a live store survive a clean Close and reopen. Finalize is the fold,
// so the WAL keeps every record past the fold's fence.
func TestLiveFinalizeKeepsLaterWrites(t *testing.T) {
	dir := t.TempDir()
	s, model := openLivePair(t, dir)
	applyLiveStream(t, 51, 60, s, model)
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	applyLiveStream(t, 53, 60, s, model)
	want := modelFingerprint(t, model)
	if got := storetest.Fingerprint(s); got != want {
		t.Fatalf("live store diverged from reference before the reopen\n got %s\nwant %s", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := storetest.Fingerprint(re); got != want {
		t.Errorf("writes acknowledged after Finalize were lost at reopen\n got %s\nwant %s", got, want)
	}
}

// TestWritesDuringFoldSurviveSwapAndReopen is the mid-fold audit: durable
// writes keep arriving while a background Compact folds a delta into the
// next base generation, and every acknowledged one must read back after
// the swap and after a cold reopen. Each mid-fold batch adds a vertex and
// also writes to a vertex of the frozen delta — a property, a label, an
// edge — so a batch acknowledged after the freeze exercises the swap's
// re-routing of young writes on vertices that the fold turns into base
// vertices. Folds repeat until two of them had writes land after their
// freeze.
func TestWritesDuringFoldSurviveSwapAndReopen(t *testing.T) {
	const nV, nE, perRound = 1500, 4500, 150
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	if _, err := storetest.BuildRandom(s, 99, nV, nE); err != nil {
		t.Fatal(err)
	}
	model := storetest.RandomBatch(99, nV, nE)

	folds, youngFolds := 0, 0
	for round := 0; round < 8 && youngFolds < 2; round++ {
		folds++
		// A delta worth folding: fresh vertices wired back into the base.
		var frozen []storage.VID
		var batch []storage.Mutation
		for i := 0; i < perRound; i++ {
			v := model.Vertex("Delta")
			model.Prop(v, "p0", graph.I(int64(i)))
			model.Edge(v, storage.VID(i), "r1")
			frozen = append(frozen, v)
			ref := storage.VID(-(i + 1)) // the batch's i-th new vertex
			batch = append(batch,
				storage.Mutation{Op: storage.MutAddVertex, Labels: []string{"Delta"}},
				storage.Mutation{Op: storage.MutSetProp, V: ref, Key: "p0", Value: graph.I(int64(i))},
				storage.Mutation{Op: storage.MutAddEdge, Src: ref, Dst: storage.VID(i), Type: "r1"},
			)
		}
		mustApply(t, s, batch...)

		var foldDone atomic.Bool
		var foldErr error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			foldErr = s.Compact()
			foldDone.Store(true)
		}()
		for k := 0; !foldDone.Load(); k++ {
			target := frozen[k%perRound]
			val := graph.I(int64(round*1_000_000 + k))
			muts := []storage.Mutation{
				{Op: storage.MutAddVertex, Labels: []string{"MidFold"}},
				{Op: storage.MutSetProp, V: -1, Key: "mid", Value: val},
				{Op: storage.MutSetProp, V: target, Key: "mid", Value: val},
				{Op: storage.MutAddEdge, Src: target, Dst: storage.VID(k % nV), Type: "r2"},
			}
			if k < perRound {
				muts = append(muts, storage.Mutation{Op: storage.MutAddLabel, V: target, Label: "Touched"})
			}
			mustApply(t, s, muts...)
			v := model.Vertex("MidFold")
			model.Prop(v, "mid", val)
			model.Prop(target, "mid", val)
			model.Edge(target, storage.VID(k%nV), "r2")
			if k < perRound {
				model.Label(target, "Touched")
			}
			time.Sleep(200 * time.Microsecond)
		}
		wg.Wait()
		if foldErr != nil {
			t.Fatalf("round %d: background fold: %v", round, foldErr)
		}
		// Vertices added after the freeze are still in the delta, so
		// their batches' writes to frozen vertices were young at the swap.
		if s.LiveStats().DeltaVertices > 0 {
			youngFolds++
		}
		if got, want := storetest.Fingerprint(s), modelFingerprint(t, model); got != want {
			t.Fatalf("round %d: writes acknowledged during the fold are not visible after the swap\n got %s\nwant %s", round, got, want)
		}
	}
	if youngFolds == 0 {
		t.Fatal("no fold had a write land after its freeze; the audit checked nothing mid-fold")
	}
	t.Logf("%d folds, %d with writes acknowledged after their freeze", folds, youngFolds)

	want := modelFingerprint(t, model)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := storetest.Fingerprint(s); got != want {
		t.Errorf("writes acknowledged during the folds were lost at reopen\n got %s\nwant %s", got, want)
	}
}

// TestFailedFinalizeKeepsPreviousCommit makes Finalize fail partway — a
// directory squats on a path it must create — on a store built by live
// batches (all of it in the WAL and the delta over an empty base) and on a
// bulk-loaded one with live writes, at the new generation's first file,
// at its index and at the manifest rename. The store keeps serving its
// previous state, reopens at its previous commit after a crash, and
// finalizes once the path is free.
func TestFailedFinalizeKeepsPreviousCommit(t *testing.T) {
	build := func(t *testing.T, dir string) (*Store, string) {
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := storetest.RandomBatch(liveSeed, liveNV, liveNE).Apply(s); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		return s, storetest.Fingerprint(s)
	}
	live := func(t *testing.T, dir string) (*Store, string) {
		s, model := openLivePair(t, dir)
		applyLiveStream(t, 57, 40, s, model)
		return s, modelFingerprint(t, model)
	}
	squats := []struct {
		at   string // the step whose path is occupied
		path func(gen int64) string
	}{
		{"edges file", func(gen int64) string { return genFileName("edges.db", gen+1) }},
		{"index", func(gen int64) string { return genFileName(indexFileName, gen+1) + ".tmp" }},
		{"manifest", func(int64) string { return "manifest.json.tmp" }},
	}
	for _, store := range []struct {
		name  string
		setup func(*testing.T, string) (*Store, string)
	}{{"build", build}, {"live", live}} {
		for _, squat := range squats {
			t.Run(store.name+"/"+squat.at, func(t *testing.T) {
				dir := t.TempDir()
				s, want := store.setup(t, dir)
				gen := s.Format().Generation
				path := filepath.Join(dir, squat.path(gen))
				if err := os.Mkdir(path, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := s.Finalize(); err == nil {
					t.Errorf("Finalize succeeded with %s occupied", path)
				}
				if got := s.Format().Generation; got != gen {
					t.Errorf("failed Finalize moved the store to generation %d, want %d", got, gen)
				}
				if got := storetest.Fingerprint(s); got != want {
					t.Errorf("failed Finalize changed what the store serves\n got %s\nwant %s", got, want)
				}
				if err := s.closeFiles(); err != nil { // crash: nothing more is committed
					t.Fatal(err)
				}
				if err := os.RemoveAll(path); err != nil { // the cleanup may have taken it
					t.Fatal(err)
				}
				re, err := Open(dir, Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				if got := storetest.Fingerprint(re); got != want {
					t.Errorf("reopen after a failed Finalize lost the previous commit\n got %s\nwant %s", got, want)
				}
				if err := re.Finalize(); err != nil {
					t.Fatal(err)
				}
				if got := storetest.Fingerprint(re); got != want {
					t.Errorf("Finalize after the failed one changed the graph\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}

// TestIndexTornWriteFallback corrupts index.db at every truncation
// boundary and at every single byte; Open must silently fall back to the
// vertex scan and produce an identical graph each time.
func TestIndexTornWriteFallback(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storetest.BuildRandom(s, 3, 8, 12); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	want := storetest.Fingerprint(s)
	idxPath := s.indexPath(s.Format().Generation)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, mutated []byte) {
		t.Helper()
		if err := os.WriteFile(idxPath, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open with damaged index: %v", err)
		}
		if got := storetest.Fingerprint(s); got != want {
			t.Errorf("scan fallback diverged\n got %s\nwant %s", got, want)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Close self-repairs the index; restore the damage baseline for
		// the next case from orig instead.
	}
	t.Run("truncations", func(t *testing.T) {
		for n := 0; n < len(orig); n += 1 {
			check(t, orig[:n])
		}
	})
	t.Run("bitflips", func(t *testing.T) {
		for i := 0; i < len(orig); i++ {
			mutated := append([]byte(nil), orig...)
			mutated[i] ^= 0x40
			check(t, mutated)
		}
	})
	t.Run("missing", func(t *testing.T) {
		if err := os.Remove(idxPath); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if got := storetest.Fingerprint(s); got != want {
			t.Errorf("missing-index fallback diverged\n got %s\nwant %s", got, want)
		}
	})
}

// TestStoreWithoutWALOpensClean: a store that never took a live write
// (or was compacted and cleanly closed) has no wal.db and must open
// exactly as it was closed.
func TestStoreWithoutWALOpensClean(t *testing.T) {
	dir := t.TempDir()
	s, _ := openLivePair(t, dir)
	want := storetest.Fingerprint(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, walFileName)); !os.IsNotExist(err) {
		t.Fatalf("clean close of an unmutated live store left wal.db (err=%v)", err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := storetest.Fingerprint(s2); got != want {
		t.Errorf("reopen diverged\n got %s\nwant %s", got, want)
	}
	if !s2.Live() {
		t.Error("finalized store should be live on reopen")
	}
}

// TestConcurrentMutateAndRead drives writers and readers at the same
// time; it exists mainly as a -race target for the delta/WAL/symbol-table
// locking.
func TestConcurrentMutateAndRead(t *testing.T) {
	s, _ := openLivePair(t, t.TempDir())
	defer s.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				nV := s.NumVertices()
				for v := 0; v < nV; v++ {
					id := storage.VID(v)
					s.Labels(id)
					s.PropKeys(id)
					s.Degree(id, "r1", true)
					s.ForEachOut(id, "", func(storage.EID, storage.VID) bool { return true })
					s.ForEachIn(id, "r2", func(storage.EID, storage.VID) bool { return true })
				}
				s.CountLabel("A")
				s.ForEachVertex("Live", func(storage.VID) bool { return true })
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 150; i++ {
				batch := []storage.Mutation{
					{Op: storage.MutAddVertex, Labels: []string{"Live"}},
					{Op: storage.MutAddEdge, Src: -1, Dst: storage.VID(rng.Intn(liveNV)), Type: "r1"},
					{Op: storage.MutSetProp, V: -1, Key: "p0", Value: graph.I(int64(i))},
				}
				if _, err := s.ApplyMutations(batch); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	if got := s.LiveStats().DeltaVertices; got != 300 && !t.Failed() {
		t.Errorf("delta vertices = %d, want 300", got)
	}
}

// TestHasLabelAgreesWithLabelsAcrossLifecycle: on a live view HasLabelID
// answers from the epoch's membership bitmap plus the delta, Labels from
// the vertex record plus the delta. They must agree in every state a
// serving epoch can come into being in — including the one where a
// bitmap built for the previous base would be stale.
func TestHasLabelAgreesWithLabelsAcrossLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, _ := openLivePair(t, dir)
	check := func(stage string, g storage.Graph) {
		t.Helper()
		t.Run(stage, func(t *testing.T) { storetest.CheckLabelMembership(t, g) })
	}
	addLabel := func(s *Store, v storage.VID, label string) {
		t.Helper()
		mustApply(t, s, storage.Mutation{Op: storage.MutAddLabel, V: v, Label: label})
	}
	addVertex := func(s *Store, labels ...string) storage.VID {
		t.Helper()
		return mustApply(t, s, storage.Mutation{Op: storage.MutAddVertex, Labels: labels}).Vertices[0]
	}
	check("finalized by the bulk load", s)

	addLabel(s, 0, "Live") // base vertex, label new to the store
	addLabel(s, 1, "A")    // base vertex, label it may already carry
	dv := addVertex(s, "A")
	addLabel(s, dv, "Live") // delta vertex
	check("live delta over the base", s)
	pinned := s.AcquireSnapshot()
	defer pinned.Release()

	gen := s.LiveStats().Generation
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.LiveStats().Generation; got != gen+1 {
		t.Fatalf("generation %d after Compact, want a background fold to %d", got, gen+1)
	}
	check("after a background fold", s)
	check("snapshot pinned on the superseded epoch", pinned)
	pinned.Release()

	// The stale-bitmap case: these land in the delta, and Finalize folds
	// them into a new epoch whose bitmap must include them.
	addLabel(s, 2, "Fresh")
	addLabel(s, dv, "Fresh")
	addVertex(s, "Fresh", "B")
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if !s.Live() {
		t.Fatal("store not live after Finalize")
	}
	check("after an exclusive Finalize of a live store", s)

	addLabel(s, 3, "Replayed") // stays in the WAL across the reopen
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Format().IndexLoaded {
		t.Error("reopen did not load index.db")
	}
	check("reopened from index.db, WAL replayed", s2)
	idx := s2.indexPath(s2.Format().Generation)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(idx); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Format().IndexLoaded {
		t.Error("index.db was deleted, yet the reopen claims to have loaded it")
	}
	check("reopened by vertex scan", s3)
	if !s3.HasLabel(3, "Replayed") || !s3.HasLabel(2, "Fresh") || !s3.HasLabel(0, "Live") || s3.HasLabel(4, "Live") {
		t.Error("labels added along the way were lost or misplaced")
	}
}

// TestLiveLabelCheckTouchesNoPage: the label check of a typed expand on a
// live store is answered from the resident index — the expand costs the
// same page accesses with the check as without it.
func TestLiveLabelCheckTouchesNoPage(t *testing.T) {
	s, _ := openLivePair(t, t.TempDir())
	defer s.Close()
	// A non-empty delta must not change the answer.
	mustApply(t, s, storage.Mutation{Op: storage.MutAddLabel, V: 0, Label: "Live"})
	r1, a, live := s.TypeID("r1"), s.LabelID("A"), s.LabelID("Live")
	expand := func(withCheck bool) (accesses int64, edges, matched int) {
		s.ResetStats()
		for v := 0; v < liveNV; v++ {
			s.ForEachOutID(storage.VID(v), r1, func(_ storage.EID, dst storage.VID) bool {
				edges++
				if withCheck && (s.HasLabelID(dst, a) || s.HasLabelID(dst, live)) {
					matched++
				}
				return true
			})
		}
		st := s.Stats()
		return st.PageHits + st.PageMisses, edges, matched
	}
	plain, edges, _ := expand(false)
	checked, _, matched := expand(true)
	if edges == 0 || matched == 0 || matched == edges {
		t.Fatalf("fixture too dull: %d edges, %d pass the label check", edges, matched)
	}
	if checked != plain {
		t.Errorf("%d page accesses with the label check, %d without: the check reads vertex records", checked, plain)
	}
}

// TestPagerStatsSurviveFold: the page-cache counters belong to the store,
// not to a generation's pager — a background fold never sets them back,
// and reads through a snapshot pinned on the superseded epoch keep
// counting.
func TestPagerStatsSurviveFold(t *testing.T) {
	s, model := openLivePair(t, t.TempDir())
	defer s.Close()
	applyLiveStream(t, 41, 60, s, model)
	pinned := s.AcquireSnapshot()
	defer pinned.Release()
	if err := s.DropCache(); err != nil { // so the sweep below reads from disk
		t.Fatal(err)
	}
	storetest.Fingerprint(s)

	atLeast := func(stage string, got, floor storage.Stats) {
		t.Helper()
		if got.PageHits < floor.PageHits || got.PageMisses < floor.PageMisses ||
			got.PageReads < floor.PageReads {
			t.Errorf("%s: counters went backwards: %+v -> %+v", stage, floor, got)
		}
	}
	before := s.Stats()
	if before.PageHits == 0 || before.PageReads == 0 {
		t.Fatalf("no pager traffic before the fold: %+v", before)
	}
	gen := s.LiveStats().Generation
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.LiveStats().Generation; got != gen+1 {
		t.Fatalf("generation %d after Compact, want a background fold to %d", got, gen+1)
	}
	folded := s.Stats()
	atLeast("across the fold", folded, before)

	storetest.Fingerprint(pinned)
	viaOld := s.Stats()
	atLeast("reading the superseded epoch", viaOld, folded)
	if viaOld.PageHits == folded.PageHits {
		t.Error("reads through the pinned, superseded epoch were not counted")
	}
	storetest.Fingerprint(s)
	viaNew := s.Stats()
	atLeast("reading the new epoch", viaNew, viaOld)
	if viaNew.PageReads == viaOld.PageReads {
		t.Error("the new generation's cold pages were read without being counted")
	}

	s.ResetStats()
	if got := s.Stats(); got != (storage.Stats{}) {
		t.Errorf("ResetStats left %+v", got)
	}
}
