// Package crashtest is the crash-injection harness for the diskstore's
// durable live-write path. It verifies the WAL's contract from the
// outside: after a crash at ANY byte offset or instant, reopening the
// store yields exactly the acknowledged prefix of the mutation stream —
// no acknowledged write lost, no unacknowledged write visible.
//
// Two modes:
//
//   - TruncationSweep simulates crashes deterministically. Live
//     mutations touch only wal.db (the base files are frozen in live
//     mode), so the store directory a crash leaves behind is exactly
//     "base files + a prefix of the WAL". The sweep records the WAL
//     length at every acknowledgment boundary, then reopens the store
//     from every interesting prefix — each boundary, one byte on either
//     side of it (torn tails), and a spread of random offsets — and
//     fingerprint-compares against an in-memory oracle.
//
//   - KillLoop crashes for real: it spawns a child process (any argv
//     that ends up in ChildMain) applying the same deterministic
//     workload, SIGKILLs it at a random instant — which lands mid-append,
//     mid-fsync, and mid-checkpoint — and verifies the reopened state is
//     the acknowledged prefix, give or take the one in-flight mutation
//     that was durable but not yet externally acknowledged.
//
// Both modes share one deterministic workload (mutationAt), so a failure
// reproduces from its seed and offset alone.
package crashtest

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/memstore"
	"repro/internal/storage/storetest"
)

// Workload shape: the pseudo-random base graph every run starts from,
// built identically into the diskstore under test and the memstore
// oracle.
const (
	baseSeed = 5
	baseNV   = 30
	baseNE   = 90
)

var (
	crashLabels = []string{"A", "B", "C", "D", "K"}
	crashTypes  = []string{"r1", "r2", "r3"}
	crashKeys   = []string{"p0", "p1", "p2", "p3"}
)

// mutationAt returns mutation n of the deterministic workload as a
// single-op batch. curV is the vertex count before the mutation; it is
// the only piece of state the workload depends on, and it evolves
// deterministically (an AddVertex op adds one), so any process — the
// writer, the oracle, a restarted child — regenerates the same stream.
func mutationAt(n, curV int) []storage.Mutation {
	rng := rand.New(rand.NewSource(int64(n)*2654435761 + 17))
	v := storage.VID(rng.Intn(curV))
	w := storage.VID(rng.Intn(curV))
	switch rng.Intn(6) {
	case 0:
		// Half the vertex-adding batches immediately reference the new
		// vertex (the normal /mutate client shape). This is the pattern
		// that lands in the WAL with absolute self-references, so replay
		// after a crash must accept a record pointing at vertices the
		// record itself creates.
		if rng.Intn(2) == 0 {
			return []storage.Mutation{
				{Op: storage.MutAddVertex, Labels: []string{crashLabels[rng.Intn(len(crashLabels))]}},
				{Op: storage.MutSetProp, V: -1, Key: crashKeys[rng.Intn(len(crashKeys))], Value: graph.I(int64(n))},
				{Op: storage.MutAddEdge, Src: -1, Dst: w, Type: crashTypes[rng.Intn(len(crashTypes))]},
			}
		}
		return []storage.Mutation{{Op: storage.MutAddVertex, Labels: []string{crashLabels[rng.Intn(len(crashLabels))]}}}
	case 1, 2, 3:
		return []storage.Mutation{{Op: storage.MutAddEdge, Src: v, Dst: w, Type: crashTypes[rng.Intn(len(crashTypes))]}}
	case 4:
		return []storage.Mutation{{Op: storage.MutSetProp, V: v, Key: crashKeys[rng.Intn(len(crashKeys))], Value: graph.I(int64(n))}}
	default:
		return []storage.Mutation{{Op: storage.MutAddLabel, V: v, Label: crashLabels[rng.Intn(len(crashLabels))]}}
	}
}

// countsVertex reports whether the batch grows the vertex count.
func countsVertex(muts []storage.Mutation) bool {
	return len(muts) > 0 && muts[0].Op == storage.MutAddVertex
}

// oracle is a plain model of the workload — the base graph plus every
// mutation of the prefix, as one storetest.Batch — and the fingerprint of
// every prefix: fps[k] is the observable state after k live mutations,
// read from a memstore loaded with the model's first k mutations.
type oracle struct {
	model *storetest.Batch
	fps   []string
}

func newOracle() (*oracle, error) {
	o := &oracle{model: storetest.RandomBatch(baseSeed, baseNV, baseNE)}
	fp, err := o.fingerprint()
	if err != nil {
		return nil, err
	}
	o.fps = []string{fp}
	return o, nil
}

// fingerprint loads the model into a fresh memstore and fingerprints it.
func (o *oracle) fingerprint() (string, error) {
	ms := memstore.New()
	if err := o.model.Load(ms); err != nil {
		return "", err
	}
	return storetest.Fingerprint(ms), nil
}

// fingerprintAt extends the oracle to m mutations if needed and returns
// the fingerprint of that prefix.
func (o *oracle) fingerprintAt(m int) (string, error) {
	for len(o.fps) <= m {
		n := len(o.fps) - 1
		if err := applyToModel(o.model, mutationAt(n, len(o.model.Vertices))); err != nil {
			return "", fmt.Errorf("oracle mutation %d: %w", n, err)
		}
		fp, err := o.fingerprint()
		if err != nil {
			return "", fmt.Errorf("oracle mutation %d: %w", n, err)
		}
		o.fps = append(o.fps, fp)
	}
	return o.fps[m], nil
}

// applyToModel appends one batch to the model. Batch-relative references
// (-1 = first vertex this batch created) resolve against the vertices it
// added, mirroring the MutableGraph contract the store under test
// implements.
func applyToModel(model *storetest.Batch, muts []storage.Mutation) error {
	var created []storage.VID
	ref := func(v storage.VID) (storage.VID, error) {
		if v < 0 {
			k := int(-v)
			if k > len(created) {
				return 0, fmt.Errorf("batch reference %d points at a vertex not yet created", v)
			}
			v = created[k-1]
		}
		if int(v) >= len(model.Vertices) {
			return 0, fmt.Errorf("vertex %d out of range", v)
		}
		return v, nil
	}
	for _, m := range muts {
		switch m.Op {
		case storage.MutAddVertex:
			created = append(created, model.Vertex(m.Labels...))
		case storage.MutAddEdge:
			src, err := ref(m.Src)
			if err != nil {
				return err
			}
			dst, err := ref(m.Dst)
			if err != nil {
				return err
			}
			model.Edge(src, dst, m.Type)
		case storage.MutSetProp:
			v, err := ref(m.V)
			if err != nil {
				return err
			}
			model.Prop(v, m.Key, m.Value)
		case storage.MutAddLabel:
			v, err := ref(m.V)
			if err != nil {
				return err
			}
			model.Label(v, m.Label)
		default:
			return fmt.Errorf("unknown op %d", m.Op)
		}
	}
	return nil
}

// buildBase creates the finalized base store in dir.
func buildBase(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		return err
	}
	if _, err := storetest.BuildRandom(s, baseSeed, baseNV, baseNE); err != nil {
		s.Close()
		return err
	}
	if err := s.Compact(); err != nil {
		s.Close()
		return err
	}
	return s.Close()
}

// copyDir copies the flat store directory src to dst (which is
// recreated).
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// SweepReport summarizes one TruncationSweep run.
type SweepReport struct {
	Mutations  int   // acknowledged mutations in the workload
	KillPoints int   // WAL prefixes verified
	WALBytes   int64 // final WAL length
}

// TruncationSweep runs the deterministic crash simulation in scratch:
// nMut acknowledged mutations, then a reopen-and-verify at every
// acknowledgment boundary, the bytes on either side of each boundary,
// and random offsets padded to at least minKills distinct prefixes.
// Every verification demands the exact acknowledged prefix — mutation i
// present if and only if its acknowledgment-time WAL length fits in the
// surviving prefix.
func TruncationSweep(scratch string, nMut, minKills int) (SweepReport, error) {
	var rep SweepReport
	base := filepath.Join(scratch, "base")
	if err := buildBase(base); err != nil {
		return rep, err
	}
	o, err := newOracle()
	if err != nil {
		return rep, err
	}

	// Apply the workload serially, recording the WAL length at each
	// acknowledgment: with one in-flight batch at a time, that length is
	// the exact durability boundary of the batch.
	work := filepath.Join(scratch, "work")
	if err := copyDir(base, work); err != nil {
		return rep, err
	}
	s, err := diskstore.Open(work, diskstore.Options{})
	if err != nil {
		return rep, err
	}
	walPath := filepath.Join(work, "wal.db")
	curV := s.NumVertices()
	ackOff := make([]int64, 0, nMut)
	for n := 0; n < nMut; n++ {
		muts := mutationAt(n, curV)
		if _, err := s.ApplyMutations(muts); err != nil {
			s.Close()
			return rep, fmt.Errorf("mutation %d: %w", n, err)
		}
		if countsVertex(muts) {
			curV++
		}
		st, err := os.Stat(walPath)
		if err != nil {
			s.Close()
			return rep, err
		}
		ackOff = append(ackOff, st.Size())
		if _, err := o.fingerprintAt(n + 1); err != nil {
			s.Close()
			return rep, err
		}
	}
	if err := s.Close(); err != nil {
		return rep, err
	}
	walData, err := os.ReadFile(walPath)
	if err != nil {
		return rep, err
	}

	// Kill points: empty log, every boundary, boundary±1 (torn first/last
	// byte of a record), plus random offsets up to minKills.
	offSet := map[int64]bool{0: true}
	addOff := func(k int64) {
		if k >= 0 && k <= int64(len(walData)) {
			offSet[k] = true
		}
	}
	for _, off := range ackOff {
		addOff(off - 1)
		addOff(off)
		addOff(off + 1)
	}
	rng := rand.New(rand.NewSource(99))
	for len(offSet) < minKills {
		addOff(rng.Int63n(int64(len(walData)) + 1))
	}
	offs := make([]int64, 0, len(offSet))
	for k := range offSet {
		offs = append(offs, k)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })

	victim := filepath.Join(scratch, "victim")
	for _, k := range offs {
		if err := copyDir(base, victim); err != nil {
			return rep, err
		}
		if k > 0 {
			if err := os.WriteFile(filepath.Join(victim, "wal.db"), walData[:k], 0o644); err != nil {
				return rep, err
			}
		}
		vs, err := diskstore.Open(victim, diskstore.Options{})
		if err != nil {
			return rep, fmt.Errorf("kill offset %d: reopen: %w", k, err)
		}
		applied := 0
		for _, off := range ackOff {
			if off <= k {
				applied++
			}
		}
		want, err := o.fingerprintAt(applied)
		if err != nil {
			vs.Close()
			return rep, err
		}
		got := storetest.Fingerprint(vs)
		if err := vs.Close(); err != nil {
			return rep, fmt.Errorf("kill offset %d: close: %w", k, err)
		}
		if got != want {
			return rep, fmt.Errorf("kill offset %d: reopened state is not the exact %d-mutation acknowledged prefix\n got %s\nwant %s", k, applied, got, want)
		}
		rep.KillPoints++
	}
	rep.Mutations = nMut
	rep.WALBytes = int64(len(walData))
	return rep, nil
}
