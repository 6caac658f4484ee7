package diskstore

// The durable write path. Every store is live from Open, except while a
// bulk load is pending (finalize.go): its base files are frozen, and every
// mutation batch is:
//
//  1. validated and resolved (batch-relative vertex references become
//     absolute VIDs),
//  2. encoded into one WAL record, appended, and fsynced (group commit)
//     — the durability point: the batch is acknowledged only after this,
//  3. applied to the in-memory delta segment the read paths merge.
//
// Crashing before the fsync completes leaves at most a torn record that
// recovery truncates (the batch was never acknowledged); crashing after
// it leaves a whole record that recovery replays. Finalize (or Compact)
// folds the delta into a fresh finalized base and rotates the WAL.
//
// Concurrency: ApplyMutations calls serialize on liveMu. Readers never
// block on it — they see the delta through its own RWMutex and the
// symbol tables through symMu.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/graph"
	"repro/internal/storage"
)

var (
	_ storage.MutableGraph      = (*Store)(nil)
	_ storage.LiveStatsReporter = (*Store)(nil)
)

// Live reports whether the store accepts ApplyMutations: always, except
// while a bulk load is pending.
func (s *Store) Live() bool { return s.load.Load() == nil }

// LiveStats reports delta segment sizes, WAL activity, and background
// compaction state. Delta sizes are the entries visible beyond the
// current base generation — what the next Compact would fold.
func (s *Store) LiveStats() storage.LiveStats {
	ep := s.curEp()
	ls := storage.LiveStats{
		Live:            s.Live(),
		EdgeBytes:       ep.edgeBytes,
		Generation:      ep.gen,
		FoldRunning:     s.folding.Load(),
		FoldProgress:    s.foldProgress.Load(),
		PinnedSnapshots: s.pinnedSnaps.Load(),
		Compactions:     s.compactions.Load(),
	}
	ls.DeltaVertices = max(s.delta.nextV.Load()-ep.numVertices, 0)
	ls.DeltaEdges = max(s.delta.nextE.Load()-ep.numEdges, 0)
	if w := s.wal.Load(); w != nil {
		ls.WALAppends = w.appends.Load()
		ls.WALSyncs = w.syncs.Load()
		ls.WALSyncNanos = w.syncNanos.Load()
		ls.WALBytes = w.bytes.Load()
	}
	return ls
}

// ApplyMutations validates, logs, fsyncs, and applies one batch; see the
// storage.MutableGraph contract. The batch is atomic with respect to
// crashes: it becomes one WAL record, so after reopen either every
// mutation in it is present or none is. While a bulk load is pending it
// returns storage.ErrNotLive.
func (s *Store) ApplyMutations(batch []storage.Mutation) (storage.MutationResult, error) {
	var res storage.MutationResult
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	if s.load.Load() != nil {
		return res, fmt.Errorf("diskstore: %w; its Finalize commits it", storage.ErrNotLive)
	}
	if len(batch) == 0 {
		return res, nil
	}
	resolved, err := s.resolveBatch(batch)
	if err != nil {
		return res, err
	}
	if err := s.internBatch(resolved); err != nil {
		return res, err
	}
	ops, err := encodeWALOps(resolved)
	if err != nil {
		return res, err
	}
	w, err := s.walHandle()
	if err != nil {
		return res, err
	}
	// Under liveMu the current epoch cannot swap (the fold's commit takes
	// liveMu), so the generation tag and the delta routing below are
	// consistent with each other and with the WAL order.
	seq, err := w.append(ops, len(resolved), uint32(s.cur.gen))
	if err != nil {
		return res, err
	}
	if err := w.sync(seq); err != nil {
		return res, err
	}
	return s.applyToDelta(seq, resolved), nil
}

// walHandle returns the open WAL, creating wal.db on the first
// mutation — never at Open, so read-only open/close cycles leave the
// store directory untouched.
func (s *Store) walHandle() (*wal, error) {
	if w := s.wal.Load(); w != nil {
		return w, nil
	}
	w, err := openWAL(filepath.Join(s.dir, walFileName))
	if err != nil {
		return nil, err
	}
	// Fresh log: start sequences above the manifest's checkpoint fence so
	// replay's seq <= wal_seq skip can never discard a new record.
	w.seed(w.size, s.walFoldedSeq)
	s.wal.Store(w)
	return w, nil
}

// resolveBatch validates a batch and returns a copy with every vertex
// reference absolute. It rejects the whole batch — before anything is
// logged — on an unknown vertex, a forward batch reference, an empty
// symbol name, or an unstorable value.
func (s *Store) resolveBatch(batch []storage.Mutation) ([]storage.Mutation, error) {
	return s.resolveBatchAt(batch, false)
}

func (s *Store) resolveBatchAt(batch []storage.Mutation, replay bool) ([]storage.Mutation, error) {
	// The bound is every vertex ever created — folded into a base or
	// still delta-resident — which is exactly the delta's global
	// next-VID. It is fold-invariant, so a concurrent background fold
	// cannot change the meaning of a batch-relative reference.
	existing := s.delta.nextV.Load()
	newSoFar := int64(0)
	resolveRef := func(v storage.VID) (storage.VID, error) {
		if v >= 0 {
			limit := existing
			if replay {
				// WAL records are logged with references already resolved to
				// absolute VIDs, so a replayed record legitimately points at
				// vertices created earlier in its own batch.
				limit += newSoFar
			}
			if int64(v) >= limit {
				return 0, fmt.Errorf("diskstore: vertex %d out of range", v)
			}
			return v, nil
		}
		k := int64(-v) // -1 = first vertex created by this batch
		if k > newSoFar {
			return 0, fmt.Errorf("diskstore: batch reference %d points at a vertex not yet created in the batch", v)
		}
		return storage.VID(existing + k - 1), nil
	}
	out := make([]storage.Mutation, len(batch))
	for i := range batch {
		m := batch[i]
		if err := checkMutation(&m); err != nil {
			return nil, err
		}
		var err error
		switch m.Op {
		case storage.MutAddVertex:
			m.Labels = append([]string(nil), m.Labels...)
			newSoFar++
		case storage.MutAddEdge:
			if m.Src, err = resolveRef(m.Src); err != nil {
				return nil, err
			}
			if m.Dst, err = resolveRef(m.Dst); err != nil {
				return nil, err
			}
		case storage.MutSetProp, storage.MutAddLabel:
			if m.V, err = resolveRef(m.V); err != nil {
				return nil, err
			}
		}
		out[i] = m
	}
	return out, nil
}

// checkMutation rejects an unknown op, an empty symbol name, or an
// unstorable value.
func checkMutation(m *storage.Mutation) error {
	switch m.Op {
	case storage.MutAddVertex:
		if slices.Contains(m.Labels, "") {
			return fmt.Errorf("diskstore: empty label in AddVertex")
		}
	case storage.MutAddEdge:
		if m.Type == "" {
			return fmt.Errorf("diskstore: empty edge type in AddEdge")
		}
	case storage.MutSetProp:
		if m.Key == "" {
			return fmt.Errorf("diskstore: empty property key in SetProp")
		}
		return checkValueKind(m.Value)
	case storage.MutAddLabel:
		if m.Label == "" {
			return fmt.Errorf("diskstore: empty label in AddLabel")
		}
	default:
		return fmt.Errorf("diskstore: unknown mutation op %d", m.Op)
	}
	return nil
}

// checkValueKind rejects values the record format cannot store, before
// they reach the WAL.
func checkValueKind(v graph.Value) error {
	switch v.Kind() {
	case graph.KindNull, graph.KindInt, graph.KindFloat, graph.KindBool, graph.KindString:
		return nil
	case graph.KindList:
		for _, el := range v.List() {
			if el.Kind() == graph.KindList {
				return fmt.Errorf("diskstore: cannot store nested list value")
			}
		}
		return nil
	default:
		return fmt.Errorf("diskstore: unsupported value kind %v", v.Kind())
	}
}

// internBatch interns every symbol the batch mentions under the
// symbol-table write lock. Readers resolving symbols concurrently hold
// the read lock (see resolveSym).
func (s *Store) internBatch(batch []storage.Mutation) error {
	s.symMu.Lock()
	defer s.symMu.Unlock()
	for i := range batch {
		m := &batch[i]
		switch m.Op {
		case storage.MutAddVertex:
			for _, l := range m.Labels {
				if _, _, err := s.labelID(l, true); err != nil {
					return err
				}
			}
		case storage.MutAddEdge:
			s.internType(m.Type)
		case storage.MutSetProp:
			s.internKey(m.Key)
		case storage.MutAddLabel:
			if _, _, err := s.labelID(m.Label, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyToDelta applies a fully resolved, interned batch to the delta
// segment under its seq and assigns IDs. Label additions look up base
// membership (the epoch's bitmap) first so byLabel stays duplicate-free
// against it. The caller holds liveMu, which keeps the current epoch
// (used to route base-vertex vs delta-vertex writes) stable across the
// batch. appliedSeq advances inside the delta lock so a snapshot
// acquired at that watermark always sees the whole batch.
func (s *Store) applyToDelta(seq uint64, batch []storage.Mutation) storage.MutationResult {
	var res storage.MutationResult
	d := s.delta
	curBase := s.cur.numVertices
	baseHas := make([]bool, len(batch))
	for i := range batch {
		m := &batch[i]
		if m.Op == storage.MutAddLabel && int64(m.V) < curBase {
			baseHas[i] = s.cur.hasLabelBit(m.V, storage.SymbolID(s.labelIDs[m.Label]))
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range batch {
		m := &batch[i]
		switch m.Op {
		case storage.MutAddVertex:
			var ids []int
			for _, l := range m.Labels {
				id := s.labelIDs[l]
				dup := false
				for _, have := range ids {
					if have == id {
						dup = true
						break
					}
				}
				if !dup {
					ids = append(ids, id)
				}
			}
			res.Vertices = append(res.Vertices, d.addVertexLocked(seq, ids))
		case storage.MutAddEdge:
			e := d.addEdgeLocked(seq, m.Src, m.Dst, uint32(s.typeIDs[m.Type]))
			res.Edges = append(res.Edges, e)
		case storage.MutSetProp:
			d.setPropLocked(seq, m.V, curBase, s.keyIDs[m.Key], m.Value)
		case storage.MutAddLabel:
			d.addLabelLocked(seq, m.V, curBase, s.labelIDs[m.Label], baseHas[i])
		}
	}
	d.appliedSeq.Store(seq)
	return res
}

// recoverLive runs at Open: it readies the current epoch for serving and
// replays any WAL a previous process left behind. Records at or below
// the manifest's wal_seq fence were already folded into the base by a
// committed Compact and are skipped; a torn tail is truncated; a log
// whose every record is stale is the residue of a crash between
// Compact's commit and its WAL truncation, and the truncation is
// finished here.
func (s *Store) recoverLive() error {
	walPath := filepath.Join(s.dir, walFileName)
	size := int64(-1)
	if st, err := os.Stat(walPath); err == nil {
		size = st.Size()
	}
	ep := s.cur
	ep.setLabelBits()
	s.delta.appliedSeq.Store(s.walFoldedSeq)
	if size <= 0 {
		return nil // no log to replay; walHandle opens one lazily
	}
	w, err := openWAL(walPath)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		w.close()
		return err
	}
	batches, cleanOff := parseWAL(data, uint32(ep.gen))
	lastSeq := s.walFoldedSeq
	replayed := 0
	for _, b := range batches {
		if b.seq <= s.walFoldedSeq {
			continue
		}
		if err := s.replayBatch(b.seq, b.ops); err != nil {
			w.close()
			return fmt.Errorf("diskstore: wal replay (seq %d): %w", b.seq, err)
		}
		replayed++
		lastSeq = b.seq
	}
	if cleanOff < int64(len(data)) {
		if err := w.truncateTo(cleanOff); err != nil {
			w.close()
			return err
		}
	}
	if replayed == 0 && cleanOff > 0 {
		if err := w.truncateTo(0); err != nil {
			w.close()
			return err
		}
		cleanOff = 0
	}
	w.seed(cleanOff, lastSeq)
	s.wal.Store(w)
	return nil
}

// replayBatch re-applies one recovered WAL record under its original
// sequence number, so visibility windows and a later fold see recovered
// entries exactly as the crashed process did. Records were validated
// before logging, so re-validation failing means the log disagrees with
// the base files — surfaced as an Open error rather than silently
// dropping an acknowledged write.
func (s *Store) replayBatch(seq uint64, ops []storage.Mutation) error {
	resolved, err := s.resolveBatchAt(ops, true)
	if err != nil {
		return err
	}
	if err := s.internBatch(resolved); err != nil {
		return err
	}
	s.applyToDelta(seq, resolved)
	return nil
}

// internType interns an edge type; caller holds symMu.
func (s *Store) internType(etype string) int {
	id, ok := s.typeIDs[etype]
	if !ok {
		id = len(s.types)
		s.types = append(s.types, etype)
		s.typeIDs[etype] = id
	}
	return id
}

// internKey interns a property key; caller holds symMu.
func (s *Store) internKey(key string) int {
	id, ok := s.keyIDs[key]
	if !ok {
		id = len(s.keys)
		s.keys = append(s.keys, key)
		s.keyIDs[key] = id
	}
	return id
}
