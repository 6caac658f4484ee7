package diskstore

// Finalize (and Compact, the same call): the one way a store gets a new
// base generation, while reads and writes keep flowing.
//
// Finalize never touches the files serving reads. It freezes the delta at
// a WAL fence W (everything with seq <= W goes into the new base; younger
// mutations keep landing in the live delta and survive the swap), and
// writeGeneration reads the current base and the frozen delta directly
// and streams generation N+1 into the store directory. commit then names
// the new generation and fence in one manifest rename. The swap retargets
// s.cur under liveMu/epMu; pinned snapshots keep reading the old
// generation's files until their pins drain, at which point the
// superseded files are deleted and the delta's folded prefix pruned. A
// pending bulk load takes the same steps with the load set in place of
// the frozen delta (see finalize.go).
//
// Crash safety needs no marker file: before the manifest rename the
// manifest still names the old generation (the new generation's files are
// unreachable orphans, swept at next Open); after it, the new generation
// is complete and durable (commit fsyncs it before the rename) and WAL
// replay skips the folded prefix via the wal_seq fence.

import (
	"os"
	"path/filepath"

	"repro/internal/storage"
)

// Compact folds accumulated live writes into a fresh finalized base
// generation and blocks until it commits (callers wanting fire-and-forget
// run it from a goroutine). It is Finalize.
func (s *Store) Compact() error { return s.Finalize() }

// Finalize commits a pending bulk load, or else folds the live delta: it
// writes the next base generation from the current one plus the load set
// or the frozen delta, and commits it before returning, so a crash at any
// instant leaves either the previous commit or the new generation,
// complete. Edge IDs are renumbered; EIDs observed before Finalize are
// invalid after it (the storage.Builder contract). Readers and live
// writers keep going while it runs; a bulk load's Finalize comes from its
// single writer, like every batch of the load. If it fails, a load stays
// pending; once it succeeds the store refuses batches. A store with
// nothing to fold writes nothing. Finalize is single-flight with Compact:
// a concurrent call returns storage.ErrCompactInProgress. The numbered
// stages follow the protocol in the comment above.
func (s *Store) Finalize() error {
	if !s.folding.CompareAndSwap(false, true) {
		return storage.ErrCompactInProgress
	}
	defer func() {
		s.foldProgress.Store(0)
		s.folding.Store(false)
	}()

	// Stage 1 — freeze. Under liveMu no batch is being appended or
	// applied, so the WAL's last appended seq is exactly the delta's
	// applied watermark: freezing at fence = lastAppended captures whole
	// batches only. The byte size at the same instant is the rotate
	// offset (every record below it has seq <= fence). A pending load
	// needs no freeze: its store has no WAL and an empty delta, and
	// nothing but its single writer touches the load set.
	s.liveMu.Lock()
	old := s.cur
	fence := s.walFoldedSeq
	var walOff int64
	if w := s.wal.Load(); w != nil {
		fence = w.lastAppended()
		walOff = w.sizeNow()
	}
	load := s.load.Load()
	fd := load
	if load == nil {
		fd = s.delta.freeze(vis{baseVerts: old.numVertices, baseEdges: old.numEdges, baseSeq: old.baseSeq, maxSeq: fence})
	}
	s.symMu.RLock()
	labels := append([]string(nil), s.labels...)
	types := append([]string(nil), s.types...)
	keys := append([]string(nil), s.keys...)
	s.symMu.RUnlock()
	s.liveMu.Unlock()

	// A pending load is committed even if a failed first batch left it
	// empty, so that the store leaves it.
	if load == nil && fence == old.baseSeq && len(fd.verts) == 0 &&
		len(fd.edges) == 0 && len(fd.labelAdds) == 0 && len(fd.propOver) == 0 {
		s.finalized.Store(true)
		return nil
	}

	// Stage 2 — write generation N+1 straight into the store directory.
	// Until the commit names them its files are orphans: discarded on
	// error here, swept at Open after a crash.
	newEp, err := s.writeGeneration(old, fd, old.gen+1, len(types))
	if err != nil {
		return err
	}
	newEp.baseSeq = fence

	// Stage 3 — commit. flushMu keeps a concurrent Flush from writing a
	// stale-generation manifest around ours; the manifest rename is the
	// commit point. Everything after it — WAL rotation, delta rebase,
	// epoch swap — happens under liveMu so writers observe the routing
	// change atomically. Lock order: flushMu before liveMu, everywhere.
	s.flushMu.Lock()
	if err := s.commit(newEp, labels, types, keys, fence); err != nil {
		s.flushMu.Unlock()
		s.discard(newEp)
		return err
	}
	// The manifest now names a complete, durable generation; everything
	// from here on completes the swap unconditionally.
	s.liveMu.Lock()
	if w := s.wal.Load(); w != nil {
		// Drop the folded WAL prefix. Failure is not fatal to the fold —
		// the manifest's fence already makes the prefix inert on replay —
		// and the log's sticky error will surface to the next writer.
		w.rotate(walOff)
	}
	s.walFoldedSeq = fence
	if load != nil {
		// The delta stayed empty through the load; the load's IDs are the
		// new base's, so live writes number on from its end.
		s.delta = newDelta(newEp.numVertices, newEp.numEdges)
		s.delta.appliedSeq.Store(fence)
		s.load.Store(nil)
		s.finalized.Store(true)
	} else {
		// Young label/prop writes that landed on now-folded delta vertices
		// while the fold ran must move to the base-override maps before
		// routing flips (see delta.rebase).
		s.delta.rebase(fence, newEp.numVertices)
	}
	s.epMu.Lock()
	s.cur = newEp
	s.epMu.Unlock()
	old.retire = s.genFilePaths(old.gen)
	s.retired.Add(1)
	s.liveMu.Unlock()
	s.flushMu.Unlock()
	if load == nil {
		s.compactions.Add(1)
	}

	// Drop the store's reference to the superseded epoch; its files are
	// reclaimed (and the delta's folded prefix pruned) once the last
	// pinned snapshot or in-flight read drains.
	if old.pins.Add(-1) == 0 {
		s.reclaimEpoch(old)
	}
	return nil
}

// genFilePaths lists one generation's files (see genFileNames), for the
// epoch retire list.
func (s *Store) genFilePaths(gen int64) []string {
	var paths []string
	for _, name := range genFileNames() {
		paths = append(paths, filepath.Join(s.dir, genFileName(name, gen)))
	}
	return paths
}

// removeGenFiles best-effort deletes one generation's files: a
// never-committed one after a failed Finalize (anything left is swept at
// the next Open), or a superseded one.
func (s *Store) removeGenFiles(gen int64) {
	for _, p := range s.genFilePaths(gen) {
		os.Remove(p)
	}
}

// discard closes an epoch's files and deletes its generation.
func (s *Store) discard(ep *epoch) {
	ep.closeFiles()
	s.removeGenFiles(ep.gen)
}
