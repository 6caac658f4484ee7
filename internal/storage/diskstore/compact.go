package diskstore

// Background compaction: fold the base plus a frozen delta snapshot into
// a fresh generation of base files while reads and writes keep flowing.
//
// The fold never touches the files serving reads. It freezes the delta at
// a WAL fence W (everything with seq <= W goes into the new base; younger
// mutations keep landing in the live delta and survive the swap), builds
// generation N+1 in the fold.tmp directory with the ordinary exclusive
// build path, renames the finished files to their name.gN+1 homes, and
// commits with one manifest rename naming the new generation and fence.
// The swap then retargets s.cur under liveMu/epMu; pinned snapshots keep
// reading the old generation's files until their pins drain, at which
// point the superseded files are deleted and the delta's folded prefix
// pruned.
//
// Crash safety needs no marker file: before the manifest rename the
// manifest still names the old generation (the new generation's files are
// unreachable orphans, swept at next Open); after it, the new generation
// is complete and durable (files are fsynced before the rename) and WAL
// replay skips the folded prefix via the wal_seq fence.

import (
	"os"
	"path/filepath"

	"repro/internal/storage"
)

// foldTmpDir is the scratch directory (inside the store directory) where
// a background fold builds the next generation. Its contents are never
// reachable from a manifest; Open sweeps a leftover one.
const foldTmpDir = "fold.tmp"

// foldBatch is the bulk-ingest batch size the fold feeds the new
// generation's builder with.
const foldBatch = 4096

// Compact folds accumulated live writes into a fresh finalized base
// generation. On a live store it runs as a background fold — concurrent
// reads and ApplyMutations proceed throughout, with only a bounded pause
// at the commit point — and blocks until the fold commits (callers
// wanting fire-and-forget run it from a goroutine). On a store still in
// build mode it takes the exclusive Finalize+Flush path, under the usual
// exclusive-access contract. Only one compaction may run at a time; a
// concurrent call returns storage.ErrCompactInProgress.
func (s *Store) Compact() error {
	if !s.folding.CompareAndSwap(false, true) {
		return storage.ErrCompactInProgress
	}
	defer func() {
		s.foldProgress.Store(0)
		s.folding.Store(false)
	}()
	if !s.liveMode.Load() {
		if err := s.Finalize(); err != nil {
			return err
		}
		if err := s.Flush(); err != nil {
			return err
		}
		s.compactions.Add(1)
		return nil
	}
	return s.foldBackground()
}

// foldBackground is the live-store fold. See the package comment above
// for the protocol; the numbered stages below follow it.
func (s *Store) foldBackground() error {
	// Stage 1 — freeze. Under liveMu no batch is being appended or
	// applied, so the WAL's last appended seq is exactly the delta's
	// applied watermark: freezing at fence = lastAppended captures whole
	// batches only. The byte size at the same instant is the rotate
	// offset (every record below it has seq <= fence).
	s.liveMu.Lock()
	old := s.cur
	d := s.delta
	fence := s.walFoldedSeq
	var walOff int64
	w := s.wal.Load()
	if w != nil {
		fence = w.lastAppended()
		walOff = w.sizeNow()
	}
	alreadyFolded := fence == old.baseSeq
	win := vis{baseVerts: old.numVertices, baseEdges: old.numEdges, baseSeq: old.baseSeq, maxSeq: fence}
	fd := d.freeze(win)
	s.symMu.RLock()
	labels := append([]string(nil), s.labels...)
	types := append([]string(nil), s.types...)
	keys := append([]string(nil), s.keys...)
	s.symMu.RUnlock()
	s.liveMu.Unlock()

	if alreadyFolded && len(fd.verts) == 0 && len(fd.edges) == 0 &&
		len(fd.labelAdds) == 0 && len(fd.propOver) == 0 {
		return nil // nothing new since the last fold
	}

	// Stage 2 — build generation gen+1 in fold.tmp using the ordinary
	// exclusive build path on a private Store.
	newGen := old.gen + 1
	foldDir := filepath.Join(s.dir, foldTmpDir)
	if err := os.RemoveAll(foldDir); err != nil {
		return err
	}
	b, err := Open(foldDir, Options{PageSize: s.opts.PageSize, CachePages: s.opts.CachePages})
	if err != nil {
		return err
	}
	fail := func(err error) error {
		b.cur.closeFiles()
		os.RemoveAll(foldDir)
		return err
	}
	b.seedSymbols(labels, types, keys)

	total := 2*old.numVertices + old.numEdges + int64(len(fd.verts)) + int64(len(fd.edges)) + 1
	var done int64
	tick := func(n int64) {
		done += n
		s.foldProgress.Store(done * 1000 / total)
	}
	labelNames := func(ids []int) []string {
		out := make([]string, 0, len(ids))
		for _, id := range ids {
			out = append(out, labels[id])
		}
		return out
	}

	// Vertices: old base (with frozen label additions merged), then the
	// frozen delta vertices in VID order — so every vertex keeps its ID.
	vbatch := make([]storage.BulkVertex, 0, foldBatch)
	flushV := func() error {
		if len(vbatch) == 0 {
			return nil
		}
		if _, err := b.AddVertexBatch(vbatch); err != nil {
			return err
		}
		tick(int64(len(vbatch)))
		vbatch = vbatch[:0]
		return nil
	}
	for v := int64(0); v < old.numVertices; v++ {
		rec, err := old.readVertex(storage.VID(v))
		if err != nil {
			return fail(err)
		}
		ids := labelBitsToIDs(rec.labels)
		ids = append(ids, fd.labelAdds[storage.VID(v)]...)
		vbatch = append(vbatch, storage.BulkVertex{Labels: labelNames(ids)})
		if len(vbatch) == foldBatch {
			if err := flushV(); err != nil {
				return fail(err)
			}
		}
	}
	for i := range fd.verts {
		vbatch = append(vbatch, storage.BulkVertex{Labels: labelNames(fd.verts[i].labelIDs)})
		if len(vbatch) == foldBatch {
			if err := flushV(); err != nil {
				return fail(err)
			}
		}
	}
	if err := flushV(); err != nil {
		return fail(err)
	}

	// Properties: each base vertex's chain (frozen overrides winning per
	// key), then override-only keys, then the frozen delta vertices'
	// props. SetProp overwrites in place when a key repeats, so feeding
	// chain order is exact.
	for v := int64(0); v < old.numVertices; v++ {
		rec, err := old.readVertex(storage.VID(v))
		if err != nil {
			return fail(err)
		}
		over := fd.propOver[storage.VID(v)]
		var seen map[int]bool
		if len(over) > 0 {
			seen = make(map[int]bool, len(over))
		}
		for p := rec.firstProp; p != 0; {
			pr, err := old.readProp(p - 1)
			if err != nil {
				return fail(err)
			}
			keyID := int(pr.keyID)
			val, ok := over[keyID]
			if !ok {
				if val, err = old.decodeValue(pr); err != nil {
					return fail(err)
				}
			}
			if err := b.SetProp(storage.VID(v), keys[keyID], val); err != nil {
				return fail(err)
			}
			if seen != nil {
				seen[keyID] = true
			}
			p = pr.next
		}
		for keyID, val := range over {
			if !seen[keyID] {
				if err := b.SetProp(storage.VID(v), keys[keyID], val); err != nil {
					return fail(err)
				}
			}
		}
		tick(1)
	}
	for i := range fd.verts {
		fv := &fd.verts[i]
		for keyID, val := range fv.props {
			if err := b.SetProp(fv.v, keys[keyID], val); err != nil {
				return fail(err)
			}
		}
	}

	// Edges: old base in EID order, then frozen delta edges in EID
	// order — EIDs are renumbered by the builder's Finalize anyway (the
	// type-segmented rewrite), matching the documented Compact contract.
	ebatch := make([]storage.BulkEdge, 0, foldBatch)
	flushE := func() error {
		if len(ebatch) == 0 {
			return nil
		}
		if err := b.AddEdgeBatch(ebatch); err != nil {
			return err
		}
		tick(int64(len(ebatch)))
		ebatch = ebatch[:0]
		return nil
	}
	if err := old.forEachEdgeLite(func(el edgeLite) error {
		ebatch = append(ebatch, storage.BulkEdge{Src: storage.VID(el.src), Dst: storage.VID(el.dst), Type: types[el.typeID]})
		if len(ebatch) == foldBatch {
			return flushE()
		}
		return nil
	}); err != nil {
		return fail(err)
	}
	for _, fe := range fd.edges {
		ebatch = append(ebatch, storage.BulkEdge{Src: fe.src, Dst: fe.dst, Type: types[fe.typeID]})
		if len(ebatch) == foldBatch {
			if err := flushE(); err != nil {
				return fail(err)
			}
		}
	}
	if err := flushE(); err != nil {
		return fail(err)
	}
	if err := b.Finalize(); err != nil {
		return fail(err)
	}
	if err := b.Flush(); err != nil {
		return fail(err)
	}
	// Flush wrote every dirty page and the index file, but pager writes
	// are not fsynced; the new generation must be durable before the
	// manifest can name it.
	for _, f := range b.cur.pager.files {
		if err := f.Sync(); err != nil {
			return fail(err)
		}
	}
	bep := b.cur
	if err := bep.closeFiles(); err != nil {
		os.RemoveAll(foldDir)
		return err
	}

	// Stage 3 — move the finished files to their generation names. They
	// are orphans until the manifest commits (a crash here leaves them
	// for Open's sweep).
	for _, name := range append(append([]string(nil), baseFileNames[:]...), indexFileName) {
		if err := os.Rename(filepath.Join(foldDir, name), filepath.Join(s.dir, genFileName(name, newGen))); err != nil {
			s.removeGenFiles(newGen)
			os.RemoveAll(foldDir)
			return err
		}
	}
	if err := syncDir(s.dir); err != nil {
		s.removeGenFiles(newGen)
		os.RemoveAll(foldDir)
		return err
	}
	os.RemoveAll(foldDir) // only the builder's manifest.json remains

	var files [numFiles]*os.File
	for i, name := range baseFileNames {
		f, err := os.OpenFile(filepath.Join(s.dir, genFileName(name, newGen)), os.O_RDWR, 0o644)
		if err != nil {
			for _, g := range files[:i] {
				g.Close()
			}
			s.removeGenFiles(newGen)
			return err
		}
		files[i] = f
	}
	pg, err := newPager(files, s.opts.PageSize, s.opts.CachePages, &s.pagerStats)
	if err != nil {
		for _, f := range files {
			f.Close()
		}
		s.removeGenFiles(newGen)
		return err
	}
	if s.opts.Mmap {
		pg.enableMmap(fileVertices, fileEdges)
	}
	newEp := &epoch{
		gen:         newGen,
		compressed:  bep.compressed,
		edgeBytes:   bep.edgeBytes,
		pager:       pg,
		numVertices: bep.numVertices, numEdges: bep.numEdges,
		numProps: bep.numProps, numDegs: bep.numDegs, blobSize: bep.blobSize,
		byLabel:    bep.byLabel,
		typeCounts: bep.typeCounts, blooms: bep.blooms, statsValid: bep.statsValid,
		baseSeq: fence,
	}
	newEp.pins.Store(1) // the store's own reference
	newEp.setLabelBits()

	// Stage 4 — commit. flushMu keeps a concurrent Flush from writing a
	// stale-generation manifest around ours; the manifest rename is the
	// commit point. Everything after it — WAL rotation, delta rebase,
	// epoch swap — happens under liveMu so writers observe the routing
	// change atomically. Lock order: flushMu before liveMu, everywhere.
	s.flushMu.Lock()
	if err := s.writeManifest(newEp, labels, types, keys, fence); err != nil {
		s.flushMu.Unlock()
		newEp.closeFiles()
		s.removeGenFiles(newGen)
		return err
	}
	// The manifest now names a complete, durable generation — the commit
	// point is passed, so everything from here on completes the swap
	// unconditionally. A finalize marker still pending its committing
	// Flush (the in-process rewrite it guards finished before the fold
	// read the old files) can go, exactly as in Flush; a failed removal
	// is reported after the swap rather than unwinding the committed
	// fold (the marker only costs a refused Open, never corruption).
	markerErr := os.Remove(filepath.Join(s.dir, finalizeMarker))
	if os.IsNotExist(markerErr) {
		markerErr = nil
	}
	s.liveMu.Lock()
	if w := s.wal.Load(); w != nil {
		// Drop the folded WAL prefix. Failure is not fatal to the fold —
		// the manifest's fence already makes the prefix inert on replay —
		// and the log's sticky error will surface to the next writer.
		w.rotate(walOff)
	}
	s.walFoldedSeq = fence
	s.pendingCheckpoint = false
	// Young label/prop writes that landed on now-folded delta vertices
	// while the fold ran must move to the base-override maps before
	// routing flips (see delta.rebase).
	d.rebase(fence, newEp.numVertices)
	s.epMu.Lock()
	s.cur = newEp
	s.epMu.Unlock()
	s.generation.Store(newGen)
	old.retire = s.genFilePaths(old.gen)
	s.retired.Add(1)
	// The new generation's on-disk index carries the frozen symbol
	// tables; if live writes grew them mid-fold the next Flush must
	// rewrite it (loadIndex would reject the shorter tables anyway).
	s.symMu.RLock()
	s.indexCurrent = len(s.labels) == len(labels) && len(s.types) == len(types) && len(s.keys) == len(keys)
	s.symMu.RUnlock()
	s.dirty = false
	s.liveMu.Unlock()
	s.flushMu.Unlock()
	s.compactions.Add(1)
	s.foldProgress.Store(1000)

	// Drop the store's reference to the superseded epoch; its files are
	// reclaimed (and the delta's folded prefix pruned) once the last
	// pinned snapshot or in-flight read drains.
	if old.pins.Add(-1) == 0 {
		s.reclaimEpoch(old)
	}
	return markerErr
}

// seedSymbols pre-interns the frozen symbol tables into a fold's builder
// store, in order, so label/type/key IDs in the new generation match the
// IDs the frozen delta snapshot carries.
func (s *Store) seedSymbols(labels, types, keys []string) {
	for _, l := range labels {
		s.labelIDs[l] = len(s.labels)
		s.labels = append(s.labels, l)
	}
	for _, t := range types {
		s.typeIDs[t] = len(s.types)
		s.types = append(s.types, t)
	}
	for _, k := range keys {
		s.keyIDs[k] = len(s.keys)
		s.keys = append(s.keys, k)
	}
}

// genFilePaths lists one generation's files (the five record files plus
// its index), for the epoch retire list.
func (s *Store) genFilePaths(gen int64) []string {
	paths := make([]string, 0, numFiles+1)
	for _, name := range baseFileNames {
		paths = append(paths, filepath.Join(s.dir, genFileName(name, gen)))
	}
	return append(paths, s.indexPath(gen))
}

// removeGenFiles best-effort deletes a never-committed generation's
// files after a failed fold; anything left is swept at the next Open.
func (s *Store) removeGenFiles(gen int64) {
	for _, p := range s.genFilePaths(gen) {
		os.Remove(p)
	}
}
