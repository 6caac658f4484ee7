// Package diskstore implements storage.Graph as a Neo4j-style record
// store: fixed-size vertex and edge records with linked-list adjacency,
// fixed-size property records chained off vertices, and a variable-length
// blob file for strings and lists — all accessed through a sharded,
// write-back page cache with clock-sweep eviction, whose hits take no
// lock: a per-file frame table and a CAS pin. The cache recycles its
// frames — a miss in a full shard loads into the buffer of the frame it
// evicts — which rests on one rule: the sweep claims a victim only while
// it is unpinned, by a CAS that makes every later pin of it fail, so a
// recycled buffer has no reader (see pager).
//
// It stands in for the paper's disk-based backend (Neo4j): every edge
// traversal dereferences edge and vertex records that may or may not be
// resident in the page cache, so schemas that need fewer traversals do
// proportionally less I/O. The cache size is configurable to reproduce the
// paper's observation that disk-based systems benefit most from schema
// optimization.
//
// # Base generations and epochs
//
// A store's base files belong to a numbered generation: generation 0 uses
// the plain file names (vertices.db, ...), generation N > 0 suffixes them
// (vertices.db.gN). The manifest records which generation is current, and
// swapping that single field — via the usual atomic manifest rename — is
// the commit point of every Finalize (see finalize.go and compact.go): the
// finalize sort pass writes a complete generation N+1 beside N, commit
// fsyncs it and renames the manifest, and then the in-memory epoch swaps.
// Files from any other generation are orphans and are swept at Open.
//
// In memory, each open generation is an epoch: the pager, record counts,
// label index, and the WAL fence (baseSeq) that tells readers which delta
// entries the generation's files already absorbed. Readers pin the epoch
// they read through (see view.go); a superseded epoch's files are closed
// and deleted only when its pin count drains to zero, so long-running
// traversals and snapshots keep a consistent view across a concurrent
// fold.
package diskstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/graph"
	"repro/internal/storage"
)

const (
	vertexRecSize = 64
	edgeRecSize   = 64
	propRecSize   = 32
	degRecSize    = 64
	maxLabels     = 128
)

// Options configures a Store.
type Options struct {
	// PageSize is the cache page size in bytes (default 8192). Record
	// sizes (64/64/32/64) must divide it.
	PageSize int
	// CachePages is the page cache capacity (default 256 pages = 2 MiB
	// with the default page size).
	CachePages int

	// Mmap maps the read-mostly record files (edges.db, vertices.db)
	// read-only into memory and serves page loads from the mapping
	// instead of the clock-sweep pager copy. The pager keeps ownership of
	// every write path and of the non-mapped files; the first write to a
	// mapped file atomically drops its mapping (see pager.write). No-op
	// on platforms without mmap support.
	Mmap bool
}

func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = 8192
	}
	if o.CachePages == 0 {
		o.CachePages = 256
	}
	return o
}

// formatVersion is the one on-disk layout this package reads and writes:
//
//   - fixed-size vertex, property and degree records (one 64-byte degree
//     record per (vertex, edge type), chained off the vertex record);
//   - adjacency in one of two states. Finalized ("compressed" manifest
//     flag): edges.db holds delta-varint (src, type) segments and each
//     degree record doubles as its segment descriptor (byte offsets +
//     lengths + the first out-EID; see segcodec.go). Unfinalized (build
//     mode — incremental AddEdge or AddEdgeBatch before Finalize):
//     edges.db holds 64-byte edge records, chained per vertex;
//   - index.db, the persisted label-scan index, redundant symbol tables
//     and a statistics block (per-edge-type counts, per-(label, key)
//     bloom filters), so Open is O(index size) instead of a vertex scan.
//
// Stores written by earlier releases (manifest versions 2-4) are refused
// by Open with ErrLegacyFormat and converted offline by Upgrade. Version
// 1 and unknown versions are rejected outright — v1 vertex records would
// silently read their degree counters as zero.
const formatVersion = 5

type manifest struct {
	Version int `json:"version"`
	// Generation numbers the current base file set. Generation 0 uses the
	// plain file names; generation N uses name.gN. Background compaction
	// bumps it — the manifest rename that records the new generation is
	// the fold's commit point. Orthogonal to Version (the record layout).
	Generation  int64    `json:"generation,omitempty"`
	Labels      []string `json:"labels"`
	Types       []string `json:"types"`
	Keys        []string `json:"keys"`
	NumVertices int64    `json:"num_vertices"`
	NumEdges    int64    `json:"num_edges"`
	NumProps    int64    `json:"num_props"`
	NumDegs     int64    `json:"num_degs,omitempty"`
	BlobSize    int64    `json:"blob_size"`
	// Compressed records that adjacency is finalized: edges.db holds
	// delta-varint segments rather than build-mode edge records (see
	// formatVersion). Segmented always carries the same value; it is kept
	// so the manifest's JSON shape is unchanged. EdgeBytes is the logical
	// size of the segment data — the bytes-on-disk numerator of the
	// compression ratio.
	Segmented  bool  `json:"segmented,omitempty"`
	Compressed bool  `json:"compressed,omitempty"`
	EdgeBytes  int64 `json:"edge_bytes,omitempty"`
	// WalSeq fences WAL replay: the highest WAL sequence number folded
	// into the base by a committed Compact. Records at or below it are
	// skipped (and a fully stale log truncated) at Open, so a crash
	// between Compact's manifest commit and its WAL truncation cannot
	// replay folded mutations twice.
	WalSeq uint64 `json:"wal_seq,omitempty"`
}

// baseFileNames are the record files backing one base generation, in
// pager file-slot order.
var baseFileNames = [numFiles]string{"vertices.db", "edges.db", "props.db", "blobs.db", "degrees.db"}

// indexFileName is the persisted derived-structure file, also
// generation-suffixed.
const indexFileName = "index.db"

// genFileName maps a base file name to its generation-qualified on-disk
// name: generation 0 keeps the plain name so pre-generation stores open
// unchanged.
func genFileName(name string, gen int64) string {
	if gen == 0 {
		return name
	}
	return fmt.Sprintf("%s.g%d", name, gen)
}

// epoch is one open base generation: the five record files behind a
// pager, their counts, the label-scan index, and the WAL fence (baseSeq)
// identifying which logged batches the files already absorbed. Once a
// store is live its current epoch's files are never mutated in place —
// Finalize writes a whole new generation — so every field
// here is immutable for the epoch's lifetime and readers touch it without
// locks. (During single-writer building, before live mode, the one
// existing epoch is mutated freely.)
//
// pins counts references: 1 for the store itself while the epoch is
// current, plus one per in-flight read and per held snapshot. When a fold
// supersedes the epoch the store's reference is dropped; the last unpin
// reclaims it (closes and deletes the generation's files, then lets the
// delta prune entries the new generation absorbed).
type epoch struct {
	gen int64
	// compressed reports that adjacency is finalized: edges.db holds
	// type-segmented delta-varint segments, degree records carry their
	// descriptors and edgeBytes the logical segment-data size. False is
	// build mode: edges.db holds chained 64-byte edge records.
	compressed bool
	edgeBytes  int64
	pager      *pager

	numVertices int64
	numEdges    int64
	numProps    int64
	numDegs     int64
	blobSize    int64

	byLabel map[int][]storage.VID
	// labelBits is byLabel again as one membership bitmap per label ID
	// (⌈numVertices/64⌉ words, nil for a label without base members —
	// 64× smaller than the postings), so a live view answers HasLabelID
	// without a vertex-record read. setLabelBits derives it wherever an
	// immutable serving epoch comes into being; build-mode views, under
	// which byLabel still grows, never consult it and read the record.
	labelBits [][]uint64

	// Persisted statistics (from Finalize or index.db): base edge counts
	// per type ID, and per-(label, key) bloom filters over the property
	// values present at finalize time. statsValid distinguishes "no pair
	// exists" (definitive) from "statistics unavailable" (missing/torn
	// index, post-finalize build mutations).
	typeCounts []int64
	blooms     map[uint64]*bloom
	statsValid bool

	// baseSeq is the highest WAL sequence folded into this generation's
	// files; delta entries at or below it are already in the base and
	// invisible through this epoch.
	baseSeq uint64

	pins atomic.Int64
	// retire lists the generation's file paths, set when the epoch is
	// superseded; reclaim deletes them.
	retire []string
}

// setLabelBits derives labelBits from byLabel. Called once per serving
// epoch, before it is published to readers.
func (ep *epoch) setLabelBits() {
	n := 0
	for id := range ep.byLabel {
		n = max(n, id+1)
	}
	ep.labelBits = make([][]uint64, n)
	for id, vids := range ep.byLabel {
		if len(vids) == 0 {
			continue
		}
		words := make([]uint64, (ep.numVertices+63)/64)
		for _, v := range vids {
			words[v>>6] |= 1 << (uint(v) & 63)
		}
		ep.labelBits[id] = words
	}
}

// hasLabelBit reports base membership of v (a base vertex: v <
// numVertices) in the label.
func (ep *epoch) hasLabelBit(v storage.VID, label storage.SymbolID) bool {
	if int(label) >= len(ep.labelBits) {
		return false
	}
	words := ep.labelBits[label]
	return words != nil && words[v>>6]&(1<<(uint(v)&63)) != 0
}

// closeFiles closes the generation's backing files (and any mappings
// over them).
func (ep *epoch) closeFiles() error {
	ep.pager.closeMaps()
	var first error
	for _, f := range ep.pager.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Store is a disk-backed property graph. Building (AddVertex, AddEdge,
// SetProp, Flush) is single-writer, but once the store is fully built its
// entire read surface — traversals, property and label lookups, degree
// queries, stats — is safe for any number of concurrent reader
// goroutines: the symbol tables and label index are immutable after
// build, and record access goes through the pager's sharded page cache,
// where readers contend only when they touch the same cache shard at the
// same instant (see pager).
//
// On a live store, Compact runs in the background: readers and writers
// keep going against the current epoch while the fold builds the next
// generation (see compact.go), and AcquireSnapshot pins a consistent
// {epoch, delta watermark} view across the swap (see view.go).
type Store struct {
	storage.ByName

	dir  string
	opts Options

	// epMu guards cur — the pointer only, not the epoch's contents.
	// Readers take it shared just long enough to pin the current epoch;
	// the fold's swap takes it exclusively for a pointer assignment.
	epMu sync.RWMutex
	cur  *epoch
	// pagerStats is the one block of page-cache counters every serving
	// epoch's pager bumps, so Stats never restarts at a fold's swap.
	pagerStats pagerStats

	// needFinalize is set by AddEdgeBatch: edges were appended without
	// adjacency linkage and Finalize must run before the store is read.
	// Flush finalizes automatically as a safety net.
	needFinalize bool
	// indexLoaded reports that Open restored the label index from
	// index.db instead of scanning every vertex record.
	indexLoaded bool
	// indexCurrent reports that the index file on disk describes the
	// current in-memory state: set by a successful load at Open and by
	// every index write, cleared by the first mutation. A clean Flush
	// with a current index skips the rewrite.
	indexCurrent bool
	// dirty is set by the first mutation since open/flush (markDirty),
	// which also removes the index file at that moment — so no crash
	// window exists in which on-disk data coexists with a
	// stale-but-validating index.
	dirty bool

	labels   []string
	labelIDs map[string]int
	types    []string
	typeIDs  map[string]int
	keys     []string
	keyIDs   map[string]int

	// ---- live-write state (see live.go, wal.go, delta.go) ----

	// liveMode gates the durable post-finalize write path: Builder calls
	// reroute through ApplyMutations, reads merge the delta segment, and
	// symbol-table access takes symMu. Set at Open or by a build-mode
	// Finalize, and never cleared.
	liveMode atomic.Bool
	// liveMu serializes ApplyMutations batches (WAL append order = delta
	// apply order = replay order) and the fold's freeze/swap steps.
	liveMu sync.Mutex
	// symMu guards the symbol tables once liveMode is set; never taken
	// outside live mode.
	symMu sync.RWMutex
	// delta is the in-memory segment of live mutations; always non-nil.
	// It is shared across epochs: entries carry WAL sequence numbers and
	// each epoch sees only the window its baseSeq has not absorbed.
	delta *delta
	// wal is the open write-ahead log, created lazily on the first live
	// mutation (atomic so LiveStats can read it without liveMu).
	wal atomic.Pointer[wal]
	// walFoldedSeq mirrors manifest.WalSeq; advanced by folds.
	walFoldedSeq uint64

	// ---- background compaction state (see compact.go) ----

	// folding is the single-flight guard: a second Finalize or Compact
	// while one is in progress returns storage.ErrCompactInProgress.
	folding atomic.Bool
	// foldProgress is the running fold's progress in permille.
	foldProgress atomic.Int64
	// generation mirrors cur.gen for lock-free stats reads.
	generation atomic.Int64
	// retired counts superseded epochs not yet reclaimed; when it drains
	// to zero the delta's folded prefix is pruned.
	retired atomic.Int64
	// pinnedSnaps counts snapshots acquired and not yet released.
	pinnedSnaps atomic.Int64
	// compactions counts committed folds of a live store.
	compactions atomic.Int64
	// flushMu serializes manifest commits: a Flush racing a background
	// fold must not write a stale generation over the fold's commit.
	// Lock order: flushMu before liveMu.
	flushMu sync.Mutex
}

// FormatInfo describes how a store was opened; see (*Store).Format.
type FormatInfo struct {
	// Version is the on-disk format version.
	Version int
	// Generation is the base file generation currently serving reads.
	Generation int64
	// Segmented and Compressed both report that adjacency is finalized
	// into type-segmented delta-varint segments; false means build-mode
	// edge records.
	Segmented  bool
	Compressed bool
	// IndexLoaded reports that Open restored the label index from
	// index.db rather than scanning every vertex record.
	IndexLoaded bool
	// EdgeBytes is the logical adjacency size in edges.db: segment bytes
	// on a finalized store, numEdges × 64 in build mode. EdgeBytes /
	// NumEdges is the bytes-per-edge figure.
	EdgeBytes int64
}

// Format reports the store's on-disk format version and how it was
// opened. Serving and benchmark tools log it so "did this store open the
// fast way" is observable.
func (s *Store) Format() FormatInfo {
	ep := s.curEp()
	eb := ep.numEdges * edgeRecSize
	if ep.compressed {
		eb = ep.edgeBytes
	}
	return FormatInfo{
		Version: formatVersion, Generation: ep.gen,
		Segmented: ep.compressed, Compressed: ep.compressed,
		IndexLoaded: s.indexLoaded, EdgeBytes: eb,
	}
}

// curEp returns the current epoch without pinning it — for uses that
// only read immutable fields and never touch the pager after a
// potential swap.
func (s *Store) curEp() *epoch {
	s.epMu.RLock()
	ep := s.cur
	s.epMu.RUnlock()
	return ep
}

var (
	_ storage.Builder       = (*Store)(nil)
	_ storage.StatsReporter = (*Store)(nil)
	_ storage.Snapshotter   = (*Store)(nil)
)

// Open creates (or reopens) a store in dir. A store written by an
// earlier release is refused with ErrLegacyFormat, untouched; see Upgrade.
func Open(dir string, opts Options) (*Store, error) { return open(dir, opts, false) }

// ErrLegacyFormat is returned (wrapped) by Open for a store whose
// manifest names format version 2, 3 or 4. Test with errors.Is.
var ErrLegacyFormat = errors.New("store was written in a legacy on-disk format; convert it offline with diskstore.Upgrade")

// Upgrade converts a legacy (v2-v4) store in dir to the current format
// and closes it; on a current-format store it does nothing. It needs
// exclusive access. The legacy files are opened as an unfinalized
// build-mode store — only vertex, property and edge records (and any WAL
// a live v4 session left) are trusted; the label index is rebuilt by
// scanning — and Finalize writes the v5 base as a new generation and
// commits it. An upgrade that fails or crashes before that commit leaves
// the legacy store as it was, plus orphans the next Upgrade sweeps.
func Upgrade(dir string, opts Options) error {
	m, ok, err := readManifest(dir)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("diskstore: %s: no store to upgrade", dir)
	}
	if m.Version == formatVersion {
		return nil
	}
	s, err := open(dir, opts, true)
	if err != nil {
		return err
	}
	if err := s.Finalize(); err != nil {
		s.closeFiles() // no Flush: it would commit the legacy files as v5
		return err
	}
	return s.Close()
}

func open(dir string, opts Options, upgrade bool) (*Store, error) {
	opts = opts.withDefaults()
	if opts.PageSize%vertexRecSize != 0 || opts.PageSize%propRecSize != 0 || opts.PageSize%degRecSize != 0 {
		return nil, fmt.Errorf("diskstore: page size %d must be a multiple of record sizes", opts.PageSize)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, finalizeMarker)); err == nil {
		return nil, fmt.Errorf("diskstore: %s: %w; rebuild the store from its source data (or restore a backup), then remove %s",
			dir, ErrFinalizeInterrupted, finalizeMarker)
	}
	m, haveManifest, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	legacy := haveManifest && m.Version < formatVersion
	if legacy && !upgrade {
		return nil, fmt.Errorf("diskstore: %s (format v%d): %w", dir, m.Version, ErrLegacyFormat)
	}
	gen := int64(0)
	if haveManifest {
		gen = m.Generation
	}
	var files [numFiles]*os.File
	for i, name := range baseFileNames {
		f, err := os.OpenFile(filepath.Join(dir, genFileName(name, gen)), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		files[i] = f
	}
	s := &Store{
		dir:      dir,
		opts:     opts,
		labelIDs: map[string]int{},
		typeIDs:  map[string]int{},
		keyIDs:   map[string]int{},
	}
	s.ByName = storage.NewByName(s)
	pg, err := newPager(files, opts.PageSize, opts.CachePages, &s.pagerStats)
	if err != nil {
		return nil, err
	}
	if opts.Mmap {
		pg.enableMmap(fileVertices, fileEdges)
	}
	ep := &epoch{
		gen:     gen,
		pager:   pg,
		byLabel: map[int][]storage.VID{},
	}
	ep.pins.Store(1)
	s.cur = ep
	s.generation.Store(gen)
	if haveManifest {
		// A legacy store's adjacency is read as build-mode edge records
		// whatever its manifest claims; Upgrade's Finalize re-derives it.
		ep.compressed = m.Compressed && !legacy
		ep.edgeBytes = m.EdgeBytes
		ep.numVertices, ep.numEdges, ep.numProps, ep.blobSize = m.NumVertices, m.NumEdges, m.NumProps, m.BlobSize
		ep.numDegs = m.NumDegs
		ep.baseSeq = m.WalSeq
		s.labels, s.types, s.keys = m.Labels, m.Types, m.Keys
		s.walFoldedSeq = m.WalSeq
		for i, l := range s.labels {
			s.labelIDs[l] = i
		}
		for i, t := range s.types {
			s.typeIDs[t] = i
		}
		for i, k := range s.keys {
			s.keyIDs[k] = i
		}
	}
	// A crashed Finalize leaves files of a generation the manifest never
	// committed; none of them are reachable, so sweep them before touching
	// anything.
	sweepOrphans(dir, gen)
	// Restore the label-scan index: it is persisted alongside the
	// generation, so opening costs O(index size). A store whose index file
	// is missing, torn, or out of step with the manifest — and a legacy
	// store being upgraded — rebuilds it from a full vertex scan.
	if haveManifest {
		if !legacy && s.loadIndex(ep) {
			s.indexLoaded = true
			s.indexCurrent = true
		} else {
			for v := int64(0); v < ep.numVertices; v++ {
				rec, err := ep.readVertex(storage.VID(v))
				if err != nil {
					return nil, err
				}
				for _, id := range labelBitsToIDs(rec.labels) {
					ep.byLabel[id] = append(ep.byLabel[id], storage.VID(v))
				}
			}
		}
	}
	s.delta = newDelta(ep.numVertices, ep.numEdges)
	// Recovery pass: enter live mode for finalized stores and replay any
	// write-ahead log a crashed live session left behind (see live.go).
	if err := s.recoverLive(); err != nil {
		return nil, err
	}
	return s, nil
}

// ErrFinalizeInterrupted is returned (wrapped, with a recovery hint) by
// Open when the directory holds a finalize.inprogress marker. Nothing in
// this package creates one any more: an earlier build's Finalize rewrote
// edges.db in place under that marker, and a store it left behind may
// hold a mix of old- and new-order edge records that the manifest cannot
// detect, so refusing is the only safe answer. Test with errors.Is.
var ErrFinalizeInterrupted = errors.New("store carries the finalize.inprogress marker of an earlier build's interrupted in-place finalize; its edge records may be partially rewritten")

// readManifest loads and validates manifest.json, reporting whether one
// exists (a fresh directory has none).
func readManifest(dir string) (manifest, bool, error) {
	var m manifest
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if os.IsNotExist(err) {
		return m, false, nil
	}
	if err != nil {
		return m, false, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, false, err
	}
	if m.Version < 2 || m.Version > formatVersion {
		return m, false, fmt.Errorf("diskstore: store format v%d is not supported (want v%d, or v2..v4 through Upgrade); rebuild the store", m.Version, formatVersion)
	}
	if m.Generation < 0 {
		return m, false, fmt.Errorf("diskstore: negative base generation %d in manifest", m.Generation)
	}
	return m, true, nil
}

// sweepOrphans removes base-generation files that do not belong to the
// committed generation and leftover temp files — the residue of a
// Finalize that crashed before or after its manifest commit — and the
// fold.tmp scratch directory an earlier build's fold used. Best-effort:
// sweep failures leave garbage, never break an open.
func sweepOrphans(dir string, gen int64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	keep := map[string]bool{
		"manifest.json": true,
		walFileName:     true,
	}
	for _, name := range baseFileNames {
		keep[genFileName(name, gen)] = true
	}
	keep[genFileName(indexFileName, gen)] = true
	for _, e := range entries {
		name := e.Name()
		if keep[name] {
			continue
		}
		if e.IsDir() {
			if name == "fold.tmp" {
				os.RemoveAll(filepath.Join(dir, name))
			}
			continue
		}
		if strings.HasSuffix(name, ".tmp") || isGenFile(name) {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// isGenFile reports whether name is a base-generation file of some
// generation (plain or .gN-suffixed).
func isGenFile(name string) bool {
	for _, base := range append(baseFileNames[:], indexFileName) {
		if name == base {
			return true
		}
		if rest, ok := strings.CutPrefix(name, base+".g"); ok {
			if _, err := strconv.ParseInt(rest, 10, 64); err == nil {
				return true
			}
		}
	}
	return false
}

// markDirty records the first mutation since open/flush. It removes the
// index file at that moment — before the mutation's page write, and
// crucially before cache eviction can push any dirty page to disk —
// because no index may ever sit on disk alongside data newer than it:
// record counts and symbol tables cannot catch every mutation (e.g.
// AddLabel of an existing label to an existing vertex changes neither),
// so a surviving stale index could still validate. From the first
// mutation until the next successful Flush, a crash leaves a store with
// no index that rebuilds correctly by scanning.
func (s *Store) markDirty() error {
	if s.dirty {
		return nil
	}
	if err := os.Remove(s.indexPath(s.cur.gen)); err != nil && !os.IsNotExist(err) {
		return err
	}
	// Build-mode mutations can change label membership and property
	// values, so the persisted statistics stop being definitive the same
	// instant the index file goes (Finalize rebuilds them).
	s.cur.statsValid = false
	s.cur.typeCounts = nil
	s.cur.blooms = nil
	s.indexCurrent = false
	s.dirty = true
	return nil
}

// Flush commits the current generation if anything changed since the
// last commit (see commit): dirty pages, the derived-index file and the
// manifest. The index file itself was already removed by the first
// mutation (see markDirty), so a crash before the manifest rename leaves
// a store that rebuilds its index by scanning. A store with nothing
// mutated since open skips the rewrites entirely — read-only workloads
// stay read-only on close — unless its index had to be rebuilt by
// scanning, which writes once to repair the missing index file. Pending
// bulk edges (AddEdgeBatch without Finalize) are finalized first so a
// flushed store is always fully linked. In live mode the delta segment is
// not flushed here: it is durable through the WAL and folded into the
// base by the next Finalize or Compact.
func (s *Store) Flush() error {
	if s.needFinalize {
		if err := s.Finalize(); err != nil {
			return err
		}
	}
	// flushMu serializes the commit with a background fold's: the fold
	// holds it across its manifest write and epoch swap, so the epoch
	// read below cannot see a generation the manifest no longer names.
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	ep := s.curEp()
	if !s.dirty && s.indexCurrent {
		return ep.pager.flush()
	}
	if err := s.commit(ep, s.labels, s.types, s.keys, s.walFoldedSeq); err != nil {
		return err
	}
	s.indexCurrent = true
	s.dirty = false
	return nil
}

// commit is the one commit protocol, which Finalize and Flush end in:
// write back and fsync ep's record files, write its index file, then
// atomically replace manifest.json with one naming ep's generation, the
// given symbol tables and WAL fence (writeFileAtomic — the rename is the
// commit point, and the directory sync after it makes the rename
// durable). A failure or crash before the rename leaves the previous
// manifest in charge.
func (s *Store) commit(ep *epoch, labels, types, keys []string, walSeq uint64) error {
	if err := ep.pager.flush(); err != nil {
		return err
	}
	for _, f := range ep.pager.files {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	if err := s.writeIndex(ep, labels, types, keys); err != nil {
		return err
	}
	data, err := json.Marshal(manifest{
		Version: formatVersion, Generation: ep.gen,
		Labels: labels, Types: types, Keys: keys,
		NumVertices: ep.numVertices, NumEdges: ep.numEdges, NumProps: ep.numProps,
		NumDegs: ep.numDegs, BlobSize: ep.blobSize,
		Segmented: ep.compressed, Compressed: ep.compressed,
		EdgeBytes: ep.edgeBytes,
		WalSeq:    walSeq,
	})
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(s.dir, "manifest.json"), data)
}

// finalizeMarker is the sentinel an earlier build's in-place Finalize
// left while its edge rewrite was uncommitted; Open refuses a directory
// holding one (see ErrFinalizeInterrupted).
const finalizeMarker = "finalize.inprogress"

// writeFileAtomic writes data to a sibling temp file, syncs it, renames
// it over path, and syncs the parent directory, so readers only ever
// observe the old or the new content — and the rename itself survives a
// power loss, which the commit protocol depends on.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-completed rename in it is
// durable. Filesystems that cannot sync directories make it a no-op.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}

// Close flushes and closes the underlying files. A live store's delta
// segment is not folded — it stays durable through the WAL and is
// replayed on the next Open; call Compact first to fold it instead.
// Closing with unreleased snapshots is a caller bug; their epochs' files
// may already be closed under them.
func (s *Store) Close() error {
	if err := s.Flush(); err != nil {
		return err
	}
	return s.closeFiles()
}

// closeFiles closes the WAL and the current generation's files without
// committing anything.
func (s *Store) closeFiles() error {
	if w := s.wal.Load(); w != nil {
		if err := w.close(); err != nil {
			return err
		}
	}
	return s.curEp().closeFiles()
}

// DropCache empties the page cache, simulating a cold start.
func (s *Store) DropCache() error { return s.curEp().pager.dropCache() }

// Stats returns the page cache counters, cumulative across generations:
// they only ever decrease at ResetStats.
func (s *Store) Stats() storage.Stats { return s.pagerStats.snapshot() }

// ResetStats zeroes the page cache counters.
func (s *Store) ResetStats() { s.pagerStats.reset() }

// ---- record codecs (per epoch: each generation has its own files) ----

type vertexRec struct {
	inUse     bool
	labels    [2]uint64
	firstOut  int64 // edge id + 1; 0 = none
	firstIn   int64
	firstProp int64 // prop id + 1
	// Degree counters let Degree(v, "", out) answer from the vertex
	// record alone instead of walking the whole adjacency chain.
	outDeg uint32
	inDeg  uint32
	// firstDeg chains per-type degree records (deg id + 1; 0 = none) so
	// typed Degree walks one short record per distinct edge type instead
	// of the full adjacency chain.
	firstDeg int64
}

type edgeRec struct {
	inUse    bool
	typeID   uint32
	src, dst int64
	nextOut  int64 // edge id + 1
	nextIn   int64
}

// degRec is one vertex's degree counters for one edge type, chained per
// vertex (Finalize chains them in ascending type order; incremental
// building in type-first-seen order). Chains are short — one record per
// distinct edge type the vertex touches — so walking them is cheap even
// for hub vertices with huge adjacency.
//
// On a finalized (compressed) epoch the record doubles as the type's
// adjacency segment descriptor: bytes 21-36 hold the byte offsets of the
// type's out/in varint segments in edges.db (stored +1; 0 = empty), bytes
// 37-44 their encoded lengths, and bytes 45-52 the EID of the segment's
// first out-edge (+1) — out-EIDs are contiguous per segment, so one stored
// EID recovers all of them. In build mode the descriptor is zero.
type degRec struct {
	inUse  bool
	typeID uint32
	outDeg uint32
	inDeg  uint32
	next   int64 // deg id + 1
	// Varint segment descriptors (offsets stored +1).
	outOff, inOff int64
	outLen, inLen uint32
	firstOutEID   int64 // EID of the segment's first out-edge, stored +1
}

type propRec struct {
	inUse bool
	keyID uint32
	kind  graph.Kind
	a, b  uint64
	next  int64 // prop id + 1
}

func (ep *epoch) readVertex(v storage.VID) (vertexRec, error) {
	var buf [vertexRecSize]byte
	if err := ep.pager.read(fileVertices, int64(v)*vertexRecSize, buf[:]); err != nil {
		return vertexRec{}, err
	}
	return vertexRec{
		inUse:     buf[0]&1 != 0,
		labels:    [2]uint64{binary.LittleEndian.Uint64(buf[1:]), binary.LittleEndian.Uint64(buf[9:])},
		firstOut:  int64(binary.LittleEndian.Uint64(buf[17:])),
		firstIn:   int64(binary.LittleEndian.Uint64(buf[25:])),
		firstProp: int64(binary.LittleEndian.Uint64(buf[33:])),
		outDeg:    binary.LittleEndian.Uint32(buf[41:]),
		inDeg:     binary.LittleEndian.Uint32(buf[45:]),
		firstDeg:  int64(binary.LittleEndian.Uint64(buf[49:])),
	}, nil
}

func (ep *epoch) writeVertex(v storage.VID, r vertexRec) error {
	buf := r.encode()
	return ep.pager.write(fileVertices, int64(v)*vertexRecSize, buf[:])
}

func (r vertexRec) encode() (buf [vertexRecSize]byte) {
	if r.inUse {
		buf[0] = 1
	}
	binary.LittleEndian.PutUint64(buf[1:], r.labels[0])
	binary.LittleEndian.PutUint64(buf[9:], r.labels[1])
	binary.LittleEndian.PutUint64(buf[17:], uint64(r.firstOut))
	binary.LittleEndian.PutUint64(buf[25:], uint64(r.firstIn))
	binary.LittleEndian.PutUint64(buf[33:], uint64(r.firstProp))
	binary.LittleEndian.PutUint32(buf[41:], r.outDeg)
	binary.LittleEndian.PutUint32(buf[45:], r.inDeg)
	binary.LittleEndian.PutUint64(buf[49:], uint64(r.firstDeg))
	return buf
}

func (ep *epoch) readEdge(e storage.EID) (edgeRec, error) {
	var buf [edgeRecSize]byte
	if err := ep.pager.read(fileEdges, int64(e)*edgeRecSize, buf[:]); err != nil {
		return edgeRec{}, err
	}
	return edgeRec{
		inUse:   buf[0]&1 != 0,
		typeID:  binary.LittleEndian.Uint32(buf[1:]),
		src:     int64(binary.LittleEndian.Uint64(buf[5:])),
		dst:     int64(binary.LittleEndian.Uint64(buf[13:])),
		nextOut: int64(binary.LittleEndian.Uint64(buf[21:])),
		nextIn:  int64(binary.LittleEndian.Uint64(buf[29:])),
	}, nil
}

func (ep *epoch) writeEdge(e storage.EID, r edgeRec) error {
	var buf [edgeRecSize]byte
	if r.inUse {
		buf[0] = 1
	}
	binary.LittleEndian.PutUint32(buf[1:], r.typeID)
	binary.LittleEndian.PutUint64(buf[5:], uint64(r.src))
	binary.LittleEndian.PutUint64(buf[13:], uint64(r.dst))
	binary.LittleEndian.PutUint64(buf[21:], uint64(r.nextOut))
	binary.LittleEndian.PutUint64(buf[29:], uint64(r.nextIn))
	return ep.pager.write(fileEdges, int64(e)*edgeRecSize, buf[:])
}

func (ep *epoch) readProp(p int64) (propRec, error) {
	var buf [propRecSize]byte
	if err := ep.pager.read(fileProps, p*propRecSize, buf[:]); err != nil {
		return propRec{}, err
	}
	return propRec{
		inUse: buf[0]&1 != 0,
		keyID: binary.LittleEndian.Uint32(buf[1:]),
		kind:  graph.Kind(buf[5]),
		a:     binary.LittleEndian.Uint64(buf[6:]),
		b:     binary.LittleEndian.Uint64(buf[14:]),
		next:  int64(binary.LittleEndian.Uint64(buf[22:])),
	}, nil
}

func (ep *epoch) writeProp(p int64, r propRec) error {
	buf := r.encode()
	return ep.pager.write(fileProps, p*propRecSize, buf[:])
}

func (r propRec) encode() (buf [propRecSize]byte) {
	if r.inUse {
		buf[0] = 1
	}
	binary.LittleEndian.PutUint32(buf[1:], r.keyID)
	buf[5] = byte(r.kind)
	binary.LittleEndian.PutUint64(buf[6:], r.a)
	binary.LittleEndian.PutUint64(buf[14:], r.b)
	binary.LittleEndian.PutUint64(buf[22:], uint64(r.next))
	return buf
}

func (ep *epoch) readDeg(d int64) (degRec, error) {
	var buf [degRecSize]byte
	if err := ep.pager.read(fileDegrees, d*degRecSize, buf[:]); err != nil {
		return degRec{}, err
	}
	return degRec{
		inUse:       buf[0]&1 != 0,
		typeID:      binary.LittleEndian.Uint32(buf[1:]),
		outDeg:      binary.LittleEndian.Uint32(buf[5:]),
		inDeg:       binary.LittleEndian.Uint32(buf[9:]),
		next:        int64(binary.LittleEndian.Uint64(buf[13:])),
		outOff:      int64(binary.LittleEndian.Uint64(buf[21:])),
		inOff:       int64(binary.LittleEndian.Uint64(buf[29:])),
		outLen:      binary.LittleEndian.Uint32(buf[37:]),
		inLen:       binary.LittleEndian.Uint32(buf[41:]),
		firstOutEID: int64(binary.LittleEndian.Uint64(buf[45:])),
	}, nil
}

func (ep *epoch) writeDeg(d int64, r degRec) error {
	buf := r.encode()
	return ep.pager.write(fileDegrees, d*degRecSize, buf[:])
}

func (r degRec) encode() (buf [degRecSize]byte) {
	if r.inUse {
		buf[0] = 1
	}
	binary.LittleEndian.PutUint32(buf[1:], r.typeID)
	binary.LittleEndian.PutUint32(buf[5:], r.outDeg)
	binary.LittleEndian.PutUint32(buf[9:], r.inDeg)
	binary.LittleEndian.PutUint64(buf[13:], uint64(r.next))
	binary.LittleEndian.PutUint64(buf[21:], uint64(r.outOff))
	binary.LittleEndian.PutUint64(buf[29:], uint64(r.inOff))
	binary.LittleEndian.PutUint32(buf[37:], r.outLen)
	binary.LittleEndian.PutUint32(buf[41:], r.inLen)
	binary.LittleEndian.PutUint64(buf[45:], uint64(r.firstOutEID))
	return buf
}

// bumpDeg increments the per-type degree counter reachable from rec,
// creating (and chaining) the type's record on first sight. May update
// rec.firstDeg; the caller writes the vertex record afterwards.
func (ep *epoch) bumpDeg(rec *vertexRec, typeID uint32, out bool) error {
	for d := rec.firstDeg; d != 0; {
		dr, err := ep.readDeg(d - 1)
		if err != nil {
			return err
		}
		if dr.typeID == typeID {
			if out {
				dr.outDeg++
			} else {
				dr.inDeg++
			}
			return ep.writeDeg(d-1, dr)
		}
		d = dr.next
	}
	id := ep.numDegs
	ep.numDegs++
	dr := degRec{inUse: true, typeID: typeID, next: rec.firstDeg}
	if out {
		dr.outDeg = 1
	} else {
		dr.inDeg = 1
	}
	if err := ep.writeDeg(id, dr); err != nil {
		return err
	}
	rec.firstDeg = id + 1
	return nil
}

func (ep *epoch) appendBlob(data []byte) (off int64, err error) {
	off = ep.blobSize
	if err := ep.pager.write(fileBlobs, off, data); err != nil {
		return 0, err
	}
	ep.blobSize += int64(len(data))
	return off, nil
}

// readBlob reads n bytes at off, both straight from a prop record and so
// checked against the blob file's extent before anything is allocated.
func (ep *epoch) readBlob(off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off > ep.blobSize || n > ep.blobSize-off {
		return nil, fmt.Errorf("diskstore: blob [%d,+%d) outside blobs.db (%d bytes)", off, n, ep.blobSize)
	}
	buf := make([]byte, n)
	if err := ep.pager.read(fileBlobs, off, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func labelBitsToIDs(bitsets [2]uint64) []int {
	var ids []int
	for w, word := range bitsets {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			ids = append(ids, w*64+b)
			word &^= 1 << b
		}
	}
	return ids
}

// ---- value <-> prop record encoding ----

// encodeValue returns the prop-record fields for a value. A string or
// list lives in blobs.db: its bytes come back as blob, b is their length,
// and the caller sets a to the offset it stores them at.
func encodeValue(v graph.Value) (kind graph.Kind, a, b uint64, blob []byte, err error) {
	switch v.Kind() {
	case graph.KindNull:
		return graph.KindNull, 0, 0, nil, nil
	case graph.KindInt:
		return graph.KindInt, uint64(v.Int()), 0, nil, nil
	case graph.KindFloat:
		return graph.KindFloat, graph.FloatBits(v.Float()), 0, nil, nil
	case graph.KindBool:
		if v.Bool() {
			return graph.KindBool, 1, 0, nil, nil
		}
		return graph.KindBool, 0, 0, nil, nil
	case graph.KindString:
		return graph.KindString, 0, uint64(len(v.Str())), []byte(v.Str()), nil
	case graph.KindList:
		data, err := encodeList(v.List())
		if err != nil {
			return 0, 0, 0, nil, err
		}
		return graph.KindList, 0, uint64(len(data)), data, nil
	default:
		return 0, 0, 0, nil, fmt.Errorf("diskstore: unsupported value kind %v", v.Kind())
	}
}

func (ep *epoch) decodeValue(r propRec) (graph.Value, error) {
	switch r.kind {
	case graph.KindNull:
		return graph.Null, nil
	case graph.KindInt:
		return graph.I(int64(r.a)), nil
	case graph.KindFloat:
		return graph.FBits(r.a), nil
	case graph.KindBool:
		return graph.B(r.a == 1), nil
	case graph.KindString:
		data, err := ep.readBlob(int64(r.a), int64(r.b))
		if err != nil {
			return graph.Null, err
		}
		return graph.S(string(data)), nil
	case graph.KindList:
		data, err := ep.readBlob(int64(r.a), int64(r.b))
		if err != nil {
			return graph.Null, err
		}
		return decodeList(data)
	default:
		return graph.Null, fmt.Errorf("diskstore: unsupported stored kind %v", r.kind)
	}
}

// encodeList serializes a list of scalar values. Nested lists are not
// supported (the schema optimizer only replicates scalar properties).
func encodeList(vs []graph.Value) ([]byte, error) {
	var out []byte
	var n [8]byte
	binary.LittleEndian.PutUint32(n[:4], uint32(len(vs)))
	out = append(out, n[:4]...)
	for _, v := range vs {
		out = append(out, byte(v.Kind()))
		switch v.Kind() {
		case graph.KindNull:
		case graph.KindInt:
			binary.LittleEndian.PutUint64(n[:], uint64(v.Int()))
			out = append(out, n[:]...)
		case graph.KindFloat:
			binary.LittleEndian.PutUint64(n[:], graph.FloatBits(v.Float()))
			out = append(out, n[:]...)
		case graph.KindBool:
			if v.Bool() {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		case graph.KindString:
			binary.LittleEndian.PutUint32(n[:4], uint32(len(v.Str())))
			out = append(out, n[:4]...)
			out = append(out, v.Str()...)
		default:
			return nil, fmt.Errorf("diskstore: cannot store nested %v in list", v.Kind())
		}
	}
	return out, nil
}

// decodeList parses a list blob. The bytes come from disk, so it reads
// through the bounds-checked idxReader: a short or oversized blob is an
// error, never an out-of-range index.
func decodeList(data []byte) (graph.Value, error) {
	r := idxReader{data: data, ok: true}
	count := r.u32()
	if !r.ok || uint64(count) > uint64(len(r.data)) { // every element takes >= 1 byte
		return graph.Null, fmt.Errorf("diskstore: corrupt list blob")
	}
	vs := make([]graph.Value, 0, count)
	for i := uint32(0); i < count; i++ {
		switch kind := graph.Kind(r.u8()); kind {
		case graph.KindNull:
			vs = append(vs, graph.Null)
		case graph.KindInt:
			vs = append(vs, graph.I(int64(r.u64())))
		case graph.KindFloat:
			vs = append(vs, graph.FBits(r.u64()))
		case graph.KindBool:
			vs = append(vs, graph.B(r.u8() == 1))
		case graph.KindString:
			vs = append(vs, graph.S(r.str()))
		default:
			return graph.Null, fmt.Errorf("diskstore: corrupt list element kind %v", kind)
		}
		if !r.ok {
			return graph.Null, fmt.Errorf("diskstore: truncated list blob")
		}
	}
	return graph.L(vs...), nil
}

// ---- Builder (single-writer build mode; operates on the one epoch) ----

// AddVertex creates a vertex with the given labels. On a live
// (finalized) store the write is rerouted through the durable
// WAL-backed path; see ApplyMutations.
func (s *Store) AddVertex(labels ...string) (storage.VID, error) {
	if s.liveMode.Load() {
		res, err := s.ApplyMutations([]storage.Mutation{{Op: storage.MutAddVertex, Labels: labels}})
		if err != nil {
			return 0, err
		}
		return res.Vertices[0], nil
	}
	if err := s.markDirty(); err != nil {
		return 0, err
	}
	ep := s.cur
	v := storage.VID(ep.numVertices)
	ep.numVertices++
	if err := ep.writeVertex(v, vertexRec{inUse: true}); err != nil {
		return 0, err
	}
	for _, l := range labels {
		if err := s.AddLabel(v, l); err != nil {
			return 0, err
		}
	}
	return v, nil
}

func (s *Store) labelID(label string, create bool) (int, bool, error) {
	if id, ok := s.labelIDs[label]; ok {
		return id, true, nil
	}
	if !create {
		return 0, false, nil
	}
	if len(s.labels) >= maxLabels {
		return 0, false, fmt.Errorf("diskstore: label limit (%d) exceeded", maxLabels)
	}
	id := len(s.labels)
	s.labels = append(s.labels, label)
	s.labelIDs[label] = id
	return id, true, nil
}

// AddLabel adds a label to an existing vertex (durably via the WAL on a
// live store).
func (s *Store) AddLabel(v storage.VID, label string) error {
	if s.liveMode.Load() {
		_, err := s.ApplyMutations([]storage.Mutation{{Op: storage.MutAddLabel, V: v, Label: label}})
		return err
	}
	if err := s.check(v); err != nil {
		return err
	}
	id, _, err := s.labelID(label, true)
	if err != nil {
		return err
	}
	ep := s.cur
	rec, err := ep.readVertex(v)
	if err != nil {
		return err
	}
	w, b := id/64, uint(id%64)
	if rec.labels[w]&(1<<b) != 0 {
		return nil
	}
	rec.labels[w] |= 1 << b
	if err := s.markDirty(); err != nil {
		return err
	}
	if err := ep.writeVertex(v, rec); err != nil {
		return err
	}
	ep.byLabel[id] = append(ep.byLabel[id], v)
	return nil
}

// SetProp sets a vertex property, replacing any previous value (durably
// via the WAL on a live store).
func (s *Store) SetProp(v storage.VID, key string, val graph.Value) error {
	if s.liveMode.Load() {
		_, err := s.ApplyMutations([]storage.Mutation{{Op: storage.MutSetProp, V: v, Key: key, Value: val}})
		return err
	}
	if err := s.check(v); err != nil {
		return err
	}
	keyID := s.internKey(key)
	if err := s.markDirty(); err != nil {
		return err
	}
	ep := s.cur
	kind, a, b, blob, err := encodeValue(val)
	if err != nil {
		return err
	}
	if blob != nil {
		off, err := ep.appendBlob(blob)
		if err != nil {
			return err
		}
		a = uint64(off)
	}
	rec, err := ep.readVertex(v)
	if err != nil {
		return err
	}
	// Overwrite in place if the key exists in the chain.
	for p := rec.firstProp; p != 0; {
		pr, err := ep.readProp(p - 1)
		if err != nil {
			return err
		}
		if pr.keyID == uint32(keyID) {
			pr.kind, pr.a, pr.b = kind, a, b
			return ep.writeProp(p-1, pr)
		}
		p = pr.next
	}
	// Prepend a new record.
	pid := ep.numProps
	ep.numProps++
	pr := propRec{inUse: true, keyID: uint32(keyID), kind: kind, a: a, b: b, next: rec.firstProp}
	if err := ep.writeProp(pid, pr); err != nil {
		return err
	}
	rec.firstProp = pid + 1
	return ep.writeVertex(v, rec)
}

// AddEdge creates a directed edge of the given type. During building it
// prepends to the source's out-chain and the destination's in-chain; on
// a live (finalized) store it is rerouted through the durable WAL-backed
// delta path instead, which leaves the base's segments intact — typed
// traversals of base edges stay on the segment fast path rather than
// silently degrading to the filter path.
func (s *Store) AddEdge(src, dst storage.VID, etype string) (storage.EID, error) {
	if s.liveMode.Load() {
		res, err := s.ApplyMutations([]storage.Mutation{{Op: storage.MutAddEdge, Src: src, Dst: dst, Type: etype}})
		if err != nil {
			return 0, err
		}
		return res.Edges[0], nil
	}
	if err := s.check(src); err != nil {
		return 0, err
	}
	if err := s.check(dst); err != nil {
		return 0, err
	}
	typeID := s.internType(etype)
	if err := s.markDirty(); err != nil {
		return 0, err
	}
	ep := s.cur
	e := storage.EID(ep.numEdges)
	ep.numEdges++
	// An edge record follows, prepended to chain heads that interleave
	// types: adjacency is in build mode until the next Finalize.
	// Safe on a finalized store, because one that holds edges is always
	// live (writes route through the delta instead), so this path only
	// runs while edges.db is still empty.
	ep.compressed = false

	srcRec, err := ep.readVertex(src)
	if err != nil {
		return 0, err
	}
	er := edgeRec{
		inUse: true, typeID: uint32(typeID),
		src: int64(src), dst: int64(dst),
		nextOut: srcRec.firstOut,
	}
	srcRec.firstOut = int64(e) + 1
	srcRec.outDeg++
	if err := ep.bumpDeg(&srcRec, uint32(typeID), true); err != nil {
		return 0, err
	}
	if err := ep.writeVertex(src, srcRec); err != nil {
		return 0, err
	}
	dstRec, err := ep.readVertex(dst)
	if err != nil {
		return 0, err
	}
	er.nextIn = dstRec.firstIn
	dstRec.firstIn = int64(e) + 1
	dstRec.inDeg++
	if err := ep.bumpDeg(&dstRec, uint32(typeID), false); err != nil {
		return 0, err
	}
	if err := ep.writeVertex(dst, dstRec); err != nil {
		return 0, err
	}
	return e, ep.writeEdge(e, er)
}

// check validates a vertex reference on the write path. In live mode the
// bound is the delta's global high-water mark (every vertex ever
// created, folded or not — IDs are stable across folds); in build mode
// it is the single epoch's count.
func (s *Store) check(v storage.VID) error {
	bound := s.cur.numVertices
	if s.liveMode.Load() {
		bound = s.delta.nextV.Load()
	}
	if v < 0 || int64(v) >= bound {
		return fmt.Errorf("diskstore: vertex %d out of range", v)
	}
	return nil
}
