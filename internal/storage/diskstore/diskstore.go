// Package diskstore implements storage.Graph as a vertex-local record
// store: a fixed-size vertex record per vertex that locates two
// contiguous runs — the vertex's properties, sorted by key, and its
// adjacency block, a type directory followed by delta-varint segments per
// edge type — and a variable-length blob file for strings and lists. The
// vertex records are resident: each generation holds them in a compact
// table, read once at Open (or kept from the Finalize that wrote them),
// so a read finds a vertex's run and block without a page fetch. The
// runs, blocks and blobs are read through a sharded page cache with
// clock-sweep eviction, whose hits take no lock: a per-file frame table
// and a CAS pin. The cache recycles its frames — a miss in a full shard
// loads into the buffer of the frame it evicts — which rests on one rule:
// the sweep claims a victim only while it is unpinned, by a CAS that
// makes every later pin of it fail, so a recycled buffer has no reader
// (see pager).
//
// It stands in for the paper's disk-based backend (Neo4j): every edge
// traversal reads segment bytes, and every property read run bytes, that
// may or may not be resident in the page cache, so schemas that need
// fewer traversals do proportionally less I/O. The cache size is
// configurable to reproduce the paper's observation that disk-based
// systems benefit most from schema optimization.
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
// Files from any other generation are orphans and are swept at Open. A
// generation's files are written once and never again: every store is
// live from Open, its writes go to the WAL and the in-memory delta, and a
// bulk load gathers in memory until its Finalize writes generation 1.
//
// In memory, each open generation is an epoch: the pager, record counts,
// vertex table, label index, and the WAL fence (baseSeq) that tells
// readers which delta entries the generation's files already absorbed.
// Readers pin the epoch they read through (see view.go); a superseded
// epoch's files are closed and deleted only when its pin count drains to
// zero, so long-running traversals and snapshots keep a consistent view
// across a concurrent fold.
package diskstore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
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
	"repro/internal/storage/propindex"
)

const (
	vertexRecSize = 64
	propRecSize   = 16
	dirEntrySize  = 20
	maxLabels     = 128
	// maxKeyID bounds the key IDs a property record's 24-bit key field
	// holds.
	maxKeyID = 1<<24 - 1
)

// Options configures a Store.
type Options struct {
	// PageSize is the cache page size in bytes (default 8192). The vertex
	// and property record sizes (64 and 16) must divide it.
	PageSize int
	// CachePages is the page cache capacity (default 256 pages = 2 MiB
	// with the default page size).
	CachePages int
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

// formatVersion is the one on-disk layout this package reads and writes,
// vertex-local:
//
//   - vertices.db: one 64-byte record per vertex holding its labels,
//     untyped degrees and first out-EID, and locating its property run
//     and its adjacency block;
//   - props.db: each vertex's properties as one run of 16-byte records
//     sorted by key ID (strings and lists in blobs.db, grouped by key);
//   - edges.db: each vertex's adjacency block — a type directory sorted by
//     type ID, then the vertex's delta-varint out/in segments in directory
//     order (see segcodec.go);
//   - index.db, the persisted value postings and a statistics block
//     (per-edge-type counts), so Open reads no property run or
//     directory. It holds nothing Open can derive: the label-scan index
//     comes from vertices.db, the symbol tables from the manifest.
//
// Stores written by earlier releases — manifest versions 2 to 5, whose
// properties and per-type degree records are linked chains — are refused
// by Open with ErrLegacyFormat; rebuild them from their source data.
// Version 1 and unknown versions are rejected outright — v1 vertex
// records would silently read their degree counters as zero.
const formatVersion = 6

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
	BlobSize    int64    `json:"blob_size"`
	// EdgeBytes is the size of edges.db — directories and segments, the
	// bytes-on-disk numerator of the compression ratio.
	EdgeBytes int64 `json:"edge_bytes,omitempty"`
	// WalSeq fences WAL replay: the highest WAL sequence number folded
	// into the base by a committed Compact. Records at or below it are
	// skipped (and a fully stale log truncated) at Open, so a crash
	// between Compact's manifest commit and its WAL truncation cannot
	// replay folded mutations twice.
	WalSeq uint64 `json:"wal_seq,omitempty"`
}

// baseFileNames are the record files backing one base generation, in
// pager file-slot order.
var baseFileNames = [numFiles]string{"vertices.db", "edges.db", "props.db", "blobs.db"}

// indexFileName is the persisted derived-structure file, also
// generation-suffixed.
const indexFileName = "index.db"

// genFileName maps a base file name to its generation-qualified on-disk
// name: generation 0, a fresh store's before its first Finalize, keeps
// the plain name.
func genFileName(name string, gen int64) string {
	if gen == 0 {
		return name
	}
	return fmt.Sprintf("%s.g%d", name, gen)
}

// epoch is one open base generation: the four record files (the pager
// reads props.db, edges.db and blobs.db; vertices.db is read only into
// vtab), their counts, the resident vertex table, the label-scan index
// and value postings, and the WAL fence (baseSeq) identifying which
// logged batches the files already absorbed. An epoch's files are never
// mutated — Finalize writes a whole new generation — so every field here
// is immutable once the epoch is published, and readers touch it without
// locks.
//
// pins counts references: 1 for the store itself while the epoch is
// current, plus one per in-flight read and per held snapshot. When a fold
// supersedes the epoch the store's reference is dropped; the last unpin
// reclaims it (closes and deletes the generation's files, then lets the
// delta prune entries the new generation absorbed).
type epoch struct {
	gen int64
	// edgeBytes is the size of edges.db.
	edgeBytes int64
	pager     *pager

	numVertices int64
	numEdges    int64
	numProps    int64
	blobSize    int64

	// vtab is the generation's vertex records without their labels,
	// resident: readVertex answers from it, so no read fetches a page of
	// vertices.db. Entry v holds vertex v's run start, block offset and
	// first out-EID — running sums in VID order, so entry v+1 ends them —
	// and its in-degree and directory size; entry numVertices holds the
	// three totals. writeGeneration fills it from the records it writes,
	// Open from one checked sequential read of vertices.db (loadVertices).
	vtab []vertexEntry

	// byLabel is the label-scan index, in VID order: the records' labels.
	// Built by writeGeneration or by Open's read of vertices.db; index.db
	// holds no copy.
	byLabel map[int][]storage.VID
	// values is the generation's (label, key, value) postings: the base
	// files' values only, which a view overlays with the delta (see
	// view.ForEachVertexByPropID). Built by writeGeneration, restored by
	// loadIndex, or rebuilt by Open's scan.
	values *propindex.Index
	// labelBits is byLabel again as one membership bitmap per label ID
	// (⌈numVertices/64⌉ words, nil for a label without base members —
	// 64× smaller than the postings). It is the base vertices' one label
	// source: HasLabelID, Labels and the fold's label copy read it, and
	// vtab holds no labels. setLabelBits derives it.
	labelBits [][]uint64

	// Statistics: base edge counts per type ID, from Finalize, index.db
	// or Open's scan. statsValid distinguishes "no edges of the type"
	// from "statistics unavailable" (a store with no generation yet).
	typeCounts []int64
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

// setLabelBits derives labelBits from byLabel. Called once per epoch, by
// the two places that make one (loadVertices and writeGeneration), before
// it is published to readers.
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

// labelIDs appends base vertex v's label IDs, ascending, to ids.
func (ep *epoch) labelIDs(v storage.VID, ids []int) []int {
	for id := range ep.labelBits {
		if ep.hasLabelBit(v, storage.SymbolID(id)) {
			ids = append(ids, id)
		}
	}
	return ids
}

// closeFiles closes the generation's backing files.
func (ep *epoch) closeFiles() error {
	var first error
	for _, f := range ep.pager.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Store is a disk-backed property graph, live from Open: its entire read
// surface — traversals, property and label lookups, degree queries, stats
// — is safe for any number of concurrent reader goroutines alongside
// durable writes (see live.go). Base vertex records are resident (see
// epoch.vtab); runs, blocks and blobs are read through the pager's sharded
// page cache, where readers contend only when they touch the same cache
// shard at the same instant (see pager). A bulk load (see
// finalize.go) is single-writer and invisible to reads until its Finalize.
//
// Compact runs in the background: readers and writers keep going against
// the current epoch while the fold builds the next generation (see
// compact.go), and AcquireSnapshot pins a consistent {epoch, delta
// watermark} view across the swap (see view.go).
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

	// indexLoaded reports that Open restored the value postings and
	// statistics from index.db instead of scanning every vertex's run and
	// directory.
	indexLoaded bool
	// indexCurrent reports that the index file on disk describes the
	// current generation: set by a successful load at Open and by every
	// commit. A Flush with a current index writes nothing.
	indexCurrent bool

	labels   []string
	labelIDs map[string]int
	types    []string
	typeIDs  map[string]int
	keys     []string
	keyIDs   map[string]int

	// ---- live-write state (see live.go, wal.go, delta.go) ----

	// load is the pending bulk load, nil when none is open: the vertices
	// and edges gathered since a first AddVertexBatch on a store that held
	// nothing (see finalize.go). Reads never see it; ApplyMutations
	// refuses while it is open.
	load atomic.Pointer[frozenDelta]
	// finalized is set by the first successful Finalize; from then on the
	// store refuses batches (storage.ErrFinalized).
	finalized atomic.Bool
	// liveMu serializes ApplyMutations batches (WAL append order = delta
	// apply order = replay order), the opening of a load, and the fold's
	// freeze/swap steps.
	liveMu sync.Mutex
	// symMu guards the symbol tables: readers resolve under RLock while
	// writes intern under Lock.
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
	// IndexLoaded reports that Open restored the value postings and
	// statistics from index.db rather than scanning every vertex's
	// property run and type directory.
	IndexLoaded bool
	// EdgeBytes is the size of edges.db: the adjacency blocks, type
	// directories and segments. EdgeBytes / NumEdges is the
	// bytes-per-edge figure.
	EdgeBytes int64
}

// Format reports the store's on-disk format version and how it was
// opened. Serving and benchmark tools log it so "did this store open the
// fast way" is observable.
func (s *Store) Format() FormatInfo {
	ep := s.curEp()
	return FormatInfo{
		Version: formatVersion, Generation: ep.gen,
		IndexLoaded: s.indexLoaded, EdgeBytes: ep.edgeBytes,
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

// ErrLegacyFormat is returned (wrapped) by Open for a store whose
// manifest names format version 2 to 5 (see formatVersion). Test with
// errors.Is.
var ErrLegacyFormat = errors.New("store was written in a legacy on-disk format; rebuild it with pgsgen -store DIR")

// Open creates (or reopens) a store in dir. A store written by an
// earlier release is refused with ErrLegacyFormat before any file in dir
// is touched.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.PageSize%vertexRecSize != 0 || opts.PageSize%propRecSize != 0 {
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
	if haveManifest && m.Version < formatVersion {
		return nil, fmt.Errorf("diskstore: %s (format v%d): %w", dir, m.Version, ErrLegacyFormat)
	}
	if haveManifest {
		if err := checkBase(dir, m); err != nil {
			return nil, err
		}
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
	ep := &epoch{
		gen:     gen,
		pager:   pg,
		byLabel: map[int][]storage.VID{},
	}
	ep.pins.Store(1)
	s.cur = ep
	if haveManifest {
		ep.edgeBytes = m.EdgeBytes
		ep.numVertices, ep.numEdges, ep.numProps, ep.blobSize = m.NumVertices, m.NumEdges, m.NumProps, m.BlobSize
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
	// Read the vertex records into the resident table, then restore the
	// value postings and statistics: they are persisted alongside the
	// generation, so opening reads no page. A store whose index file is
	// missing, torn, or out of step with the manifest or the records
	// rebuilds them from a scan of every vertex's run and directory.
	if haveManifest {
		if err := ep.loadVertices(len(s.labels)); err != nil {
			return nil, err
		}
		if s.loadIndex(ep) {
			s.indexLoaded = true
			s.indexCurrent = true
		} else if err := ep.scanIndex(len(s.types), len(s.keys)); err != nil {
			return nil, err
		}
	}
	s.delta = newDelta(ep.numVertices, ep.numEdges)
	// Recovery pass: replay any write-ahead log a crashed session left
	// behind (see live.go).
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

// ErrBadManifest is returned (wrapped) by Open for a manifest.json that
// does not parse, names no supported format, or does not describe the
// base files it names. Open refuses such a store before it touches a
// file. Test with errors.Is.
var ErrBadManifest = errors.New("diskstore: bad manifest")

func badManifest(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBadManifest}, args...)...)
}

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
		return m, false, badManifest("%v", err)
	}
	if m.Version < 2 || m.Version > formatVersion {
		return m, false, badManifest("store format v%d is not supported (want v%d); rebuild the store", m.Version, formatVersion)
	}
	if m.Generation < 0 {
		return m, false, badManifest("negative base generation %d", m.Generation)
	}
	if m.NumVertices < 0 || m.NumEdges < 0 || m.NumProps < 0 || m.BlobSize < 0 || m.EdgeBytes < 0 {
		return m, false, badManifest("negative count (vertices %d, edges %d, properties %d, blob bytes %d, edge bytes %d)",
			m.NumVertices, m.NumEdges, m.NumProps, m.BlobSize, m.EdgeBytes)
	}
	return m, true, nil
}

// checkBase reports a manifest whose generation's record files are
// missing or do not hold the records and bytes its counts give them.
func checkBase(dir string, m manifest) error {
	want := [numFiles]int64{fileVertices: m.NumVertices, fileEdges: m.EdgeBytes, fileProps: m.NumProps, fileBlobs: m.BlobSize}
	unit := [numFiles]int64{fileVertices: vertexRecSize, fileEdges: 1, fileProps: propRecSize, fileBlobs: 1}
	for i, name := range baseFileNames {
		name = genFileName(name, m.Generation)
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return badManifest("%v", err)
		}
		if st.Size()%unit[i] != 0 || st.Size()/unit[i] != want[i] {
			return badManifest("%s is %d bytes, the manifest gives %d units of %d", name, st.Size(), want[i], unit[i])
		}
	}
	return nil
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
	for _, name := range genFileNames() {
		keep[genFileName(name, gen)] = true
	}
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

// genFileNames are the names of one generation's files: the record
// files and the index.
func genFileNames() []string {
	return append(baseFileNames[:], indexFileName)
}

// isGenFile reports whether name is a base-generation file of some
// generation (plain or .gN-suffixed).
func isGenFile(name string) bool {
	for _, base := range genFileNames() {
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

// Flush commits what a store holds beyond its last commit: a pending
// bulk load is finalized, and a store whose index file does not describe
// the current generation (one Open had to rebuild by scanning, or a store
// that has never committed) commits it with the manifest. Anything else
// is already durable — generations by their commit, live writes through
// the WAL — so a store with nothing pending writes nothing: read-only
// workloads stay read-only on close. An index file names no symbol, so
// the names live writes intern leave it current.
func (s *Store) Flush() error {
	if s.load.Load() != nil {
		if err := s.Finalize(); err != nil {
			return err
		}
	}
	// flushMu serializes the commit with a background fold's: the fold
	// holds it across its manifest write and epoch swap, so the epoch
	// read below cannot see a generation the manifest no longer names.
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	if s.indexCurrent {
		return nil
	}
	return s.commit(s.curEp(), s.labels, s.types, s.keys, s.walFoldedSeq)
}

// commit is the one commit protocol, which Finalize and Flush end in:
// fsync ep's record files, write its index file, then
// atomically replace manifest.json with one naming ep's generation, the
// given symbol tables and WAL fence (writeFileAtomic — the rename is the
// commit point, and the directory sync after it makes the rename
// durable). A failure or crash before the rename leaves the previous
// manifest in charge; success makes the index current. The caller holds
// flushMu.
func (s *Store) commit(ep *epoch, labels, types, keys []string, walSeq uint64) error {
	for _, f := range ep.pager.files {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	if err := s.writeIndex(ep); err != nil {
		return err
	}
	data, err := json.Marshal(manifest{
		Version: formatVersion, Generation: ep.gen,
		Labels: labels, Types: types, Keys: keys,
		NumVertices: ep.numVertices, NumEdges: ep.numEdges, NumProps: ep.numProps,
		BlobSize: ep.blobSize, EdgeBytes: ep.edgeBytes, WalSeq: walSeq,
	})
	if err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(s.dir, "manifest.json"), data); err != nil {
		return err
	}
	s.indexCurrent = true
	return nil
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

// Close flushes and closes the underlying files. The delta segment is not
// folded — it stays durable through the WAL and is
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
func (s *Store) DropCache() error {
	s.curEp().pager.dropCache()
	return nil
}

// Stats returns the page cache counters, cumulative across generations:
// they only ever decrease at ResetStats.
func (s *Store) Stats() storage.Stats { return s.pagerStats.snapshot() }

// ResetStats zeroes the page cache counters.
func (s *Store) ResetStats() { s.pagerStats.reset() }

// ---- record codecs (per epoch: each generation has its own files) ----

// ErrCorrupt is returned (wrapped) for base bytes that fail the format's
// checks: a vertex record whose property run or adjacency block lies
// outside its file, a run or directory whose lengths do not add up, a
// blob reference past the end of blobs.db, a malformed value. Reads
// check every extent before they touch the pager. Test with errors.Is.
var ErrCorrupt = errors.New("diskstore: corrupt base record")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// vertexRec is one 64-byte vertex record (little-endian), less its
// labels, which encodeVertexRec and decodeVertexRec take apart:
//
//	bytes  0-15  label bitset, maxLabels bits
//	bytes 16-23  propStart: the property run's first record in props.db
//	bytes 24-27  propCount: the run's length, in records
//	bytes 28-31  nTypes: the adjacency block's directory entries
//	bytes 32-39  blockOff: the adjacency block's byte offset in edges.db
//	bytes 40-43  blockLen: its length in bytes, directory included
//	bytes 44-51  outDeg, inDeg: the untyped degrees
//	bytes 52-59  firstOutEID: the EID of the vertex's first out-edge
//	bytes 60-63  zero
type vertexRec struct {
	propStart   uint64
	propCount   uint32
	nTypes      uint32
	blockOff    uint64
	blockLen    uint32
	outDeg      uint32
	inDeg       uint32
	firstOutEID uint64
}

func decodeVertexRec(buf []byte) (vertexRec, [2]uint64) {
	_ = buf[vertexRecSize-1]
	return vertexRec{
		propStart:   binary.LittleEndian.Uint64(buf[16:]),
		propCount:   binary.LittleEndian.Uint32(buf[24:]),
		nTypes:      binary.LittleEndian.Uint32(buf[28:]),
		blockOff:    binary.LittleEndian.Uint64(buf[32:]),
		blockLen:    binary.LittleEndian.Uint32(buf[40:]),
		outDeg:      binary.LittleEndian.Uint32(buf[44:]),
		inDeg:       binary.LittleEndian.Uint32(buf[48:]),
		firstOutEID: binary.LittleEndian.Uint64(buf[52:]),
	}, [2]uint64{binary.LittleEndian.Uint64(buf[0:]), binary.LittleEndian.Uint64(buf[8:])}
}

func encodeVertexRec(r vertexRec, labels [2]uint64) (buf [vertexRecSize]byte) {
	binary.LittleEndian.PutUint64(buf[0:], labels[0])
	binary.LittleEndian.PutUint64(buf[8:], labels[1])
	binary.LittleEndian.PutUint64(buf[16:], r.propStart)
	binary.LittleEndian.PutUint32(buf[24:], r.propCount)
	binary.LittleEndian.PutUint32(buf[28:], r.nTypes)
	binary.LittleEndian.PutUint64(buf[32:], r.blockOff)
	binary.LittleEndian.PutUint32(buf[40:], r.blockLen)
	binary.LittleEndian.PutUint32(buf[44:], r.outDeg)
	binary.LittleEndian.PutUint32(buf[48:], r.inDeg)
	binary.LittleEndian.PutUint64(buf[52:], r.firstOutEID)
	return buf
}

// vertexEntry is one vertex's entry in an epoch's resident table (see
// epoch.vtab), 20 bytes: where its run, block and out-EIDs start, each a
// running sum in VID order that the next entry's value ends, and the two
// record fields that are no such sum.
type vertexEntry struct {
	propStart, blockOff, firstOutEID uint32
	inDeg, nTypes                    uint32
}

// checkTableSize refuses a generation whose running sums a vertexEntry's
// 32-bit fields cannot hold: props.db's records, edges.db's bytes and
// the edge count.
func checkTableSize(numProps, edgeBytes, numEdges int64) error {
	for _, c := range []struct {
		what string
		n    int64
	}{{"property records", numProps}, {"adjacency bytes", edgeBytes}, {"edges", numEdges}} {
		if uint64(c.n) > math.MaxUint32 {
			return fmt.Errorf("diskstore: %d %s exceed the vertex table's limit of %d", c.n, c.what, uint32(math.MaxUint32))
		}
	}
	return nil
}

// readVertex returns base vertex v's record (v < numVertices) from the
// resident table.
func (ep *epoch) readVertex(v storage.VID) vertexRec {
	e, next := &ep.vtab[v], &ep.vtab[v+1]
	return vertexRec{
		propStart: uint64(e.propStart), propCount: next.propStart - e.propStart,
		nTypes:   e.nTypes,
		blockOff: uint64(e.blockOff), blockLen: next.blockOff - e.blockOff,
		outDeg: next.firstOutEID - e.firstOutEID, inDeg: e.inDeg,
		firstOutEID: uint64(e.firstOutEID),
	}
}

// loadVertices fills the resident table, the label index and the label
// bitmaps from one sequential read of vertices.db, outside the pager. It
// checks what the table's running sums rest on: the runs and the blocks,
// in VID order, tile props.db and edges.db, each firstOutEID is the
// out-degrees before it, the in-degrees add up to the edges, and every
// label ID names one of numLabels. Anything else is ErrCorrupt.
func (ep *epoch) loadVertices(numLabels int) error {
	if err := checkTableSize(ep.numProps, ep.edgeBytes, ep.numEdges); err != nil {
		return err
	}
	n := ep.numVertices
	r := bufio.NewReaderSize(io.NewSectionReader(ep.pager.files[fileVertices], 0, n*vertexRecSize), 64<<10)
	vtab := make([]vertexEntry, n+1)
	byLabel := map[int][]storage.VID{}
	var buf [vertexRecSize]byte
	var props, off, eids, ins uint64
	for v := range n {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return corruptf("vertices.db: vertex %d of %d: %v", v, n, err)
		}
		rec, labels := decodeVertexRec(buf[:])
		if rec.propStart != props || rec.blockOff != off || rec.firstOutEID != eids {
			return corruptf("vertex %d: run at record %d, block at byte %d, first out-EID %d; the vertices before it end at %d, %d and %d",
				v, rec.propStart, rec.blockOff, rec.firstOutEID, props, off, eids)
		}
		vtab[v] = vertexEntry{propStart: uint32(props), blockOff: uint32(off), firstOutEID: uint32(eids), inDeg: rec.inDeg, nTypes: rec.nTypes}
		props += uint64(rec.propCount)
		off += uint64(rec.blockLen)
		eids += uint64(rec.outDeg)
		ins += uint64(rec.inDeg)
		if props > uint64(ep.numProps) || off > uint64(ep.edgeBytes) || eids > uint64(ep.numEdges) || ins > uint64(ep.numEdges) {
			return corruptf("vertex %d: its run, block or edges end past props.db (%d records), edges.db (%d bytes) or the %d edges",
				v, ep.numProps, ep.edgeBytes, ep.numEdges)
		}
		for _, id := range labelBitsToIDs(labels) {
			if id >= numLabels {
				return corruptf("vertex %d carries label %d of %d", v, id, numLabels)
			}
			byLabel[id] = append(byLabel[id], storage.VID(v))
		}
	}
	if props != uint64(ep.numProps) || off != uint64(ep.edgeBytes) || eids != uint64(ep.numEdges) || ins != uint64(ep.numEdges) {
		return corruptf("the vertices' runs, blocks, out- and in-edges end at %d, %d, %d and %d; props.db holds %d records, edges.db %d bytes, the manifest %d edges",
			props, off, eids, ins, ep.numProps, ep.edgeBytes, ep.numEdges)
	}
	vtab[n] = vertexEntry{propStart: uint32(props), blockOff: uint32(off), firstOutEID: uint32(eids)}
	ep.vtab, ep.byLabel = vtab, byLabel
	ep.setLabelBits()
	return nil
}

// scanIndex rebuilds the value postings and the statistics from a scan of
// every vertex's properties and type directory, for an Open that found no
// loadable index file. numTypes and numKeys are the sizes of the name
// tables: a vertex naming an ID past one, or directories that do not add
// up to the manifest's edge count, are corrupt.
func (ep *epoch) scanIndex(numTypes, numKeys int) error {
	var b propindex.Builder
	var run []keyVal
	var runBuf, blobBuf []byte
	var labels []int
	typeCounts := make([]int64, numTypes)
	for v := int64(0); v < ep.numVertices; v++ {
		rec, r, err := ep.sourceVertex(storage.VID(v), run[:0], &runBuf, &blobBuf)
		if err != nil {
			return err
		}
		run = r
		if err := ep.addTypeCounts(rec, typeCounts, &runBuf); err != nil {
			return fmt.Errorf("vertex %d: %w", v, err)
		}
		for _, kv := range run {
			if int(kv.keyID) >= numKeys {
				return corruptf("vertex %d carries key %d of %d", v, kv.keyID, numKeys)
			}
		}
		labels = ep.labelIDs(storage.VID(v), labels[:0])
		for _, id := range labels {
			for _, kv := range run {
				b.Add(int32(id), int32(kv.keyID), storage.VID(v), kv.val)
			}
		}
	}
	var edges int64
	for _, n := range typeCounts {
		edges += n
	}
	if edges != ep.numEdges {
		return corruptf("the vertices' type directories hold %d edges, the manifest %d", edges, ep.numEdges)
	}
	ep.values = b.Finish()
	ep.typeCounts, ep.statsValid = typeCounts, true
	return nil
}

// addTypeCounts adds base vertex rec's out-degree in each type, read from
// its directory alone, to counts. sc is scratch.
func (ep *epoch) addTypeCounts(rec vertexRec, counts []int64, sc *[]byte) error {
	if rec.nTypes == 0 {
		return nil
	}
	dir, err := ep.readBlock(rec, sc, true)
	if err != nil {
		return err
	}
	var typeErr error
	err = walkDir(rec, dir, func(d dirEntry, _, _, _ uint64) bool {
		if int(d.typeID) >= len(counts) {
			typeErr = corruptf("directory names edge type %d of %d", d.typeID, len(counts))
			return false
		}
		counts[d.typeID] += int64(d.outDeg)
		return true
	})
	if err != nil {
		return err
	}
	return typeErr
}

// baseProp returns base vertex v's value of key as the generation's files
// hold it, without the delta's overrides: the value its postings index.
func (ep *epoch) baseProp(v storage.VID, key storage.SymbolID) (graph.Value, bool) {
	val, ok, err := ep.prop(ep.readVertex(v), uint32(key))
	return val, ok && err == nil
}

// propRec is one 16-byte record of a property run (little-endian): the
// key ID in bytes 0-2, the value's kind in byte 3, then the value — a
// scalar's bits in a (bytes 4-11), or a string's or list's blob offset in
// a and its length in b (bytes 12-15).
type propRec struct {
	keyID uint32
	kind  graph.Kind
	a     uint64
	b     uint32
}

func decodePropRec(buf []byte) propRec {
	_ = buf[propRecSize-1]
	return propRec{
		keyID: runKey(buf, 0),
		kind:  graph.Kind(buf[3]),
		a:     binary.LittleEndian.Uint64(buf[4:]),
		b:     binary.LittleEndian.Uint32(buf[12:]),
	}
}

func (r propRec) encode() (buf [propRecSize]byte) {
	buf[0], buf[1], buf[2] = byte(r.keyID), byte(r.keyID>>8), byte(r.keyID>>16)
	buf[3] = byte(r.kind)
	binary.LittleEndian.PutUint64(buf[4:], r.a)
	binary.LittleEndian.PutUint32(buf[12:], r.b)
	return buf
}

// dirEntry is one 20-byte entry of an adjacency block's type directory
// (little-endian uint32s): the edge type, the vertex's out- and in-degree
// in it, and the byte lengths of its out and in segments. The segments
// follow the directory in its order, each type's out segment before its
// in segment, so an offset is the directory's size plus the lengths
// before it.
type dirEntry struct {
	typeID        uint32
	outDeg, inDeg uint32
	outLen, inLen uint32
}

func decodeDirEntry(buf []byte) dirEntry {
	_ = buf[dirEntrySize-1]
	return dirEntry{
		typeID: binary.LittleEndian.Uint32(buf[0:]),
		outDeg: binary.LittleEndian.Uint32(buf[4:]),
		inDeg:  binary.LittleEndian.Uint32(buf[8:]),
		outLen: binary.LittleEndian.Uint32(buf[12:]),
		inLen:  binary.LittleEndian.Uint32(buf[16:]),
	}
}

func (d dirEntry) appendTo(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, d.typeID)
	buf = binary.LittleEndian.AppendUint32(buf, d.outDeg)
	buf = binary.LittleEndian.AppendUint32(buf, d.inDeg)
	buf = binary.LittleEndian.AppendUint32(buf, d.outLen)
	return binary.LittleEndian.AppendUint32(buf, d.inLen)
}

// readBlob reads n bytes at off into the scratch buffer sc, both straight
// from a prop record and so checked against the blob file's extent
// before anything is read.
func (ep *epoch) readBlob(off, n uint64, sc *[]byte) ([]byte, error) {
	if off > uint64(ep.blobSize) || n > uint64(ep.blobSize)-off {
		return nil, corruptf("blob [%d,+%d) outside blobs.db (%d bytes)", off, n, ep.blobSize)
	}
	buf := takeScratch(sc, int(n))
	if err := ep.pager.read(fileBlobs, int64(off), buf); err != nil {
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

// encodeValue returns the property record of key keyID with value v. A
// string or list lives in blobs.db: its bytes come back as blob, the
// record's b is their length, and the caller sets a to the offset it
// stores them at.
func encodeValue(keyID int, v graph.Value) (pr propRec, blob []byte, err error) {
	if keyID < 0 || keyID > maxKeyID {
		return pr, nil, fmt.Errorf("diskstore: property key ID %d exceeds the record's 24-bit field", keyID)
	}
	pr = propRec{keyID: uint32(keyID), kind: v.Kind()}
	switch v.Kind() {
	case graph.KindNull:
	case graph.KindInt:
		pr.a = uint64(v.Int())
	case graph.KindFloat:
		pr.a = graph.FloatBits(v.Float())
	case graph.KindBool:
		if v.Bool() {
			pr.a = 1
		}
	case graph.KindString:
		blob = []byte(v.Str())
	case graph.KindList:
		if blob, err = encodeList(v.List()); err != nil {
			return pr, nil, err
		}
	default:
		return pr, nil, fmt.Errorf("diskstore: unsupported value kind %v", v.Kind())
	}
	if uint64(len(blob)) > math.MaxUint32 {
		return pr, nil, fmt.Errorf("diskstore: %d-byte value exceeds the record's 32-bit length", len(blob))
	}
	pr.b = uint32(len(blob))
	return pr, blob, nil
}

// decodeValue decodes a property record's value, reading a blob through
// the scratch buffer sc: a string costs one allocation, the string's.
func (ep *epoch) decodeValue(r propRec, sc *[]byte) (graph.Value, error) {
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
		data, err := ep.readBlob(r.a, uint64(r.b), sc)
		if err != nil {
			return graph.Null, err
		}
		return graph.S(string(data)), nil
	case graph.KindList:
		data, err := ep.readBlob(r.a, uint64(r.b), sc)
		if err != nil {
			return graph.Null, err
		}
		return decodeList(data)
	default:
		return graph.Null, corruptf("unsupported stored kind %v", r.kind)
	}
}

// appendValue appends v in the one value encoding the WAL and list blobs
// share: a kind byte, then a u64 (INT, DOUBLE bits), a u8 (BOOLEAN, 1 for
// true), or a u32 length and that many bytes (STRING, and a LIST's
// encodeList blob). elem marks a list element, which may not be a list:
// the schema optimizer only replicates scalar properties.
func appendValue(dst []byte, v graph.Value, elem bool) ([]byte, error) {
	dst = append(dst, byte(v.Kind()))
	switch v.Kind() {
	case graph.KindNull:
	case graph.KindInt:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.Int()))
	case graph.KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, graph.FloatBits(v.Float()))
	case graph.KindBool:
		b := byte(0)
		if v.Bool() {
			b = 1
		}
		dst = append(dst, b)
	case graph.KindString:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.Str())))
		dst = append(dst, v.Str()...)
	case graph.KindList:
		if elem {
			return nil, fmt.Errorf("diskstore: cannot store nested %v in list", v.Kind())
		}
		blob, err := encodeList(v.List())
		if err != nil {
			return nil, err
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(blob)))
		dst = append(dst, blob...)
	default:
		return nil, fmt.Errorf("diskstore: unsupported value kind %v", v.Kind())
	}
	return dst, nil
}

// readValue reads one value appendValue wrote. It reports false on a short
// read, an unknown kind, a corrupt list blob, or a list where elem forbids
// one.
func readValue(r *idxReader, elem bool) (graph.Value, bool) {
	switch graph.Kind(r.u8()) {
	case graph.KindNull:
		return graph.Null, r.ok
	case graph.KindInt:
		return graph.I(int64(r.u64())), r.ok
	case graph.KindFloat:
		return graph.FBits(r.u64()), r.ok
	case graph.KindBool:
		return graph.B(r.u8() == 1), r.ok
	case graph.KindString:
		return graph.S(r.str()), r.ok
	case graph.KindList:
		if elem {
			return graph.Null, false
		}
		data := r.take(int(r.u32()))
		if !r.ok {
			return graph.Null, false
		}
		v, err := decodeList(data)
		return v, err == nil
	default:
		return graph.Null, false
	}
}

// encodeList serializes a list of scalar values: a u32 count, then each
// element as appendValue writes it.
func encodeList(vs []graph.Value) ([]byte, error) {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(vs)))
	for _, v := range vs {
		var err error
		if out, err = appendValue(out, v, true); err != nil {
			return nil, err
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
		return graph.Null, corruptf("list blob counts %d elements in %d bytes", count, len(data))
	}
	vs := make([]graph.Value, 0, count)
	for i := uint32(0); i < count; i++ {
		v, ok := readValue(&r, true)
		if !ok {
			return graph.Null, corruptf("list blob element %d is truncated or not a scalar", i)
		}
		vs = append(vs, v)
	}
	return graph.L(vs...), nil
}

// labelID resolves a label, interning it if create is set; a caller
// that may intern holds symMu.
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
