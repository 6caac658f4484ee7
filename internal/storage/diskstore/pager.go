package diskstore

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// fileID distinguishes the record files sharing one page cache.
type fileID uint8

const (
	fileVertices fileID = iota
	fileEdges
	fileProps
	fileBlobs
	fileDegrees
	numFiles
)

type pageKey struct {
	file fileID
	page int64
}

// page is one cached page frame.
//
// Three independent mechanisms coordinate access to a frame:
//
//   - the latch (mu) guards the frame contents (data, dirty, loadErr). A
//     loader holds the write latch across its disk read, so concurrent
//     readers that found the frame in the table simply block on RLock
//     until the bytes are in — page loads are de-duplicated for free —
//     and then find loadErr final under that same acquisition.
//   - the pin count (ref) keeps the frame resident: the clock sweep never
//     evicts a pinned frame, so a reader can copy from the frame after
//     releasing the shard lock. Pins are held only for the duration of one
//     copy, never across I/O on another frame — which is also what makes
//     recycling safe: an unpinned frame the sweep has taken out of the
//     table has no reader left, so its data buffer goes straight to the
//     next tenant (see evictLocked).
//   - used is the clock-sweep reference bit, set on a hit that finds it
//     clear and cleared (one second chance) as the hand passes.
type page struct {
	key     pageKey
	mu      sync.RWMutex
	data    []byte
	dirty   bool
	loadErr error
	ref     atomic.Int32
	used    atomic.Bool
}

func (pg *page) unpin() { pg.ref.Add(-1) }

// shard is one independently locked slice of the page cache: its own
// table, its own clock ring, its own hand. A page load or eviction in one
// shard never blocks lookups in any other shard.
type shard struct {
	mu    sync.Mutex
	table map[pageKey]*page
	clock []*page // resident frames, swept circularly by hand
	hand  int
}

// pagerStats are the I/O counters, kept as atomics so the read hot path
// bumps them without holding any lock and Stats() snapshots never contend
// with the data path. One block belongs to a Store and is shared by every
// pager serving its reads, so the counters run on across generations and
// a read through a superseded-but-pinned epoch still counts.
type pagerStats struct {
	hits, misses, reads, writes atomic.Int64
}

// snapshot reads the I/O counters.
func (st *pagerStats) snapshot() storage.Stats {
	return storage.Stats{
		PageHits:   st.hits.Load(),
		PageMisses: st.misses.Load(),
		PageReads:  st.reads.Load(),
		PageWrites: st.writes.Load(),
	}
}

// reset zeroes the I/O counters.
func (st *pagerStats) reset() {
	st.hits.Store(0)
	st.misses.Store(0)
	st.reads.Store(0)
	st.writes.Store(0)
}

// pager is a write-back page cache over the store's record files. All
// record reads and writes go through it, so the cache size directly
// controls how disk-bound traversals are — the knob that makes this
// backend behave like the paper's Neo4j.
//
// The cache is sharded by hash of (file, page): each shard owns a fraction
// of the page budget behind its own mutex and evicts with a clock sweep
// (second-chance) instead of a linked LRU list. Within a shard, the shard
// lock covers table lookup, pinning, victim selection, and dirty-victim
// write-back; the disk read that fills a missing frame happens outside it
// under the frame's own latch, so a page load (the read path's only I/O —
// frames are clean while serving) stalls at most same-page requests, and
// a dirty write-back stalls at most its own shard. Concurrent readers
// therefore serialize only when they touch the
// same shard at the same instant, and a cold miss in one shard never
// stalls hits in the others — this is what lets N goroutines traverse a
// disk-bound graph faster than one.
//
// Frames are recycled: a miss in a shard at budget takes its buffer from
// the frame the sweep just evicted, so a cache-starved read loop runs
// without allocating page buffers. A fresh buffer is allocated only while
// the shard is below budget or when every frame in it is pinned. What a
// fresh buffer gave for free is explicit in fetch: every byte of a frame
// that the file does not define reads as zero, never as the previous
// tenant's data.
//
// Writes follow the storage.Builder contract: building is single-writer,
// so flush and dropCache assume no concurrent mutators (concurrent readers
// are fine at any time).
type pager struct {
	files      [numFiles]*os.File
	sizes      [numFiles]atomic.Int64 // logical file sizes in bytes
	pageSize   int
	capacity   int // total page budget, split across shards
	shardCap   int // page budget per shard
	shardShift uint
	shards     []shard

	// Optional read-only mmap fast path (Options.Mmap). A non-nil entry
	// serves in-range reads of that file straight from the kernel's page
	// cache, bypassing the clock sweep entirely; the pager keeps ownership
	// of every write path, and the first write to a mapped file
	// atomically drops its mapping, falling back to the page cache.
	// Dropped mappings are retired, not unmapped: a concurrent reader may
	// still be copying from the old bytes, so the memory stays valid until
	// closeMaps (file close), when no readers remain.
	maps    [numFiles]atomic.Pointer[mmapRegion]
	mapMu   sync.Mutex
	retired []*mmapRegion

	stats *pagerStats // the owning Store's block, shared across its epochs
}

// mmapRegion is one live read-only file mapping.
type mmapRegion struct {
	data []byte
}

// pagerShards picks the shard count for a page budget: up to 16 shards,
// halved until each shard keeps at least minShardPages pages, so tiny
// test-sized caches degenerate to a single shard instead of sharding away
// all their capacity.
const (
	maxPagerShards = 16
	minShardPages  = 4
)

func pagerShards(capacity int) int {
	n := maxPagerShards
	for n > 1 && capacity/n < minShardPages {
		n >>= 1
	}
	return n
}

func newPager(files [numFiles]*os.File, pageSize, capacity int, stats *pagerStats) (*pager, error) {
	if pageSize <= 0 || capacity <= 0 {
		return nil, fmt.Errorf("diskstore: invalid pager config pageSize=%d capacity=%d", pageSize, capacity)
	}
	n := pagerShards(capacity)
	shift := uint(64)
	for s := n; s > 1; s >>= 1 {
		shift--
	}
	p := &pager{
		pageSize: pageSize,
		capacity: capacity,
		// Floor, so the shards together never exceed the configured
		// budget; up to n-1 pages of a non-divisible budget go unused.
		shardCap:   max(1, capacity/n),
		shardShift: shift,
		shards:     make([]shard, n),
		files:      files,
		stats:      stats,
	}
	for i := range p.shards {
		p.shards[i].table = map[pageKey]*page{}
	}
	for i, f := range files {
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		p.sizes[i].Store(st.Size())
	}
	return p, nil
}

// shardOf maps a page key to its shard by Fibonacci hashing; the shard
// count is a power of two, so the top bits of the product index directly.
func (p *pager) shardOf(key pageKey) *shard {
	h := (uint64(key.page)<<3 ^ uint64(key.file)) * 0x9E3779B97F4A7C15
	return &p.shards[h>>p.shardShift]
}

// fetch returns the frame for key, pinned and unlatched. The caller takes
// the frame's latch (RLock to copy out, Lock to modify), checks loadErr
// under it — on a hit the frame may still be loading, or its load may have
// failed — and unpins when done. A miss loads the page before returning
// and reports a failed load itself.
func (p *pager) fetch(key pageKey) (*page, error) {
	sh := p.shardOf(key)
	sh.mu.Lock()
	if pg, ok := sh.table[key]; ok {
		pg.ref.Add(1) // pin under the shard lock so the sweep cannot free it
		sh.mu.Unlock()
		// Hot frames are hit from every core; leave their cache line
		// shared unless the bit actually changes.
		if !pg.used.Load() {
			pg.used.Store(true)
		}
		p.stats.hits.Add(1)
		return pg, nil
	}
	p.stats.misses.Add(1)
	buf, err := p.evictLocked(sh)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	if buf == nil {
		buf = make([]byte, p.pageSize)
	}
	pg := &page{key: key, data: buf}
	pg.ref.Add(1)
	pg.used.Store(true)
	pg.mu.Lock() // held across the load; see page docs
	sh.table[key] = pg
	sh.clock = append(sh.clock, pg)
	sh.mu.Unlock()

	// The disk read happens outside the shard lock: only goroutines
	// needing this same page wait (on the latch); the rest of the shard
	// stays available. The buffer may be a recycled one, so everything the
	// file does not define — the tail after a short read, or the whole of
	// a page at or past the logical size — is cleared here.
	n := 0
	if off := key.page * int64(p.pageSize); off < p.sizes[key.file].Load() {
		n, err = p.files[key.file].ReadAt(pg.data, off)
		if err != nil && err != io.EOF {
			pg.loadErr = fmt.Errorf("diskstore: read page %v: %w", key, err)
		} else {
			p.stats.reads.Add(1)
		}
	}
	if pg.loadErr != nil {
		err := pg.loadErr
		pg.mu.Unlock()
		// Drop the failed frame so a later fetch retries the read. Hits
		// that pinned it meanwhile see loadErr under their latch; its
		// buffer is not recycled.
		sh.mu.Lock()
		if cur, ok := sh.table[key]; ok && cur == pg {
			delete(sh.table, key)
			sh.removeFromClock(pg)
		}
		sh.mu.Unlock()
		pg.unpin()
		return nil, err
	}
	clear(pg.data[n:])
	pg.mu.Unlock()
	return pg, nil
}

// evictLocked makes room for one more frame in the shard, writing dirty
// victims back, and returns a victim's data buffer for the caller to
// reuse (nil if nothing was evicted). Caller holds sh.mu. A victim is
// unpinned and, once out of the table, unreachable: pins are taken only
// under sh.mu and held only across one copy, so no reader can still be
// looking at its bytes. Pinned frames are skipped; if every frame is
// pinned the shard temporarily overflows its budget rather than
// deadlocking.
func (p *pager) evictLocked(sh *shard) ([]byte, error) {
	var buf []byte
	attempts := 0
	for len(sh.clock) >= p.shardCap && attempts < 2*len(sh.clock)+1 {
		if sh.hand >= len(sh.clock) {
			sh.hand = 0
		}
		pg := sh.clock[sh.hand]
		attempts++
		if pg.ref.Load() > 0 {
			sh.hand++
			continue
		}
		if pg.used.Swap(false) {
			sh.hand++ // second chance
			continue
		}
		if err := p.writePage(pg); err != nil {
			return nil, err
		}
		delete(sh.table, pg.key)
		sh.removeAt(sh.hand)
		buf = pg.data
	}
	return buf, nil
}

// removeAt swap-removes the ring entry at index i. Caller holds sh.mu.
func (sh *shard) removeAt(i int) {
	last := len(sh.clock) - 1
	sh.clock[i] = sh.clock[last]
	sh.clock[last] = nil
	sh.clock = sh.clock[:last]
}

// removeFromClock drops pg from the ring. Caller holds sh.mu.
func (sh *shard) removeFromClock(pg *page) {
	for i, cur := range sh.clock {
		if cur == pg {
			sh.removeAt(i)
			return
		}
	}
}

// writePage writes the frame back to its file if dirty. It takes the
// frame latch itself; safe to call with only sh.mu held (lock order is
// always shard → page).
func (p *pager) writePage(pg *page) error {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if !pg.dirty {
		return nil
	}
	off := pg.key.page * int64(p.pageSize)
	if _, err := p.files[pg.key.file].WriteAt(pg.data, off); err != nil {
		return fmt.Errorf("diskstore: write page %v: %w", pg.key, err)
	}
	p.grow(pg.key.file, off+int64(p.pageSize))
	pg.dirty = false
	p.stats.writes.Add(1)
	return nil
}

// grow raises the logical size of the file to at least end.
func (p *pager) grow(f fileID, end int64) {
	for {
		cur := p.sizes[f].Load()
		if end <= cur || p.sizes[f].CompareAndSwap(cur, end) {
			return
		}
	}
}

// enableMmap maps the given files read-only, if the platform supports it
// and the file is non-empty. Failure to map (unsupported platform, empty
// file, kernel refusal) is not an error — the pager simply keeps serving
// that file through the page cache.
func (p *pager) enableMmap(files ...fileID) {
	for _, f := range files {
		size := p.sizes[f].Load()
		if size <= 0 {
			continue
		}
		data, err := mmapFile(p.files[f], size)
		if err != nil {
			continue
		}
		p.maps[f].Store(&mmapRegion{data: data})
	}
}

// dropMap retires the file's mapping (if any) so subsequent reads go
// through the page cache. Called on the first write to a mapped file.
func (p *pager) dropMap(f fileID) {
	if m := p.maps[f].Swap(nil); m != nil {
		p.mapMu.Lock()
		p.retired = append(p.retired, m)
		p.mapMu.Unlock()
	}
}

// closeMaps unmaps every live and retired mapping. Callers must ensure no
// reads are in flight (same contract as closing the files).
func (p *pager) closeMaps() {
	p.mapMu.Lock()
	retired := p.retired
	p.retired = nil
	p.mapMu.Unlock()
	for _, m := range retired {
		munmapRegion(m.data)
	}
	for f := range p.maps {
		if m := p.maps[f].Swap(nil); m != nil {
			munmapRegion(m.data)
		}
	}
}

// read copies n bytes at off in the file into buf. Reads may span pages
// (needed for blob data); record reads never do because record sizes
// divide the page size.
func (p *pager) read(f fileID, off int64, buf []byte) error {
	if m := p.maps[f].Load(); m != nil && off >= 0 && off+int64(len(buf)) <= int64(len(m.data)) {
		copy(buf, m.data[off:])
		p.stats.hits.Add(1)
		return nil
	}
	for len(buf) > 0 {
		pageNo := off / int64(p.pageSize)
		within := int(off % int64(p.pageSize))
		pg, err := p.fetch(pageKey{f, pageNo})
		if err != nil {
			return err
		}
		pg.mu.RLock()
		err = pg.loadErr
		n := 0
		if err == nil {
			n = copy(buf, pg.data[within:])
		}
		pg.mu.RUnlock()
		pg.unpin()
		if err != nil {
			return err
		}
		buf = buf[n:]
		off += int64(n)
	}
	return nil
}

// write copies buf to off in the file, through the cache (write-back).
// Writing to an mmapped file drops its mapping first: the mapping is a
// read-only snapshot and must not alias pages the cache now owns.
func (p *pager) write(f fileID, off int64, buf []byte) error {
	p.dropMap(f)
	for len(buf) > 0 {
		pageNo := off / int64(p.pageSize)
		within := int(off % int64(p.pageSize))
		pg, err := p.fetch(pageKey{f, pageNo})
		if err != nil {
			return err
		}
		pg.mu.Lock()
		err = pg.loadErr
		n := 0
		if err == nil {
			n = copy(pg.data[within:], buf)
			pg.dirty = true
		}
		pg.mu.Unlock()
		pg.unpin()
		if err != nil {
			return err
		}
		buf = buf[n:]
		off += int64(n)
	}
	return nil
}

// flush writes all dirty pages back to their files.
func (p *pager) flush() error {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, pg := range sh.clock {
			if err := p.writePage(pg); err != nil {
				sh.mu.Unlock()
				return err
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// dropCache empties the cache (flushing dirty pages first), simulating a
// cold start without reopening the files. Like flush, it relies on the
// single-writer build contract: concurrent readers are fine (frames they
// hold pinned stay readable, merely orphaned), concurrent writers are not.
func (p *pager) dropCache() error {
	if err := p.flush(); err != nil {
		return err
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		sh.table = map[pageKey]*page{}
		sh.clock = nil
		sh.hand = 0
		sh.mu.Unlock()
	}
	return nil
}

// resident counts the frames currently cached across all shards.
func (p *pager) resident() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n += len(sh.clock)
		sh.mu.Unlock()
	}
	return n
}
