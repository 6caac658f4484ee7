package diskstore

import (
	"fmt"
	"io"
	"math"
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
	numFiles
)

type pageKey struct {
	file fileID
	page int64
}

// page is one cached page frame. A frame header belongs to one page for
// its whole life: eviction never re-keys a header, it moves the data
// buffer into a fresh one (see evictLocked).
//
// Four mechanisms coordinate access to a frame:
//
//   - the frame table (pager.frames) publishes it to the hit path. Its
//     slot is set only after a successful load and cleared when the frame
//     leaves the shard table, so a frame found there holds its page's
//     bytes and a final nil loadErr.
//   - the pin count (ref) keeps the frame resident. A pin is a CAS that
//     succeeds only while ref >= 0; the clock sweep claims an unpinned
//     victim by swapping ref from 0 to evictedRef, after which no pin can
//     ever succeed. A reader that loaded the pointer from its slot just
//     before the sweep claimed it therefore fails its pin and retries
//     through the shard, and a pinned frame is never recycled. Pins are
//     held for the duration of one copy, never across I/O on another
//     frame.
//   - the latch (mu) waits out a load. A loader holds the write latch
//     across its disk read, so a request that found the loading frame in
//     the shard table blocks on RLock until the bytes are in — page loads
//     are de-duplicated for free — and then finds loadErr final. A frame
//     never changes after its load, so a hit copies without the latch.
//   - used is the clock-sweep reference bit, set on a hit that finds it
//     clear and cleared (one second chance) as the hand passes.
type page struct {
	key     pageKey
	mu      sync.RWMutex
	data    []byte
	loadErr error
	ref     atomic.Int32
	used    atomic.Bool
}

// evictedRef is the pin count of a frame the clock sweep has claimed:
// negative, so every later pin attempt on the stale header fails.
const evictedRef = math.MinInt32

// pin takes a pin unless the sweep has claimed the frame.
func (pg *page) pin() bool {
	for {
		r := pg.ref.Load()
		if r < 0 {
			return false
		}
		if pg.ref.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

func (pg *page) unpin() { pg.ref.Add(-1) }

// shard is one independently locked slice of the page cache: its own
// table, its own clock ring, its own hand. A page load or eviction in one
// shard never blocks lookups in any other shard, and a hit through the
// frame table takes no shard lock at all.
type shard struct {
	mu    sync.Mutex
	table map[pageKey]*page // every frame of the shard, loading ones included
	clock []*page           // resident frames, swept circularly by hand
	hand  int
}

// hitStripe is one shard's hit counter, alone on its cache line so hits
// in different shards never write the same line.
type hitStripe struct {
	n atomic.Int64
	_ [56]byte
}

// pagerStats are the I/O counters, kept as atomics so the read hot path
// bumps them without holding any lock and Stats() snapshots never contend
// with the data path. Hits, the one counter every cached read bumps, are
// striped by shard and summed on read. One block belongs to a Store and
// is shared by every pager serving its reads, so the counters run on
// across generations and a read through a superseded-but-pinned epoch
// still counts.
type pagerStats struct {
	hits          [maxPagerShards]hitStripe
	misses, reads atomic.Int64
}

// snapshot reads the I/O counters.
func (st *pagerStats) snapshot() storage.Stats {
	var hits int64
	for i := range st.hits {
		hits += st.hits[i].n.Load()
	}
	return storage.Stats{
		PageHits:   hits,
		PageMisses: st.misses.Load(),
		PageReads:  st.reads.Load(),
	}
}

// reset zeroes the I/O counters.
func (st *pagerStats) reset() {
	for i := range st.hits {
		st.hits[i].n.Store(0)
	}
	st.misses.Store(0)
	st.reads.Store(0)
}

// pager is a read-only page cache over one generation's record files.
// Every read of a property run, an adjacency block or a blob goes through
// it, so the cache size directly controls how disk-bound traversals are —
// the knob that makes this backend behave like the paper's Neo4j. The
// vertex records are not among them: the epoch holds them resident (see
// epoch.vtab), read from vertices.db once, outside the cache. Nothing
// writes through it: a generation's files are written once, by
// writeGeneration, before a pager opens them, and live writes go to the
// delta.
//
// A hit is one atomic load from the frame table, one CAS pin and a copy:
// each file has a dense table of frame pointers indexed by page number,
// sized when the pager opens. The shard lock and the shard's map are
// taken only on a miss (or a page past the table, which only a read past
// the file's end asks for) and for eviction.
//
// The cache is sharded by hash of (file, page): each shard owns a fraction
// of the page budget behind its own mutex and evicts with a clock sweep
// (second-chance) instead of a linked LRU list. Within a shard, the shard
// lock covers map lookup and victim selection; the disk read that fills a
// missing frame happens outside it under the frame's own latch, so a page
// load stalls at most same-page requests. A cold miss in one shard never
// stalls hits anywhere — this is what lets N goroutines traverse a
// disk-bound graph faster than one.
//
// Frames are recycled: a miss in a shard at budget takes its buffer from
// the frame the sweep just evicted, so a cache-starved read loop runs
// without allocating page buffers. A fresh buffer is allocated only while
// the shard is below budget or when every frame in it is pinned. What a
// fresh buffer gave for free is explicit in fetch: every byte of a frame
// that the file does not define reads as zero, never as the previous
// tenant's data.
type pager struct {
	files      [numFiles]*os.File
	sizes      [numFiles]int64 // file sizes in bytes, fixed at open
	pageSize   int
	capacity   int // total page budget, split across shards
	shardCap   int // page budget per shard
	shardShift uint
	shards     []shard

	// frames is the hit path's table: per file, one slot per page the
	// file holds. A slot holds the page's loaded frame or nil.
	frames [numFiles][]atomic.Pointer[page]

	stats *pagerStats // the owning Store's block, shared across its epochs
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
		p.sizes[i] = st.Size()
		p.frames[i] = make([]atomic.Pointer[page], (st.Size()+int64(pageSize)-1)/int64(pageSize))
	}
	return p, nil
}

// shardIndex maps a page key to its shard by Fibonacci hashing; the shard
// count is a power of two, so the top bits of the product index directly.
func (p *pager) shardIndex(key pageKey) uint64 {
	return (uint64(key.page)<<3 ^ uint64(key.file)) * 0x9E3779B97F4A7C15 >> p.shardShift
}

func (p *pager) shardOf(key pageKey) *shard { return &p.shards[p.shardIndex(key)] }

// slot returns key's frame-table slot, or nil for a page past the table.
func (p *pager) slot(key pageKey) *atomic.Pointer[page] {
	if t := p.frames[key.file]; uint64(key.page) < uint64(len(t)) {
		return &t[key.page]
	}
	return nil
}

// hit records a cache hit on a pinned frame of shard i.
func (p *pager) hit(pg *page, i uint64) {
	// Hot frames are hit from every core; leave their cache line shared
	// unless the bit actually changes.
	if !pg.used.Load() {
		pg.used.Store(true)
	}
	p.stats.hits[i].n.Add(1)
}

// fetch returns the frame for key, pinned and loaded. A miss loads the
// page before returning and reports a failed load itself; a request that
// found the frame in the shard table while it was still loading waits out
// the load and reports its loadErr. Either way the caller copies without
// the latch, and unpins when done.
func (p *pager) fetch(key pageKey) (*page, error) {
	i := p.shardIndex(key)
	if sl := p.slot(key); sl != nil {
		if pg := sl.Load(); pg != nil && pg.pin() {
			p.hit(pg, i)
			return pg, nil
		}
	}

	sh := &p.shards[i]
	sh.mu.Lock()
	if pg, ok := sh.table[key]; ok {
		// Under sh.mu no frame in the table is claimed by the sweep (it
		// claims and removes under this same lock), so this pin holds.
		pg.ref.Add(1)
		sh.mu.Unlock()
		p.hit(pg, i)
		// The frame may still be loading: wait out the loader's latch.
		pg.mu.RLock()
		err := pg.loadErr
		pg.mu.RUnlock()
		if err != nil {
			pg.unpin()
			return nil, err
		}
		return pg, nil
	}
	p.stats.misses.Add(1)
	buf := p.evictLocked(sh)
	if buf == nil {
		buf = make([]byte, p.pageSize)
	}
	pg := &page{key: key, data: buf}
	pg.ref.Store(1)
	pg.used.Store(true)
	pg.mu.Lock() // held across the load; see page docs
	sh.table[key] = pg
	sh.clock = append(sh.clock, pg)
	sh.mu.Unlock()

	// The disk read happens outside the shard lock: only goroutines
	// needing this same page wait (on the latch); the rest of the shard
	// stays available. The buffer may be a recycled one, so everything the
	// file does not define — the tail after a short read, or the whole of
	// a page at or past the file's end — is cleared here.
	n := 0
	if off := key.page * int64(p.pageSize); off < p.sizes[key.file] {
		var err error
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
		// Drop the failed frame so a later fetch retries the read. It was
		// never published to the frame table; requests that found it in
		// the shard table meanwhile see loadErr once the latch is free.
		// Its buffer is not recycled.
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
	// Publish the loaded frame to the hit path. Under sh.mu, so a
	// dropCache that orphaned the frame during the load is not undone.
	if sl := p.slot(key); sl != nil {
		sh.mu.Lock()
		if sh.table[key] == pg {
			sl.Store(pg)
		}
		sh.mu.Unlock()
	}
	return pg, nil
}

// evictLocked makes room for one more frame in the shard and returns a
// victim's data buffer for the caller to reuse (nil if nothing was
// evicted). Caller holds sh.mu. A victim is claimed with
// ref.CompareAndSwap(0, evictedRef), which fails if a hit pinned it since
// the check; once claimed no pin can succeed, so after its slot and table
// entry are cleared no reader can still be looking at its bytes. Pinned
// frames are skipped; if every frame is pinned the shard temporarily
// overflows its budget rather than deadlocking.
func (p *pager) evictLocked(sh *shard) []byte {
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
		if !pg.ref.CompareAndSwap(0, evictedRef) {
			sh.hand++ // pinned since the check
			continue
		}
		if sl := p.slot(pg.key); sl != nil {
			sl.CompareAndSwap(pg, nil)
		}
		delete(sh.table, pg.key)
		sh.removeAt(sh.hand)
		buf = pg.data
	}
	return buf
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

// read copies n bytes at off in the file into buf. Reads may span pages:
// a run, a block or a blob may cross a page boundary.
func (p *pager) read(f fileID, off int64, buf []byte) error {
	for len(buf) > 0 {
		pageNo := off / int64(p.pageSize)
		within := int(off % int64(p.pageSize))
		pg, err := p.fetch(pageKey{f, pageNo})
		if err != nil {
			return err
		}
		n := copy(buf, pg.data[within:])
		pg.unpin()
		buf = buf[n:]
		off += int64(n)
	}
	return nil
}

// dropCache empties the cache, simulating a cold start without reopening
// the files. Concurrent readers are fine: frames they hold pinned, or
// loaded from a slot just before it was cleared, stay readable — merely
// orphaned, and never recycled.
func (p *pager) dropCache() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, pg := range sh.clock {
			if sl := p.slot(pg.key); sl != nil {
				sl.CompareAndSwap(pg, nil)
			}
		}
		sh.table = map[pageKey]*page{}
		sh.clock = nil
		sh.hand = 0
		sh.mu.Unlock()
	}
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
