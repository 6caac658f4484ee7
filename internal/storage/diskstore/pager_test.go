package diskstore

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

func TestPagerShardCount(t *testing.T) {
	cases := []struct{ capacity, shards int }{
		{1, 1}, {2, 1}, {4, 1}, {8, 2}, {16, 4}, {64, 16}, {256, 16}, {1024, 16},
	}
	for _, c := range cases {
		if got := pagerShards(c.capacity); got != c.shards {
			t.Errorf("pagerShards(%d) = %d, want %d", c.capacity, got, c.shards)
		}
	}
}

func TestPagerShardIndexInRange(t *testing.T) {
	s := newTestStore(t, Options{PageSize: 256, CachePages: 64})
	p := s.curEp().pager
	if len(p.shards) != 16 {
		t.Fatalf("shards = %d, want 16", len(p.shards))
	}
	for f := fileID(0); f < numFiles; f++ {
		for pg := int64(0); pg < 10000; pg++ {
			sh := p.shardOf(pageKey{f, pg})
			found := false
			for i := range p.shards {
				if sh == &p.shards[i] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("shardOf(%d,%d) points outside the shard slice", f, pg)
			}
		}
	}
}

// TestPagerCapacityRespected checks that a read sweep far larger than the
// page budget leaves at most capacity frames resident: the per-shard clock
// sweeps actually evict.
func TestPagerCapacityRespected(t *testing.T) {
	s := newTestStore(t, Options{PageSize: 256, CachePages: 16})
	if _, err := storetest.BuildRandom(s, 11, 300, 900); err != nil {
		t.Fatal(err)
	}
	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	storetest.Fingerprint(s) // touches every record file end to end
	if got := s.curEp().pager.resident(); got > s.opts.CachePages {
		t.Errorf("%d pages resident after sweep, budget %d", got, s.opts.CachePages)
	}
	st := s.Stats()
	if st.PageMisses <= int64(s.opts.CachePages) {
		t.Errorf("only %d misses; sweep did not outrun the %d-page budget", st.PageMisses, s.opts.CachePages)
	}
}

// TestPagerConcurrentEvictionPressure is the shard-rewrite stress test:
// eight goroutines sweep the full read surface of a store whose page
// budget is a small fraction of its data, so shards constantly load and
// evict under concurrent access. Every sweep must observe exactly the
// serial state. Run under -race this proves loads, evictions, latches,
// and the atomic stats counters are data-race free.
func TestPagerConcurrentEvictionPressure(t *testing.T) {
	s := newTestStore(t, Options{PageSize: 256, CachePages: 16})
	if _, err := storetest.BuildRandom(s, 99, 200, 600); err != nil {
		t.Fatal(err)
	}
	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	want := storetest.Fingerprint(s)
	wantDeg := make([]int, s.NumVertices())
	for v := range wantDeg {
		wantDeg[v] = s.DegreeID(storage.VID(v), s.TypeID("r1"), true)
	}

	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if got := storetest.Fingerprint(s); got != want {
					t.Errorf("goroutine %d sweep %d: fingerprint diverged under eviction pressure", g, i)
					return
				}
				deg := make([]int, s.NumVertices())
				for v := range deg {
					deg[v] = s.DegreeID(storage.VID(v), s.TypeID("r1"), true)
				}
				if !reflect.DeepEqual(deg, wantDeg) {
					t.Errorf("goroutine %d sweep %d: degrees diverged under eviction pressure", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := s.Stats()
	// The store spans far more than 16 pages, so concurrent sweeps must
	// have evicted and re-read pages, not just served hits.
	if st.PageMisses <= int64(s.opts.CachePages) {
		t.Errorf("misses = %d; no eviction pressure reached the shards", st.PageMisses)
	}
	if st.PageReads == 0 {
		t.Error("no physical reads despite a cold start")
	}
	if got := s.curEp().pager.resident(); got > s.opts.CachePages {
		t.Errorf("%d pages resident, budget %d", got, s.opts.CachePages)
	}

	// The same pressure on a bare pager whose every page carries its own
	// number in every byte: with an 8-page cache over 64 pages nearly
	// every read lands in a recycled frame, so a reader that ever saw a
	// frame while another tenant's bytes were in it finds the wrong stamp.
	t.Run("StampedPages", func(t *testing.T) {
		const pageSize, pages = 256, 64
		p, _ := newTestPager(t, pageSize, 8, stampedPages(pageSize, pages, 0))
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				buf := make([]byte, pageSize)
				for i := 0; i < 4000; i++ {
					pg := rng.Intn(pages)
					if err := p.read(fileVertices, int64(pg)*pageSize, buf); err != nil {
						t.Errorf("goroutine %d: read page %d: %v", g, pg, err)
						return
					}
					if j := firstByteNot(buf, byte(pg+1)); j >= 0 {
						t.Errorf("goroutine %d: page %d byte %d = %#x, want stamp %#x", g, pg, j, buf[j], byte(pg+1))
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if got := p.resident(); got > p.capacity {
			t.Errorf("%d pages resident, budget %d", got, p.capacity)
		}
		if st := p.stats.snapshot(); st.PageMisses < 4*pages {
			t.Errorf("misses = %d; the stamped sweep did not thrash the cache", st.PageMisses)
		}
	})
}

// TestPagerReadOnlyStampedRace is the latch-free hit path's stress test:
// a pager with a 4-page budget over 64 stamped pages, hammered by eight
// goroutines. Nearly every read either misses or races an
// eviction, so a hit that pinned a frame after the sweep claimed it — and
// copied from a buffer the next tenant is loading into — shows up as a
// wrong stamp (or, under -race, as a data race on the buffer).
func TestPagerReadOnlyStampedRace(t *testing.T) {
	const pageSize, pages, workers = 256, 64, 8
	p, _ := newTestPager(t, pageSize, 4, stampedPages(pageSize, pages, 0))
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			buf := make([]byte, pageSize)
			for i := 0; i < 4000; i++ {
				// Mostly four hot pages, so hits on the frame table race
				// the sweep recycling those same frames.
				pg := rng.Intn(4)
				if i%2 == 1 {
					pg = rng.Intn(pages)
				}
				within := rng.Intn(pageSize)
				if err := p.read(fileVertices, int64(pg)*pageSize+int64(within), buf[:pageSize-within]); err != nil {
					t.Errorf("goroutine %d: read page %d: %v", g, pg, err)
					return
				}
				if j := firstByteNot(buf[:pageSize-within], byte(pg+1)); j >= 0 {
					t.Errorf("goroutine %d: page %d byte %d = %#x, want stamp %#x", g, pg, within+j, buf[j], byte(pg+1))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := p.resident(); got > p.capacity {
		t.Errorf("%d pages resident, budget %d", got, p.capacity)
	}
	st := p.stats.snapshot()
	if st.PageMisses < 4*pages || st.PageHits == 0 {
		t.Errorf("hits = %d, misses = %d; the sweep did not race the hit path", st.PageHits, st.PageMisses)
	}
}

// TestPagerStripedStatsExact: hits are counted on per-shard stripes, and
// the snapshot Stats() returns sums them exactly — k hits and m misses in,
// k and m out — while a hit allocates nothing.
func TestPagerStripedStatsExact(t *testing.T) {
	const pageSize, pages = 256, 32
	p, _ := newTestPager(t, pageSize, 64, stampedPages(pageSize, pages, 0))
	var buf [16]byte
	for pg := 0; pg < pages; pg++ { // m = pages cold misses
		if err := p.read(fileVertices, int64(pg)*pageSize, buf[:]); err != nil {
			t.Fatal(err)
		}
	}
	const k = 1000
	for i := 0; i < k; i++ {
		if err := p.read(fileVertices, int64(i%pages)*pageSize+64, buf[:]); err != nil {
			t.Fatal(err)
		}
	}
	st := p.stats.snapshot()
	if st.PageHits != k || st.PageMisses != pages {
		t.Errorf("hits = %d, misses = %d; want %d and %d", st.PageHits, st.PageMisses, k, pages)
	}
	stripes := 0
	for i := range p.stats.hits {
		if p.stats.hits[i].n.Load() > 0 {
			stripes++
		}
	}
	if stripes < 2 {
		t.Errorf("hits landed on %d stripe(s); the counters are not striped", stripes)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := p.read(fileVertices, 7*pageSize, buf[:]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per hit, want 0", allocs)
	}
	p.stats.reset()
	if st := p.stats.snapshot(); st != (storage.Stats{}) {
		t.Errorf("stats after reset = %+v", st)
	}
}

// BenchmarkPagerHitParallel measures the hit path: every goroutine reads
// 8-byte records from pages of a fully resident pager, so each op is
// exactly one hit (frame-table load, pin, copy, unpin).
func BenchmarkPagerHitParallel(b *testing.B) {
	const pageSize, pages = 8192, 64
	p, _ := newTestPager(b, pageSize, 4*pages, stampedPages(pageSize, pages, 0))
	var buf [8]byte
	for pg := int64(0); pg < pages; pg++ {
		if err := p.read(fileVertices, pg*pageSize, buf[:]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var buf [8]byte
		x := uint64(rand.Int63()) | 1
		for pb.Next() {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			off := int64(x%pages)*pageSize + int64(x>>32%(pageSize/8))*8
			if err := p.read(fileVertices, off, buf[:]); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if st := p.stats.snapshot(); st.PageMisses != pages {
		b.Fatalf("%d misses, want only the %d warm-up loads", st.PageMisses, pages)
	}
}

// newTestPager opens a bare pager (no Store around it) whose vertex file
// holds content; the other four files are empty. It returns the vertex
// file's path so a test can swap the descriptor underneath the pager.
func newTestPager(t testing.TB, pageSize, capacity int, content []byte) (*pager, string) {
	t.Helper()
	dir := t.TempDir()
	var files [numFiles]*os.File
	for i, name := range baseFileNames {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	if _, err := files[fileVertices].Write(content); err != nil {
		t.Fatal(err)
	}
	p, err := newPager(files, pageSize, capacity, new(pagerStats))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, f := range p.files {
			f.Close()
		}
	})
	return p, filepath.Join(dir, baseFileNames[fileVertices])
}

// stampedPages returns pages full pages in which every byte of page i is
// i+1 (never zero), followed by tail more bytes of the next stamp.
func stampedPages(pageSize, pages, tail int) []byte {
	out := make([]byte, pages*pageSize+tail)
	for i := range out {
		out[i] = byte(i/pageSize + 1)
	}
	return out
}

// firstByteNot returns the index of the first byte of b that is not
// want, or -1.
func firstByteNot(b []byte, want byte) int {
	for i, c := range b {
		if c != want {
			return i
		}
	}
	return -1
}

// TestPagerMissPathDoesNotAllocate: once the cache is at budget a miss
// takes its buffer from the frame it evicts. The small page header may
// still be allocated; a page-sized buffer may not.
func TestPagerMissPathDoesNotAllocate(t *testing.T) {
	const pageSize, pages = 8192, 64
	p, _ := newTestPager(t, pageSize, 4, stampedPages(pageSize, pages, 0))
	var buf [8]byte
	next := 0
	readNext := func() {
		if err := p.read(fileVertices, int64(next%pages)*pageSize, buf[:]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < 2*pages; i++ { // warm up: fill the budget, start evicting
		readNext()
	}
	before := p.stats.snapshot()
	allocs := testing.AllocsPerRun(4*pages, readNext)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			readNext()
		}
	})
	after := p.stats.snapshot()
	// A cyclic sweep over 16x the budget never finds its page resident,
	// so per-read figures are per-miss figures.
	if hits := after.PageHits - before.PageHits; hits != 0 {
		t.Fatalf("%d hits in a sweep that should only miss", hits)
	}
	if allocs > 1 {
		t.Errorf("%.1f allocations per miss, want at most the page header", allocs)
	}
	if got := res.AllocedBytesPerOp(); got >= 256 {
		t.Errorf("%d bytes allocated per miss, want < 256 (a %d-byte frame is being allocated)", got, pageSize)
	}
	if p.resident() != p.capacity {
		t.Errorf("%d frames resident, want the full budget of %d", p.resident(), p.capacity)
	}
}

// TestPagerRecycledFrameIsClean: a recycled frame shows its new page and
// nothing of the previous tenant — bytes past a short read and whole
// pages past the file's end read as zero, as a fresh buffer's would. The
// file is written before the pager opens, as a generation's files are.
func TestPagerRecycledFrameIsClean(t *testing.T) {
	const pageSize, full, tail = 256, 10, 100
	content := bytes.Repeat([]byte{0xFF}, full*pageSize+tail)
	p, _ := newTestPager(t, pageSize, 4, content)
	buf := make([]byte, pageSize)
	for pg := 0; pg < full; pg++ { // every frame has held 0xFF and been evicted
		if err := p.read(fileVertices, int64(pg)*pageSize, buf); err != nil {
			t.Fatal(err)
		}
		if j := firstByteNot(buf, 0xFF); j >= 0 {
			t.Fatalf("page %d byte %d = %#x, want 0xFF", pg, j, buf[j])
		}
	}
	// recycled reports whether the frame now holding page pg sits in a
	// buffer one of the 0xFF tenants used — i.e. the reads below really
	// go through recycled memory, not a lucky fresh allocation.
	dirtyBufs := map[*byte]bool{}
	for _, pg := range p.shards[0].clock {
		dirtyBufs[&pg.data[0]] = true
	}
	recycled := func(pg int64) bool {
		fr, err := p.fetch(pageKey{fileVertices, pg})
		if err != nil {
			t.Fatal(err)
		}
		defer fr.unpin()
		return dirtyBufs[&fr.data[0]]
	}

	// (a) the short last page: 100 defined bytes, then zeros.
	if err := p.read(fileVertices, full*pageSize, buf); err != nil {
		t.Fatal(err)
	}
	if j := firstByteNot(buf[:tail], 0xFF); j >= 0 {
		t.Errorf("short page byte %d = %#x, want the file's 0xFF", j, buf[j])
	}
	if j := firstByteNot(buf[tail:], 0); j >= 0 {
		t.Errorf("short page byte %d = %#x past the file's end, want 0", tail+j, buf[tail+j])
	}
	if !recycled(full) {
		t.Error("short page was not served from a recycled frame; the test lost its teeth")
	}
	// (b) pages wholly past the file's end.
	for _, pg := range []int64{full + 2, full + 3} {
		if err := p.read(fileVertices, pg*pageSize, buf); err != nil {
			t.Fatal(err)
		}
		if j := firstByteNot(buf, 0); j >= 0 {
			t.Errorf("page %d past the file's end: byte %d = %#x, want 0", pg, j, buf[j])
		}
		if !recycled(pg) {
			t.Errorf("page %d was not served from a recycled frame; the test lost its teeth", pg)
		}
	}
}

// TestPagerFailedLoadReachesHitAndLoader: a page load that fails reports
// "diskstore: read page" to the goroutine that ran it and to every
// goroutine that found the frame in the table meanwhile (they wait out
// the load on the latch and then check loadErr), the frame is dropped,
// and a fetch after the fault clears reads the page again.
func TestPagerFailedLoadReachesHitAndLoader(t *testing.T) {
	const pageSize = 256
	p, path := newTestPager(t, pageSize, 4, stampedPages(pageSize, 8, 0))
	isLoadErr := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), "diskstore: read page") && errors.Is(err, os.ErrClosed)
	}
	p.files[fileVertices].Close() // every ReadAt now fails

	// Loader and whoever hits its frame mid-load, for real: eight
	// goroutines on one page. Whichever role a read ends up in, it must
	// fail and must not return bytes.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, pageSize)
			for i := 0; i < 200; i++ {
				if err := p.read(fileVertices, 3*pageSize, buf); !isLoadErr(err) {
					t.Errorf("read over a closed file: err = %v, want a read-page error", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := p.resident(); got != 0 {
		t.Errorf("%d failed frames left resident", got)
	}

	// The hit side alone, deterministically: the test stands in for the
	// loader — a frame in the table with its write latch held — and
	// fails the load once a reader has pinned it.
	key := pageKey{fileVertices, 5}
	fr := &page{key: key, data: bytes.Repeat([]byte{0xEE}, pageSize)}
	fr.mu.Lock()
	sh := p.shardOf(key)
	sh.mu.Lock()
	sh.table[key] = fr
	sh.clock = append(sh.clock, fr)
	sh.mu.Unlock()
	hit := make(chan error, 1)
	buf := bytes.Repeat([]byte{0x11}, pageSize)
	go func() { hit <- p.read(fileVertices, 5*pageSize, buf) }()
	for fr.ref.Load() == 0 { // the reader pins before it waits on the latch
		time.Sleep(time.Millisecond)
	}
	_, readErr := p.files[fileVertices].ReadAt(fr.data, 5*pageSize)
	fr.loadErr = errors.Join(errors.New("diskstore: read page (injected)"), readErr)
	fr.mu.Unlock()
	if err := <-hit; !isLoadErr(err) {
		t.Errorf("hit on a frame whose load failed: err = %v, want the loader's error", err)
	}
	if j := firstByteNot(buf, 0x11); j >= 0 {
		t.Errorf("failed hit copied frame bytes out (byte %d = %#x)", j, buf[j])
	}
	sh.mu.Lock()
	delete(sh.table, key)
	sh.removeFromClock(fr)
	sh.mu.Unlock()

	// Fault cleared: the same pages load.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	p.files[fileVertices] = f
	reads := p.stats.snapshot().PageReads
	for _, pg := range []int{3, 5} {
		if err := p.read(fileVertices, int64(pg)*pageSize, buf); err != nil {
			t.Fatalf("read page %d after the fault cleared: %v", pg, err)
		}
		if j := firstByteNot(buf, byte(pg+1)); j >= 0 {
			t.Errorf("page %d byte %d = %#x after retry, want stamp %#x", pg, j, buf[j], byte(pg+1))
		}
	}
	if got := p.stats.snapshot().PageReads - reads; got != 2 {
		t.Errorf("%d physical reads after the fault cleared, want 2 (the failed frames were not cached)", got)
	}
}
