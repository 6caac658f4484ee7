package bench

// -exp compact: the background-compaction latency experiment. It
// answers the operational question behind the non-blocking fold — what
// does a compaction do to read latency? — by sampling the same read
// mix twice: against a quiesced live store, then while a background
// Compact folds the delta into a fresh base generation with durable
// writes still arriving. The acceptance bar is read p99 during the
// fold within 2x the quiesced p99, and every mutation acknowledged
// mid-fold present after the swap (re-verified through a cold reopen).

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/storetest"
)

// LatencySummary is one sampled read phase.
type LatencySummary struct {
	Ops int
	P50 time.Duration
	P99 time.Duration
}

// CompactReport is the -exp compact result.
type CompactReport struct {
	BaseVertices int
	BaseEdges    int
	DeltaItems   int64 // delta vertices+edges the fold absorbed
	FoldTime     time.Duration
	Quiesced     LatencySummary
	DuringFold   LatencySummary
	// MidFoldAcked is the number of mutation batches acknowledged while
	// the fold ran; MidFoldPresent / MidFoldReopened count how many were
	// visible after the swap and after a cold reopen. All three must be
	// equal — an acknowledged write that a fold loses is the one failure
	// this experiment exists to catch.
	MidFoldAcked    int
	MidFoldPresent  int
	MidFoldReopened int
}

// P99Ratio is during-fold p99 over quiesced p99 (0 when nothing was
// sampled).
func (r *CompactReport) P99Ratio() float64 {
	if r.Quiesced.P99 <= 0 {
		return 0
	}
	return float64(r.DuringFold.P99) / float64(r.Quiesced.P99)
}

func summarize(durs []time.Duration) LatencySummary {
	if len(durs) == 0 {
		return LatencySummary{}
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	pick := func(q float64) time.Duration {
		i := int(q * float64(len(durs)-1))
		return durs[i]
	}
	return LatencySummary{Ops: len(durs), P50: pick(0.50), P99: pick(0.99)}
}

// sampleReads runs the read mix — labels, one property, a bounded
// adjacency walk — from `readers` goroutines over the base vertex range
// until done reports true, and returns every per-op latency.
func sampleReads(g storage.Graph, readers, nV int, seed int64, done func() bool) []time.Duration {
	var mu sync.Mutex
	var all []time.Duration
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(id)))
			local := make([]time.Duration, 0, 1<<14)
			for !done() {
				v := storage.VID(rng.Intn(nV))
				t0 := time.Now()
				g.Labels(v)
				g.Prop(v, "p0")
				n := 0
				g.ForEachOut(v, "", func(storage.EID, storage.VID) bool {
					n++
					return n < 8
				})
				local = append(local, time.Since(t0))
			}
			mu.Lock()
			all = append(all, local...)
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	return all
}

// CompactLatency builds a live diskstore in dir (nV base vertices, nE
// base edges plus a delta worth folding), samples the read mix quiesced
// and during a background fold with concurrent durable writes, and
// audits the mid-fold acknowledgments.
func CompactLatency(dir string, nV, nE, readers int, seed int64) (*CompactReport, error) {
	if readers <= 0 {
		readers = 4
	}
	s, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if _, err := storetest.BuildRandom(s, seed, nV, nE); err != nil {
		return nil, err
	}
	if !s.Live() {
		return nil, fmt.Errorf("bench: finalized store is not live")
	}

	// A delta worth folding: fresh vertices wired back into the base.
	var batch []storage.Mutation
	for i := 0; i < nV/10; i++ {
		batch = append(batch,
			storage.Mutation{Op: storage.MutAddVertex, Labels: []string{"Delta"}},
			storage.Mutation{Op: storage.MutSetProp, V: -1, Key: "p0", Value: graph.I(int64(i))},
			storage.Mutation{Op: storage.MutAddEdge, Src: -1, Dst: storage.VID(i % nV), Type: "r1"},
		)
	}
	if _, err := s.ApplyMutations(batch); err != nil {
		return nil, err
	}
	ls := s.LiveStats()
	rep := &CompactReport{BaseVertices: nV, BaseEdges: nE, DeltaItems: ls.DeltaVertices + ls.DeltaEdges}

	// Phase 1: quiesced baseline.
	deadline := time.Now().Add(300 * time.Millisecond)
	rep.Quiesced = summarize(sampleReads(s, readers, nV, seed+100, func() bool {
		return time.Now().After(deadline)
	}))

	// Phase 2: the same mix while a background fold runs and durable
	// writes keep arriving.
	var foldDone atomic.Bool
	var foldErr, mutErr error
	var acked atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		t0 := time.Now()
		foldErr = s.Compact()
		rep.FoldTime = time.Since(t0)
		foldDone.Store(true)
	}()
	go func() {
		defer wg.Done()
		for k := 0; !foldDone.Load(); k++ {
			if _, err := s.ApplyMutations([]storage.Mutation{
				{Op: storage.MutAddVertex, Labels: []string{"MidFold"}},
				{Op: storage.MutSetProp, V: -1, Key: "mid", Value: graph.I(int64(k))},
			}); err != nil {
				mutErr = err
				return
			}
			acked.Add(1)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	rep.DuringFold = summarize(sampleReads(s, readers, nV, seed+200, foldDone.Load))
	wg.Wait()
	if foldErr != nil {
		return nil, fmt.Errorf("bench: background fold: %w", foldErr)
	}
	if mutErr != nil {
		return nil, fmt.Errorf("bench: mid-fold mutation: %w", mutErr)
	}
	rep.MidFoldAcked = int(acked.Load())

	countMidFold := func(g storage.Graph) int {
		n := 0
		g.ForEachVertex("MidFold", func(v storage.VID) bool {
			if _, ok := g.Prop(v, "mid"); ok {
				n++
			}
			return true
		})
		return n
	}
	rep.MidFoldPresent = countMidFold(s)
	if err := s.Close(); err != nil {
		return nil, err
	}
	re, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		return nil, fmt.Errorf("bench: reopen after fold: %w", err)
	}
	rep.MidFoldReopened = countMidFold(re)
	if err := re.Close(); err != nil {
		return nil, err
	}
	if rep.MidFoldPresent != rep.MidFoldAcked || rep.MidFoldReopened != rep.MidFoldAcked {
		return rep, fmt.Errorf("bench: %d mutation batches acknowledged mid-fold but %d visible after the swap, %d after reopen",
			rep.MidFoldAcked, rep.MidFoldPresent, rep.MidFoldReopened)
	}
	return rep, nil
}

// FormatCompactReport renders the -exp compact result.
func FormatCompactReport(title string, r *CompactReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "  base %d vertices / %d edges; fold absorbed %d delta items in %v\n",
		r.BaseVertices, r.BaseEdges, r.DeltaItems, r.FoldTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "  quiesced:    %7d reads  p50=%-8v p99=%v\n", r.Quiesced.Ops, r.Quiesced.P50, r.Quiesced.P99)
	fmt.Fprintf(&b, "  during fold: %7d reads  p50=%-8v p99=%v  (p99 ratio %.2fx)\n",
		r.DuringFold.Ops, r.DuringFold.P50, r.DuringFold.P99, r.P99Ratio())
	fmt.Fprintf(&b, "  mid-fold writes: %d acknowledged, %d present after swap, %d after reopen\n",
		r.MidFoldAcked, r.MidFoldPresent, r.MidFoldReopened)
	return b.String()
}
