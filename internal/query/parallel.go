package query

// Morsel-driven intra-query parallelism: the many-morsel branch of Exec.
// The driver partitions the plan's root label scan into morsels
// (storage.PlanVertexScan) and runs the plan's ordinary compiled step
// chain over them on a small worker pool — each worker owns a machine,
// counts its work in that machine's step counters, and reads the view
// Exec pinned. Workers do not finish anything: a non-grouped plan's rows
// travel to the calling goroutine in small batches over a bounded channel
// and enter the driver machine's finisher exactly as an inline
// execution's rows do, so a huge result set never materializes outside
// the consumer; a grouped plan's per-worker partial groups are merged
// into the driver's machine (aggState.merge: counts and sums add, min/max
// compare, DISTINCT aggregates replay recorded values) before the
// ordinary finish.
//
// Workers share one derived context: the first error (or the caller's
// cancellation) cancels it, and every sibling unwinds within cancelMask+1
// iterations via the machines' ordinary cancellation polling.

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/storage"
)

// Tunables of the morsel executor.
const (
	// MinParallelRootCount is the runtime parallelism threshold: root
	// scans over fewer vertices than this execute serially, because the
	// fan-out costs more than it buys on small labels. The count comes
	// from the store's label index (on diskstore, built from vertices.db
	// at Open), so the decision is one map lookup.
	MinParallelRootCount = 16

	// morselsPerWorker oversplits the root scan so workers that finish
	// early steal remaining morsels instead of idling behind a skewed
	// partition.
	morselsPerWorker = 4

	// rowBatchSize and rowChanDepth bound the streaming pipeline: at most
	// rowChanDepth batches of rowBatchSize rows sit in the channel, plus
	// one batch under construction per worker — the pipeline's whole
	// buffered footprint, independent of result-set size.
	rowBatchSize = 64
	rowChanDepth = 4
)

// Columns returns the plan's output column names.
func (p *Prepared) Columns() []string { return p.cols }

// planMorsels makes the runtime half of the parallelism decision and, when
// parallel execution pays off, partitions the root scan over g (the view
// Exec pinned). A nil return means: one morsel, inline.
func (p *Prepared) planMorsels(g storage.Graph, workers int) []storage.VertexScan {
	if workers <= 1 || !p.parallelOK {
		return nil
	}
	if g.CountLabelID(p.rootLabel) < MinParallelRootCount {
		return nil
	}
	scans := g.PlanVertexScan(p.rootLabel, workers*morselsPerWorker)
	if len(scans) < 2 {
		return nil
	}
	return scans
}

// runMorsels is the many-morsel branch of Exec: it fans scans out over
// workers goroutines reading g and brings their output home to dm, the
// driver's machine — rows into dm.fin as they arrive, partial groups once
// every worker has finished, and each worker's work counters into st (and
// prof, when non-nil) then too. The caller runs the ordinary finish next.
func (p *Prepared) runMorsels(ctx context.Context, g storage.Graph, scans []storage.VertexScan, workers int, dm *machine, st *Stats, prof *Profile) error {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// First error wins and cancels every sibling; later failures (usually
	// the induced context.Canceled) are dropped.
	var failOnce sync.Once
	var failErr error
	fail := func(err error) {
		failOnce.Do(func() {
			failErr = err
			cancel()
		})
	}

	trackDistinct := false
	for i := range p.aggs {
		trackDistinct = trackDistinct || p.aggs[i].distinct
	}

	// Workers pull morsel indices from a shared counter (work stealing):
	// a worker stuck on a heavy morsel simply claims fewer of them. The
	// last one to finish closes rowCh, which is how the driver learns that
	// every machine below is quiescent — grouped plans send nothing and
	// use the channel for that alone.
	var next atomic.Int64
	var live atomic.Int64
	live.Store(int64(workers))
	rowCh := make(chan [][]graph.Value, rowChanDepth)
	machines := make([]*machine, workers)
	for w := range machines {
		m := p.pool.Get().(*machine)
		m.begin(wctx, g, p.args)
		m.trackDistinct = trackDistinct
		if !p.grouped {
			m.rowCh = rowCh
		}
		machines[w] = m
		go func() {
			for m.err == nil {
				idx := int(next.Add(1)) - 1
				if idx >= len(scans) {
					break
				}
				scans[idx](m.rootScan)
			}
			if m.err == nil {
				m.err = m.flushBatch()
			}
			if m.err != nil {
				fail(m.err)
			}
			if live.Add(-1) == 0 {
				close(rowCh)
			}
		}()
	}

	// Driver side: finish rows as they arrive. After a sink error keep
	// draining, so no worker stays blocked on a full channel.
	var sinkErr error
	for batch := range rowCh {
		for _, row := range batch {
			if sinkErr != nil {
				break
			}
			if sinkErr = dm.fin.add(row); sinkErr != nil {
				fail(sinkErr)
			}
		}
	}
	// rowCh is closed: every worker has finished, so reading their
	// machines (and failErr) is race-free from here on. Merging in worker
	// order keeps grouped output order deterministic for a fixed
	// partitioning.
	for _, m := range machines {
		p.fold(m, st, prof)
		if p.grouped && failErr == nil {
			failErr = p.mergeGroups(dm, m)
		}
		p.release(m)
	}
	return failErr
}

// ship is emitRow's tail on a morsel worker: it copies the machine's
// row, and the copies leave for the driver a batch at a time.
func (m *machine) ship(row []graph.Value) error {
	m.batch = append(m.batch, append([]graph.Value(nil), row...))
	if len(m.batch) < rowBatchSize {
		return nil
	}
	return m.flushBatch()
}

// flushBatch hands the rows under construction to the driver, giving up
// when the shared context is canceled so a worker never blocks on a full
// channel after the driver has stopped consuming.
func (m *machine) flushBatch() error {
	if len(m.batch) == 0 {
		return nil
	}
	out := m.batch
	m.batch = make([][]graph.Value, 0, rowBatchSize)
	select {
	case m.rowCh <- out:
		return nil
	case <-m.done:
		return m.ctx.Err()
	}
}

// mergeGroups folds src's partial groups into the driver's machine dst:
// groups whose key dst has not seen are adopted wholesale (pointer move,
// no copying), colliding groups merge aggregate state pairwise. The
// merged order differs from one-morsel order; the finisher re-sorts when
// the query ordered its output.
func (p *Prepared) mergeGroups(dst, src *machine) error {
	for _, key := range src.order {
		sg := src.groups[key]
		dg, ok := dst.groups[key]
		if !ok {
			dst.groups[key] = sg
			dst.order = append(dst.order, key)
			continue
		}
		for i := range dg.aggs {
			if err := dg.aggs[i].merge(&p.aggs[i], &sg.aggs[i], &dst.scratch); err != nil {
				return err
			}
		}
	}
	return nil
}
