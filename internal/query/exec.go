package query

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/storage"
)

// Stats counts the physical work a query performed; the benchmark harness
// reports these alongside latency to show why optimized schemas win.
type Stats struct {
	VerticesScanned int64 // start candidates examined: label-scan members, or the vertices a lookup yields
	EdgesTraversed  int64 // adjacency expansions followed
	PropsRead       int64 // property fetches
	RowsEmitted     int64 // result rows produced
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.VerticesScanned += other.VerticesScanned
	s.EdgesTraversed += other.EdgesTraversed
	s.PropsRead += other.PropsRead
	s.RowsEmitted += other.RowsEmitted
}

// Result is a materialized query result. Rows is freshly allocated per
// execution; Columns is shared with the Prepared plan that produced it and
// must not be mutated.
type Result struct {
	Columns []string
	Rows    [][]graph.Value
	arena   rowArena // the blocks AddRow copies rows into
}

// Sink receives an execution's result rows, one AddRow call per row, all
// on the goroutine that called Exec. The row is lent: the executor owns
// the slice and refills it for the next row, so the sink may read it only
// for the length of the call. A sink that keeps a row copies it (a
// *Result does); one that encodes the row and lets it go copies nothing
// (the server does). A non-nil error stops the execution and is returned
// from Exec. AddRow runs inside the traversal, with the store's view
// pinned: it must not block on anything slower than memory.
type Sink interface {
	AddRow(row []graph.Value) error
}

// AddRow makes a *Result the materializing Sink: it keeps a copy of the
// lent row.
func (r *Result) AddRow(row []graph.Value) error {
	r.Rows = append(r.Rows, r.arena.copy(row))
	return nil
}

// rowArena copies rows that must outlive the call that lent them into
// shared blocks of values, so keeping n rows costs a few allocations per
// block instead of one per row. Each copy is a three-index sub-slice of
// its block: appending to one kept row reallocates it rather than
// overwriting the next.
type rowArena struct {
	spare []graph.Value // the current block's unused tail
	kept  int           // rows copied so far; the next block grows with it
}

// A block holds as many rows as were kept before it, between
// minBlockRows and maxBlockRows: a one-row result stays small, and a
// large one pays one block allocation per maxBlockRows rows.
const (
	minBlockRows = 8
	maxBlockRows = 256
)

func (a *rowArena) copy(row []graph.Value) []graph.Value {
	n := len(row)
	if len(a.spare) < n {
		a.spare = make([]graph.Value, n*min(max(a.kept, minBlockRows), maxBlockRows))
	}
	kept := a.spare[:n:n]
	copy(kept, row)
	a.spare = a.spare[n:]
	a.kept++
	return kept
}

// Collect runs the plan once and materializes its rows: Exec with a
// *Result as the sink.
func Collect(ctx context.Context, p *Prepared, o ExecOptions) (*Result, error) {
	res := &Result{Columns: p.cols, Rows: [][]graph.Value{}}
	if err := p.Exec(ctx, o, res); err != nil {
		return nil, err
	}
	return res, nil
}

// ExecOptions are the three things an execution can vary.
type ExecOptions struct {
	// Workers caps morsel-driven intra-query parallelism. Values <= 1, a
	// plan shape the planner marked ineligible, or a root label below
	// MinParallelRootCount run the whole root scan as one morsel, inline
	// on the calling goroutine — so callers pass their knob
	// unconditionally.
	Workers int
	// Stats, when non-nil, accumulates the execution's work counters.
	// They are exact and independent of Workers. Concurrent executions
	// need a Stats each.
	Stats *Stats
	// Profile, when non-nil, is overwritten with the execution's per-step
	// operator trace (see profile.go).
	Profile *Profile
}

// Exec is the one way a plan runs. It pins the view once — a snapshot on
// backends that take live writes, the store itself otherwise — and every
// machine of the execution reads through that pin and nothing else. The
// root scan runs either as one morsel on the calling goroutine, on a
// pooled machine with no goroutine, channel or lock, or as many morsels
// on o.Workers goroutines (parallel.go) that hand rows and partial groups
// back to the caller's machine. Either way the caller's machine owns the
// plan's one set of shape finishers — group merge, DISTINCT, top-k,
// ORDER BY gather, LIMIT — and they deliver to sink on this goroutine.
//
// Cancelling ctx (or its deadline passing) stops every machine within
// cancelMask+1 iterations and Exec returns the context's error. Rows the
// sink has already received stay delivered: a caller that must not show
// partial output discards what it buffered when Exec returns an error.
// Safe for any number of concurrent callers on one plan.
func (p *Prepared) Exec(ctx context.Context, o ExecOptions, sink Sink) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(p.args) < p.nParams {
		return fmt.Errorf("query: the plan has %d parameter slots and %d values bound", p.nParams, len(p.args))
	}
	st := o.Stats
	if st == nil {
		st = new(Stats)
	}
	g := p.g
	if p.snaps != nil {
		snap := p.snaps.AcquireSnapshot()
		defer snap.Release()
		g = snap
	}
	scans := p.planMorsels(g, o.Workers)
	workers := min(o.Workers, len(scans))
	if o.Profile != nil {
		*o.Profile = Profile{Steps: p.profileSteps(), Parallel: scans != nil, Morsels: len(scans), Workers: max(workers, 1)}
	}
	m := p.pool.Get().(*machine)
	m.begin(ctx, g, p.args)
	m.fin = finisher{p: p, sink: sink, key: m.fin.key}
	var err error
	if scans == nil {
		err = m.root()
	} else {
		err = p.runMorsels(ctx, g, scans, workers, m, st, o.Profile)
	}
	if err == nil {
		err = p.finish(m, st)
	}
	p.fold(m, st, o.Profile)
	p.release(m)
	return err
}

// ExecuteParallelContextWithStats is Collect under its pre-Exec name and
// argument order, kept because benchmark/twin.go pins it.
func (p *Prepared) ExecuteParallelContextWithStats(ctx context.Context, workers int, st *Stats) (*Result, error) {
	return Collect(ctx, p, ExecOptions{Workers: workers, Stats: st})
}

// Run executes the query against the graph. One-shot convenience wrapper:
// it compiles the query with Prepare and runs the plan once with Collect.
// Callers that run the same query repeatedly should Prepare once and
// Collect (or Exec) many times.
func Run(g storage.Graph, q *cypher.Query) (*Result, error) {
	p, err := Prepare(g, q)
	if err != nil {
		return nil, err
	}
	return Collect(context.Background(), p, ExecOptions{})
}

// finisher is the tail every execution shares, whatever produced its
// rows: DISTINCT, then either straight delivery under LIMIT or — for
// ORDER BY — buffering until the traversal ends, as a bounded top-k heap
// when there is a LIMIT too. It lives in the driver's machine and runs
// only on the goroutine that called Exec. The rows it takes are lent, as
// a Sink's are: DISTINCT keeps only their keys, and the ORDER BY buffer
// keeps copies.
type finisher struct {
	p     *Prepared
	sink  Sink
	seen  map[string]struct{} // DISTINCT filter
	key   []byte              // scratch for seen's keys, kept across executions
	n     int64               // rows past DISTINCT so far
	buf   []orderedRow        // ORDER BY: a max-heap rooted at the worst row under LIMIT, else arrival order
	arena rowArena            // the blocks buf's rows are copied into
}

// orderedRow is a buffered ORDER BY row with its arrival number, the
// tiebreak that makes the order total: rows the ORDER BY columns cannot
// tell apart keep arrival order, and under LIMIT the earliest of them
// win — what a stable sort of the full result followed by a cut returns.
type orderedRow struct {
	row []graph.Value
	seq int64
}

func (f *finisher) less(a, b orderedRow) bool {
	if c := f.p.rowCmp(a.row, b.row); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

// add takes one projected or grouped row, lent for the call.
func (f *finisher) add(row []graph.Value) error {
	p := f.p
	if p.distinct {
		f.key = appendRowKey(f.key[:0], row)
		if _, dup := f.seen[string(f.key)]; dup {
			return nil
		}
		if f.seen == nil {
			f.seen = map[string]struct{}{}
		}
		f.seen[string(f.key)] = struct{}{}
	}
	if len(p.orderCols) == 0 {
		if p.limit >= 0 && f.n >= int64(p.limit) {
			return nil // past the LIMIT: dropped; the traversal is not cut short
		}
		f.n++
		return f.sink.AddRow(row)
	}
	f.n++
	e := orderedRow{row, f.n}
	switch {
	case p.limit < 0:
		e.row = f.arena.copy(row)
		f.buf = append(f.buf, e)
	case len(f.buf) < p.limit:
		e.row = f.arena.copy(row)
		f.buf = append(f.buf, e)
		f.up(len(f.buf) - 1)
	case p.limit > 0 && f.less(e, f.buf[0]):
		// The evicted row's slice takes the new row's values.
		copy(f.buf[0].row, row)
		f.buf[0].seq = e.seq
		f.down(0)
	}
	return nil
}

// flush ends the execution: buffered ORDER BY rows are sorted and
// delivered, and the delivered count lands in st.
func (f *finisher) flush(st *Stats) error {
	if len(f.p.orderCols) > 0 {
		sort.Slice(f.buf, func(i, j int) bool { return f.less(f.buf[i], f.buf[j]) })
		for _, e := range f.buf {
			if err := f.sink.AddRow(e.row); err != nil {
				return err
			}
		}
		f.n = int64(len(f.buf))
	}
	st.RowsEmitted += f.n
	return nil
}

func (f *finisher) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !f.less(f.buf[parent], f.buf[i]) {
			return
		}
		f.buf[i], f.buf[parent] = f.buf[parent], f.buf[i]
		i = parent
	}
}

func (f *finisher) down(i int) {
	n := len(f.buf)
	for {
		worst := i
		if l := 2*i + 1; l < n && f.less(f.buf[worst], f.buf[l]) {
			worst = l
		}
		if r := 2*i + 2; r < n && f.less(f.buf[worst], f.buf[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		f.buf[i], f.buf[worst] = f.buf[worst], f.buf[i]
		i = worst
	}
}

// appendRowKey appends the canonical composite key of a row to dst: its
// values' keys back to back, which is unambiguous because each key is
// self-delimiting (graph.Value.AppendKey).
func appendRowKey(dst []byte, row []graph.Value) []byte {
	for _, v := range row {
		dst = v.AppendKey(dst)
	}
	return dst
}

// SortRowsForComparison orders rows canonically; tests use it to compare
// result sets that may be produced in different orders by different
// schemas or backends. Keys are materialized once up front rather than
// rebuilt inside the comparator. Rows whose keys are equal but whose
// numbers differ in kind or bits (INT 1 and DOUBLE 1.0) are ordered by
// appendRowBits, so the order depends on the rows alone.
func SortRowsForComparison(rows [][]graph.Value) {
	keys := make([]string, len(rows))
	var buf []byte
	for i, row := range rows {
		buf = appendRowKey(buf[:0], row)
		keys[i] = string(buf)
	}
	sort.Sort(&rowSorter{rows: rows, keys: keys})
}

type rowSorter struct {
	rows [][]graph.Value
	keys []string
}

func (s *rowSorter) Len() int { return len(s.rows) }
func (s *rowSorter) Less(i, j int) bool {
	if s.keys[i] != s.keys[j] {
		return s.keys[i] < s.keys[j]
	}
	return bytes.Compare(appendRowBits(nil, s.rows[i]), appendRowBits(nil, s.rows[j])) < 0
}
func (s *rowSorter) Swap(i, j int) {
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// appendRowBits appends each cell's kind and, for a DOUBLE, its bits: what
// tells apart rows whose keys are equal (INT 1 and DOUBLE 1.0, 0.0 and
// -0.0).
func appendRowBits(dst []byte, row []graph.Value) []byte {
	for _, v := range row {
		dst = append(dst, byte(v.Kind()))
		switch v.Kind() {
		case graph.KindFloat:
			dst = binary.BigEndian.AppendUint64(dst, graph.FloatBits(v.Float()))
		case graph.KindList:
			dst = appendRowBits(dst, v.List())
		}
	}
	return dst
}
