package query

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/storage"
)

// Prepared is a query compiled against one graph: label, type, and
// property-key strings are resolved to the store's interned SymbolIDs,
// pattern variables are numbered into slots of a flat binding array, and
// the traversal order is fixed — so executing the plan does no string
// hashing, no AST walking, and no per-row map allocation.
//
// A Prepared is bound to the graph it was compiled for (symbol IDs are
// store-specific) but is itself immutable once Prepare returns: all
// mutable execution state lives in a per-call machine recycled through an
// internal sync.Pool, so Exec is safe for any number of concurrent
// callers sharing one plan — provided the underlying store supports
// concurrent readers (both built-in backends do once fully built).
//
// A plan compiled from a shape key (cypher.Shape) has parameter slots
// where the text had literals; a Shape binds values to them, and each
// binding is a Prepared of its own sharing the one compiled plan.
type Prepared struct {
	*plan
	args []graph.Value // the values of the plan's parameter slots
}

// plan is the compiled, immutable part of a Prepared.
type plan struct {
	g    storage.Graph
	cols []string
	// snaps is non-nil when the backend both accepts concurrent mutations
	// and can pin point-in-time views: Exec then acquires exactly one
	// snapshot per execution and every machine reads through it, so a
	// background Compact swapping base generations (and renumbering EIDs)
	// mid-query cannot shift the view. Every other backend reads p.g.
	snaps storage.Snapshotter

	// moves is the compiled traversal order of every pattern; each pooled
	// machine links its own executable step chain from it.
	moves  []move
	nSlots int
	// nParams is the number of parameter slots an execution must bind.
	nParams int
	where   cexpr
	// uniqEdges is set when the plan expands more than one relationship,
	// the only case where Cypher's relationship-uniqueness rule can bind:
	// single-expand plans (the typed one-hop shapes dominating the paper's
	// workloads) skip the per-edge used-stack scan entirely.
	uniqEdges bool

	// Return processing.
	grouped    bool
	items      []citem
	groupExprs []cexpr // compiled non-aggregate items, in item order
	aggs       []aggSpec

	distinct  bool
	orderCols []int
	orderDesc []bool
	limit     int

	// Morsel-driven execution (see parallel.go): parallelOK is the
	// planner's compile-time eligibility decision — the plan's first move
	// is an unbound label scan that PlanVertexScan can partition, and the
	// answer does not depend on scan order — and rootLabel is the label
	// whose postings the morsel driver splits.
	parallelOK bool
	rootLabel  storage.SymbolID

	// pool recycles machines across executions. A machine is created on
	// first use (or after a GC drained the pool) and costs one step-chain
	// build; steady-state executions reuse it allocation-free.
	pool sync.Pool
}

// step runs one stage of the traversal chain against its machine's state
// and recurses into the rest of the chain via a captured continuation. The
// whole chain, including iterator callbacks, is built once per machine —
// not per execution — so the hot path allocates no closures.
type step func() error

// citem is one compiled RETURN item.
type citem struct {
	hasAgg bool
	out    cexpr
}

// machine is the mutable execution state of one in-flight Exec call (or
// of one of its morsel workers). Each machine is owned by exactly one
// goroutine at a time; the plan's pool hands it out and takes it back
// around every execution.
type machine struct {
	// g is the view this execution reads: the snapshot Exec pinned, or
	// the plan's store when the backend needs no pin.
	g   storage.Graph
	err error

	// steps holds the execution's work counters, one slot per compiled
	// move plus a final slot for the emit step; the chain's closures
	// capture &steps[i] when the machine is built. propsRead counts the
	// property fetches of node checks and expressions. Stats and PROFILE
	// are both folded from these (fold).
	steps     []stepCounts
	propsRead int64

	// Cancellation: the traversal callbacks poll done every cancelMask+1
	// iterations (a non-blocking channel read), so a deadline or a hung
	// client stops a scan mid-flight instead of after it. A context that
	// can never be canceled has a nil done and costs one nil check.
	done <-chan struct{}
	ctx  context.Context
	tick uint

	// root is this machine's private step chain, linked once at machine
	// construction from the plan's immutable move list.
	root step

	// rootScan is the root move's per-vertex callback (captured when the
	// chain is linked): the morsel driver feeds partition iterators into
	// it directly, bypassing root's full-label scan. Nil when the plan's
	// first move is a bound start.
	rootScan func(storage.VID) bool

	// fin is the execution's finisher (exec.go). Only the driver's
	// machine — the one Exec runs on the calling goroutine — uses it: its
	// own projected rows go straight in, and so do the rows morsel workers
	// hand back.
	fin finisher

	// rowCh marks a morsel worker of a non-grouped plan: projected rows
	// are batched and sent to the driver instead of finished locally.
	rowCh chan<- [][]graph.Value
	batch [][]graph.Value

	// trackDistinct makes DISTINCT aggregates record their accepted
	// values so per-worker partial states can be merged into the driver's
	// machine (see aggState.merge).
	trackDistinct bool

	slots []storage.VID // variable bindings; -1 = unbound
	used  []storage.EID // edges bound on the current path (Cypher uniqueness)
	args  []graph.Value // the execution's parameter values

	// Reusable scratch buffers; these keep per-binding allocations at
	// zero on the hot path.
	key        []byte        // composite group/dedup key
	scratch    []byte        // DISTINCT-aggregate value key
	keyScratch []graph.Value // group-key values of the current row

	aggVals []graph.Value // aggregate outputs during the finish phase
	row     []graph.Value // the output row emitRow and finish fill and lend to the finisher
	groups  map[string]*groupRow
	order   []string
}

const unbound = storage.VID(-1)

// cancelMask throttles cancellation polling: the context is checked once
// every cancelMask+1 vertices scanned or edges traversed, keeping the
// per-iteration overhead to one increment and one mask on the hot path.
const cancelMask = 255

// canceled polls the machine's context and, when it has been canceled,
// records the context error and reports true so the enclosing iterator
// unwinds.
func (m *machine) canceled() bool {
	if m.done == nil {
		return false
	}
	m.tick++
	if m.tick&cancelMask != 0 {
		return false
	}
	select {
	case <-m.done:
		m.err = m.ctx.Err()
		return true
	default:
		return false
	}
}

// groupRow is the accumulated state of one group.
type groupRow struct {
	keyVals []graph.Value
	aggs    []aggState
}

func (m *machine) edgeUsed(e storage.EID) bool {
	for _, u := range m.used {
		if u == e {
			return true
		}
	}
	return false
}

// Prepare compiles q for execution against g. The returned plan stays
// valid for the lifetime of the store: stores are fully built before being
// queried, so the symbol IDs resolved here cannot change underneath it.
// A q with parameter slots (a shape key's tree, see cypher.Shape) compiles
// to a plan that runs only once a Shape binds values to them.
func Prepare(g storage.Graph, q *cypher.Query) (*Prepared, error) {
	q = q.Clone()
	nameAnonymousVars(q)
	if q.Where != nil && cypher.HasAggregate(q.Where) {
		return nil, fmt.Errorf("query: aggregates are not allowed in WHERE")
	}
	c := &compiler{g: g, slots: map[string]int{}}
	// Number every pattern variable into a slot first so expressions can
	// reference variables bound by any pattern.
	for _, p := range q.Patterns {
		for _, n := range p.Nodes {
			c.slot(n.Var)
		}
	}
	p := &Prepared{plan: &plan{g: g, limit: q.Limit, distinct: q.Distinct}}
	if _, mutable := g.(storage.MutableGraph); mutable {
		p.snaps, _ = g.(storage.Snapshotter)
	}
	for _, ri := range q.Return {
		p.cols = append(p.cols, ri.Name())
	}
	if err := c.compileReturn(p, q); err != nil {
		return nil, err
	}
	if q.Where != nil {
		w, err := c.expr(q.Where, nil)
		if err != nil {
			return nil, err
		}
		p.where = w
	}
	if len(q.OrderBy) > 0 {
		cols, err := sortColumns(q)
		if err != nil {
			return nil, err
		}
		p.orderCols = cols
		p.orderDesc = make([]bool, len(q.OrderBy))
		for i, s := range q.OrderBy {
			p.orderDesc[i] = s.Desc
		}
	}
	boundSlots := map[int]bool{}
	for _, pat := range q.Patterns {
		p.moves = append(p.moves, c.planPattern(pat, boundSlots)...)
	}
	expands := 0
	for _, mv := range p.moves {
		if !mv.start {
			expands++
		}
	}
	p.uniqEdges = expands > 1
	p.nSlots = len(c.order)
	p.nParams = c.nParams
	p.planParallel()
	p.pool.New = func() any { return p.buildMachine() }
	return p, nil
}

// planParallel is the compile-time half of the parallelism decision: it
// marks plans whose root is an unbound label scan as morsel-eligible. A
// lookup root stays on one morsel — the store hands it only the matching
// vertices, too few to split. So does a LIMIT without ORDER BY (LIMIT-1
// probes): its answer is the first rows in scan order, which only a
// single in-order scan defines. The runtime half (worker count and the
// label-size threshold) lives in planMorsels.
func (p *Prepared) planParallel() {
	if len(p.moves) == 0 || !p.moves[0].start || p.moves[0].bound || p.moves[0].lookup {
		return
	}
	if p.limit >= 0 && len(p.orderCols) == 0 {
		return
	}
	p.parallelOK = true
	p.rootLabel = p.moves[0].scanLabel
}

// buildMachine builds a fresh execution context sized for the plan,
// including its private step chain. Only the pool calls it: on first use
// and whenever the pool is empty.
func (p *Prepared) buildMachine() *machine {
	m := &machine{
		g:          p.g,
		steps:      make([]stepCounts, len(p.moves)+1),
		slots:      make([]storage.VID, p.nSlots),
		keyScratch: make([]graph.Value, len(p.groupExprs)),
		aggVals:    make([]graph.Value, len(p.aggs)),
		row:        make([]graph.Value, len(p.items)),
	}
	if p.grouped {
		m.groups = map[string]*groupRow{}
	}
	next := p.emitStep(m)
	for i := len(p.moves) - 1; i >= 0; i-- {
		next = p.moveStep(m, i, p.moves[i], next)
	}
	m.root = next
	return m
}

func nameAnonymousVars(q *cypher.Query) {
	n := 0
	for _, p := range q.Patterns {
		for _, node := range p.Nodes {
			if node.Var == "" {
				node.Var = fmt.Sprintf("_n%d", n)
				n++
			}
		}
	}
}

// begin prepares a machine for one execution reading the view g with the
// parameter values args, its work counters zeroed.
func (m *machine) begin(ctx context.Context, g storage.Graph, args []graph.Value) {
	m.g = g
	m.args = args
	m.done, m.ctx = ctx.Done(), ctx
	m.err = nil
	clear(m.steps)
	m.propsRead = 0
	for i := range m.slots {
		m.slots[i] = unbound
	}
	m.used = m.used[:0]
	if m.groups != nil {
		clear(m.groups)
		m.order = m.order[:0]
	}
}

// release returns a machine to the pool with every per-call reference
// cleared, so a pooled machine cannot keep a released snapshot, a
// request's context, its sink, or buffered rows and their values alive.
func (p *Prepared) release(m *machine) {
	m.g, m.args = p.g, nil
	m.done, m.ctx = nil, nil
	m.fin = finisher{key: m.fin.key}
	m.rowCh, m.batch = nil, nil
	clear(m.row)
	m.trackDistinct = false
	p.pool.Put(m)
}

// fold adds m's work counters to st and, when prof is non-nil, its step
// counters to prof's steps: VerticesScanned is what the unbound starts
// (scans and lookups) visited, EdgesTraversed what the expands visited.
// A bind start checks a vertex bound earlier and scans none.
func (p *Prepared) fold(m *machine, st *Stats, prof *Profile) {
	for i := range p.moves {
		switch mv := &p.moves[i]; {
		case !mv.start:
			st.EdgesTraversed += m.steps[i].visited
		case !mv.bound:
			st.VerticesScanned += m.steps[i].visited
		}
	}
	st.PropsRead += m.propsRead
	if prof != nil {
		prof.addSteps(m.steps)
	}
}

// ---- pattern compilation ----

// move is one step of a pattern traversal plan, compiled: the node's
// constraints are symbol-resolved and the traversal direction, source
// slot, and scan label are fixed.
type move struct {
	node cnode
	// Start moves.
	start     bool
	scanLabel storage.SymbolID
	// Expansion moves.
	etype    storage.SymbolID
	outgoing bool
	fromSlot int
	// scanName/typeName are the human-readable step targets PROFILE
	// reports: the scanned label (or bound variable) and the expanded edge
	// type. Display-only; execution goes through the interned IDs above.
	scanName string
	typeName string
	// bound marks moves whose node variable is already bound when the
	// move runs (join back-edges, repeated variables): the move checks
	// instead of binding.
	bound bool
	// lookup marks an unbound start on a named label with inline property
	// constraints: the store's ForEachVertexByPropID on probe replaces
	// the label scan. Such a root is never morsel-split.
	lookup bool
	probe  cprop
}

// cnode is a node pattern's compiled constraint set.
type cnode struct {
	slot   int
	labels []storage.SymbolID
	props  []cprop
}

// cprop is one inline property equality constraint. keyName keeps the
// source-level property name alongside the interned ID for PROFILE's
// step targets. The wanted value is want, or the execution's value of
// parameter slot param when param >= 0.
type cprop struct {
	key     storage.SymbolID
	keyName string
	want    graph.Value
	param   int
}

// want returns the value constraint c requires in this execution.
func (m *machine) want(c *cprop) graph.Value {
	if c.param >= 0 {
		return m.args[c.param]
	}
	return c.want
}

func (m *machine) checkNode(n *cnode, v storage.VID) bool {
	for _, l := range n.labels {
		if !m.g.HasLabelID(v, l) {
			return false
		}
	}
	for i := range n.props {
		m.propsRead++
		got, ok := m.g.PropID(v, n.props[i].key)
		if !ok || !got.Equal(m.want(&n.props[i])) {
			return false
		}
	}
	return true
}

// planPattern mirrors the interpreter's planner: pick the cheapest start
// node, expand right then left, and record which moves hit an
// already-bound variable. boundSlots is updated with this pattern's
// bindings for the benefit of later patterns.
func (c *compiler) planPattern(pat *cypher.PathPattern, boundSlots map[int]bool) []move {
	start, bestCost := 0, int64(1)<<62
	for i, n := range pat.Nodes {
		var cost int64
		switch {
		case boundSlots[c.slot(n.Var)]:
			cost = 0
		case len(n.Labels) > 0:
			cost = c.minLabelCount(n.Labels)
			if len(n.Props) > 0 {
				cost /= 16 // property constraints are selective
			}
		default:
			cost = int64(c.g.NumVertices())
		}
		if cost < bestCost {
			start, bestCost = i, cost
		}
	}

	var moves []move
	addStart := func(n *cypher.NodePattern) {
		mv := move{node: c.node(n), start: true, bound: boundSlots[c.slot(n.Var)]}
		if mv.bound {
			mv.scanName = n.Var // PROFILE target: the already-bound variable
		} else {
			// Scan the most selective label; AnySymbol scans everything.
			mv.scanLabel = storage.AnySymbol
			if len(n.Labels) > 0 {
				mv.scanLabel = c.g.LabelID(n.Labels[0])
				mv.scanName = n.Labels[0]
				best := c.g.CountLabelID(mv.scanLabel)
				for _, l := range n.Labels[1:] {
					id := c.g.LabelID(l)
					if cnt := c.g.CountLabelID(id); cnt < best {
						mv.scanLabel, best = id, cnt
						mv.scanName = l
					}
				}
				// The scan (label postings, PlanVertexScan's partitions or
				// the lookup) yields only vertices carrying scanLabel, and a
				// lookup only those holding its probe's value: the node
				// check skips what the iterator guarantees.
				mv.node.labels = slices.DeleteFunc(mv.node.labels, func(l storage.SymbolID) bool { return l == mv.scanLabel })
				if mv.lookup = len(mv.node.props) > 0; mv.lookup {
					mv.probe, mv.node.props = mv.node.props[0], mv.node.props[1:]
				}
			}
			boundSlots[mv.node.slot] = true
		}
		moves = append(moves, mv)
	}
	addExpand := func(n *cypher.NodePattern, rel *cypher.RelPattern, fromNode *cypher.NodePattern, leftToRight bool) {
		mv := move{
			node:     c.node(n),
			etype:    c.g.TypeID(rel.Type),
			outgoing: (rel.Dir == cypher.DirOut) == leftToRight,
			fromSlot: c.slot(fromNode.Var),
			bound:    boundSlots[c.slot(n.Var)],
			typeName: rel.Type,
		}
		boundSlots[mv.node.slot] = true
		moves = append(moves, mv)
	}
	addStart(pat.Nodes[start])
	for j := start + 1; j < len(pat.Nodes); j++ {
		addExpand(pat.Nodes[j], pat.Rels[j-1], pat.Nodes[j-1], true)
	}
	for j := start - 1; j >= 0; j-- {
		addExpand(pat.Nodes[j], pat.Rels[j], pat.Nodes[j+1], false)
	}
	return moves
}

func (c *compiler) minLabelCount(labels []string) int64 {
	best := c.g.CountLabelID(c.g.LabelID(labels[0]))
	for _, l := range labels[1:] {
		if cnt := c.g.CountLabelID(c.g.LabelID(l)); cnt < best {
			best = cnt
		}
	}
	return int64(best)
}

// node compiles a node pattern's constraints.
func (c *compiler) node(n *cypher.NodePattern) cnode {
	cn := cnode{slot: c.slot(n.Var)}
	for _, l := range n.Labels {
		cn.labels = append(cn.labels, c.g.LabelID(l))
	}
	// Sorted for deterministic check order (the source map has none).
	keys := make([]string, 0, len(n.Props))
	for k := range n.Props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		cp := cprop{key: c.g.KeyID(k), keyName: k, param: -1}
		switch v := n.Props[k].(type) {
		case *cypher.Literal:
			cp.want = v.Val
		case *cypher.Param:
			cp.param = c.param(v)
		}
		cn.props = append(cn.props, cp)
	}
	return cn
}

// moveStep builds m's executable step for move idx. The iterator callbacks
// are constructed here, once per machine, and reused across executions and
// rows. Each kind of move — bind, scan/lookup, expand — is one closure
// that counts into its step's slot of m.steps inline: visited for every
// vertex or edge it examines, produced for every binding it passes to
// next. Those counters are the execution's work counters (fold).
func (p *Prepared) moveStep(m *machine, idx int, mv move, next step) step {
	node := mv.node
	ps := &m.steps[idx]
	switch {
	case mv.start && mv.bound:
		return func() error {
			ps.visited++
			if !m.checkNode(&node, m.slots[node.slot]) {
				return nil
			}
			ps.produced++
			return next()
		}
	case mv.start:
		scan := func(v storage.VID) bool {
			ps.visited++
			if m.canceled() {
				return false
			}
			if !m.checkNode(&node, v) {
				return true
			}
			ps.produced++
			m.slots[node.slot] = v
			m.err = next()
			m.slots[node.slot] = unbound
			return m.err == nil
		}
		// The chain is linked last move first, so the final assignment —
		// the plan's root move — wins: m.rootScan is exactly the callback
		// the morsel driver must feed partitioned scans into.
		m.rootScan = scan
		label := mv.scanLabel
		run := func() { m.g.ForEachVertexID(label, scan) }
		if mv.lookup {
			probe := mv.probe
			run = func() { m.g.ForEachVertexByPropID(label, probe.key, m.want(&probe), scan) }
		}
		return func() error {
			run()
			return m.err
		}
	default:
		// The expand callback hands the typed iteration to the store's
		// ForEach*ID: on type-segmented backends (finalized diskstore and
		// memstore) that call seeks straight to the matching segment, so
		// neither the store nor this callback filters edges by type. Plans
		// with at most one relationship (uniq false) skip the
		// relationship-uniqueness stack — with a single expand there is no
		// other edge to collide with.
		uniq, bound := p.uniqEdges, mv.bound
		expand := func(e storage.EID, other storage.VID) bool {
			ps.visited++
			if m.canceled() {
				return false
			}
			if uniq && m.edgeUsed(e) {
				return true // Cypher relationship-uniqueness
			}
			if (bound && m.slots[node.slot] != other) || !m.checkNode(&node, other) {
				return true
			}
			ps.produced++
			if !bound {
				m.slots[node.slot] = other
			}
			if uniq {
				m.used = append(m.used, e)
			}
			m.err = next()
			if uniq {
				m.used = m.used[:len(m.used)-1]
			}
			if !bound {
				m.slots[node.slot] = unbound
			}
			return m.err == nil
		}
		etype, from, outgoing := mv.etype, mv.fromSlot, mv.outgoing
		if outgoing {
			return func() error {
				m.g.ForEachOutID(m.slots[from], etype, expand)
				return m.err
			}
		}
		return func() error {
			m.g.ForEachInID(m.slots[from], etype, expand)
			return m.err
		}
	}
}

// ---- row emission ----

// emitStep builds m's chain terminator: WHERE filter, then group
// accumulation or direct projection, counting into the emit step's slot
// of m.steps.
func (p *Prepared) emitStep(m *machine) step {
	ps := &m.steps[len(p.moves)]
	return func() error {
		ps.visited++
		if p.where != nil {
			val, err := p.where(m)
			if err != nil {
				return err
			}
			if ok, _ := truth(val); !ok {
				return nil
			}
		}
		ps.produced++
		return p.emitRow(m)
	}
}

// emitRow is the emit step's post-WHERE tail: group accumulation, or
// projection into the machine's one row — lent to the finisher right here
// on the driver's machine, copied into a batch toward the driver on a
// morsel worker.
func (p *Prepared) emitRow(m *machine) error {
	if p.grouped {
		return p.accumulateGroup(m)
	}
	row := m.row
	for i := range p.items {
		v, err := p.items[i].out(m)
		if err != nil {
			return err
		}
		row[i] = v
	}
	if m.rowCh != nil {
		return m.ship(row)
	}
	return m.fin.add(row)
}

func (p *Prepared) accumulateGroup(m *machine) error {
	m.key = m.key[:0]
	for i, ge := range p.groupExprs {
		v, err := ge(m)
		if err != nil {
			return err
		}
		m.keyScratch[i] = v
		m.key = v.AppendKey(m.key) // self-delimiting: no separator needed
	}
	gs, ok := m.groups[string(m.key)]
	if !ok {
		gs = p.newGroup(m.keyScratch)
		key := string(m.key)
		m.groups[key] = gs
		m.order = append(m.order, key)
	}
	for i := range gs.aggs {
		if err := gs.aggs[i].update(&p.aggs[i], m); err != nil {
			return err
		}
	}
	return nil
}

func (p *Prepared) newGroup(keyVals []graph.Value) *groupRow {
	gs := &groupRow{
		keyVals: append([]graph.Value(nil), keyVals...),
		aggs:    make([]aggState, len(p.aggs)),
	}
	for i := range gs.aggs {
		gs.aggs[i].init(&p.aggs[i])
	}
	return gs
}

// finish runs on the driver's machine once the traversal is over: a
// grouped plan turns the accumulated (and, after a morsel run, merged)
// groups into rows, and every shape drains the finisher, whose delivered
// row count lands in st.
func (p *Prepared) finish(m *machine, st *Stats) error {
	if p.grouped {
		// An aggregate-only query over zero rows still yields one row
		// (e.g. COUNT(*) = 0), per Cypher semantics.
		if len(m.order) == 0 && len(p.groupExprs) == 0 {
			m.groups[""] = p.newGroup(nil)
			m.order = append(m.order, "")
		}
		for _, key := range m.order {
			gs := m.groups[key]
			for i := range gs.aggs {
				m.aggVals[i] = gs.aggs[i].final(&p.aggs[i])
			}
			row := m.row
			ki := 0
			for i := range p.items {
				if p.items[i].hasAgg {
					v, err := p.items[i].out(m)
					if err != nil {
						return err
					}
					row[i] = v
				} else {
					row[i] = gs.keyVals[ki]
					ki++
				}
			}
			if err := m.fin.add(row); err != nil {
				return err
			}
		}
	}
	return m.fin.flush(st)
}

// rowCmp is the plan's ORDER BY comparator: negative when ra sorts before
// rb, zero when the ORDER BY columns cannot tell them apart. NULLs and
// incomparables sort last regardless of direction.
func (p *Prepared) rowCmp(ra, rb []graph.Value) int {
	for k, col := range p.orderCols {
		a, b := ra[col], rb[col]
		cmp, ok := a.Compare(b)
		if !ok {
			switch {
			case a.IsNull() == b.IsNull():
				continue
			case a.IsNull():
				return 1
			default:
				return -1
			}
		}
		if cmp == 0 {
			continue
		}
		if p.orderDesc[k] {
			return -cmp
		}
		return cmp
	}
	return 0
}

// sortColumns maps each ORDER BY expression to a return column, by alias
// or by identical rendering.
func sortColumns(q *cypher.Query) ([]int, error) {
	cols := make([]int, len(q.OrderBy))
	for i, s := range q.OrderBy {
		found := -1
		text := s.Expr.String()
		for j, ri := range q.Return {
			if ri.Alias != "" && text == ri.Alias {
				found = j
				break
			}
			if ri.Expr.String() == text {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("query: ORDER BY %s does not match a returned column", text)
		}
		cols[i] = found
	}
	return cols, nil
}
