package query

import (
	"container/list"
	"errors"
	"sync"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/storage"
)

// Cache is a bounded, concurrency-safe cache of compiled query shapes
// keyed by (shape key, graph identity). A shape key is a query text with
// the literals a plan compares at run time lifted out into parameter
// slots (cypher.Shape): texts that differ only in those literals share
// one entry, so a stream of point lookups compiles once per template, not
// once per literal. An entry is a Shape — the plan with its slots open
// and the template of the text it executes — and a lookup binds the
// request's values into it. A hit therefore costs the shape pass, one
// table probe and the binding: no parse, no rewrite, no compile. Because
// compiled plans are immutable the same plan serves any number of
// concurrent bindings and executors.
//
// Cold misses are de-duplicated (singleflight): when N goroutines look up
// the same uncached key concurrently, exactly one compiles while the
// other N-1 wait and share its shape (or its error). The Shared stat
// counts those piggy-backed lookups, so compiles attempted is always
// Misses - Shared.
//
// Graph identity is the storage.Graph value itself, so the graph's dynamic
// type must be comparable — true for both built-in backends and any
// pointer-typed store. Plans for different graphs never collide even when
// the key matches, because symbol IDs are store-specific: one cache can
// serve several stores at once, as pgsquery's direct and optimized ones. A
// key names the text as it arrives, so one cache must compile a graph's
// keys one way: a server rewrites every query through its one mapping, and
// Get compiles texts as they are.
//
// Eviction is LRU, and the only way a shape leaves: when the cache holds
// capacity shapes and a new (graph, key) pair arrives, the least recently
// used shape is dropped. Evicted shapes, and plans bound from them, remain
// valid for callers already holding them.
type Cache struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List // front = most recently used; values are *cacheEntry
	table    map[cacheKey]*list.Element
	inflight map[cacheKey]*flight
	hits     int64
	misses   int64
	shared   int64
}

type cacheKey struct {
	g   storage.Graph
	key string
}

type cacheEntry struct {
	key   cacheKey
	shape *Shape
}

// flight is one in-progress compile. The leader fills shape/err and
// closes done; followers block on done and read the results afterwards,
// so no lock guards the two fields.
type flight struct {
	done  chan struct{}
	shape *Shape
	err   error
}

// Shape is a compiled query shape: the plan of a shape key's tree, with
// parameter slots where the key lifted literals, and the template of the
// text that plan executes.
type Shape struct {
	plan *Prepared
	text cypher.Template
}

// NewShape compiles q, a shape key's tree (rewritten or not), against g.
// It is the one compile path behind every Cache entry.
func NewShape(g storage.Graph, q *cypher.Query) (*Shape, error) {
	p, err := Prepare(g, q)
	if err != nil {
		return nil, err
	}
	return &Shape{plan: p, text: cypher.NewTemplate(q)}, nil
}

// Bind returns the shape's plan with args, the values cypher.Shape lifted,
// in its parameter slots. The binding shares the compiled plan; a shape
// with no slots returns the plan itself.
func (s *Shape) Bind(args []graph.Value) *Prepared {
	if len(args) == 0 {
		return s.plan
	}
	return &Prepared{plan: s.plan.plan, args: args}
}

// Text renders the query the plan bound to args executes: what String
// returns for the compiled tree with the values in its slots.
func (s *Shape) Text(args []graph.Value) string { return s.text.Render(args) }

// DefaultCacheCapacity bounds a Cache constructed with capacity <= 0.
const DefaultCacheCapacity = 128

// NewCache returns a plan cache holding at most capacity shapes
// (DefaultCacheCapacity if capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{
		capacity: capacity,
		lru:      list.New(),
		table:    map[cacheKey]*list.Element{},
		inflight: map[cacheKey]*flight{},
	}
}

// Get returns the plan for src against g, bound to src's literals, and
// compiles src's shape on first sight. Concurrent Gets for a cold shape
// compile exactly once: one caller does the work, the rest share it.
func (c *Cache) Get(g storage.Graph, src string) (*Prepared, error) {
	p, _, err := c.GetWithInfo(g, src)
	return p, err
}

// GetWithInfo is Get additionally reporting whether the shape was served
// from the cache (a hit) rather than compiled (or piggy-backed on an
// in-flight compile). Errors are Parse's and Prepare's.
func (c *Cache) GetWithInfo(g storage.Graph, src string) (*Prepared, bool, error) {
	key, args, err := cypher.Shape(src)
	if err != nil {
		return nil, false, err
	}
	s, hit, err := c.Lookup(g, key, func() (*Shape, error) {
		q, err := cypher.ParseShape(key, src)
		if err != nil {
			return nil, err
		}
		return NewShape(g, q)
	})
	if err != nil {
		return nil, false, err
	}
	return s.Bind(args), hit, nil
}

// Lookup returns the cached shape for shapeKey, a cypher.Shape key,
// against g. On a miss compile builds it (with NewShape, from the key's
// tree) with no locks held, at most once per key across all concurrent
// callers. The second result reports whether the shape came from the
// ready table.
func (c *Cache) Lookup(g storage.Graph, shapeKey string, compile func() (*Shape, error)) (*Shape, bool, error) {
	key := cacheKey{g: g, key: shapeKey}
	c.mu.Lock()
	if el, ok := c.table[key]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		s := el.Value.(*cacheEntry).shape
		c.mu.Unlock()
		return s, true, nil
	}
	c.misses++
	if f, ok := c.inflight[key]; ok {
		// Another goroutine is compiling this key right now: piggy-back
		// on its result instead of compiling again.
		c.shared++
		c.mu.Unlock()
		<-f.done
		return f.shape, false, f.err
	}
	// The sentinel error stands until compile assigns over it, so if
	// compile panics the followers observe an error instead of a nil
	// shape.
	f := &flight{done: make(chan struct{}), err: errInflightAbandoned}
	c.inflight[key] = f
	c.mu.Unlock()

	// Unregister and release followers even if compile panics; a panic
	// must not wedge the key forever (later Gets would attach to the
	// stale flight and block).
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		if f.err == nil {
			c.insertLocked(key, f.shape)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.shape, f.err = compile()
	return f.shape, false, f.err
}

// errInflightAbandoned is what singleflight followers see when the
// leader's compile terminated abnormally (panicked) without producing a
// shape or a real error.
var errInflightAbandoned = errors.New("query: in-flight compile was abandoned")

// insertLocked adds a compiled shape, evicting LRU entries over capacity.
// Caller holds c.mu.
func (c *Cache) insertLocked(key cacheKey, s *Shape) {
	if el, ok := c.table[key]; ok {
		// Shouldn't happen now that cold misses singleflight, but stay
		// safe: keep the cached plan hot and let ours be garbage.
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.capacity {
		victim := c.lru.Back()
		c.lru.Remove(victim)
		delete(c.table, victim.Value.(*cacheEntry).key)
	}
	c.table[key] = c.lru.PushFront(&cacheEntry{key: key, shape: s})
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits int64
	// Misses counts lookups that found no ready plan; the subset that
	// attached to a compile already in flight is also counted in Shared,
	// so compiles attempted = Misses - Shared.
	Misses int64
	// Shared counts cold lookups served by another goroutine's in-flight
	// compile (the singleflight wins).
	Shared   int64
	Size     int // shapes currently cached
	Capacity int
}

// Stats returns hit/miss/singleflight counters and current occupancy.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Shared: c.shared,
		Size: c.lru.Len(), Capacity: c.capacity,
	}
}
