package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
)

// A stream is the sequence of requests one workload sends. It is made in
// the benchmark from the seed; the server only ever sees the generated
// query text. Static streams are a cycle walked by all clients through a
// shared cursor; the mixed stream adds writes and lookups of what was
// just written, generated per client.

// mixSeed fixes which query shapes the Zipf generator draws for the paper
// streams. The mix is part of the workload's definition: if --seed chose
// it, two seeds would measure two different workloads and the spread
// between runs would be the spread between mixes. --seed varies the
// order of the cycle, (point_mem) the literals and their popularity, and
// (mixed_live) which requests are writes and lookups.
const (
	mixSeed    = 2021
	mixQueries = 15
)

// staticStream is a cycle over a fixed set of distinct query texts.
type staticStream struct {
	Texts []string // distinct, in order of first appearance
	Seq   []int    // the cycle, as indexes into Texts
}

// text renders the cycle one query per line; two streams are the same
// stream exactly when their text is byte-identical.
func (s *staticStream) text() string {
	var b strings.Builder
	for _, i := range s.Seq {
		b.WriteString(s.Texts[i])
		b.WriteByte('\n')
	}
	return b.String()
}

func newStaticStream(order []string) *staticStream {
	s := &staticStream{}
	idx := map[string]int{}
	for _, t := range order {
		i, ok := idx[t]
		if !ok {
			i = len(s.Texts)
			idx[t] = i
			s.Texts = append(s.Texts, t)
		}
		s.Seq = append(s.Seq, i)
	}
	return s
}

// paperStream is the dataset's six microbenchmark queries plus the fixed
// 15-query Zipf mix, in an order shuffled by seed.
func paperStream(dataset string, seed int64) (*staticStream, error) {
	micro := microbenchmarkTexts(dataset)
	var order []string
	for _, name := range sortedKeys(micro) {
		order = append(order, micro[name])
	}
	mix, err := zipfMixTexts(dataset, mixQueries, mixSeed)
	if err != nil {
		return nil, err
	}
	order = append(order, mix...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return newStaticStream(order), nil
}

// pointTemplate is one selective lookup: a label scan filtered by an
// inline property literal, one hop (or two) out, a handful of rows back.
// Concept and Prop name the filtered property; the generator's values are
// "<Concept>_<Prop>_<0..31>".
type pointTemplate struct {
	Concept, Prop string
	Text          string // %s is the literal
}

var pointTemplates = []pointTemplate{
	{"Drug", "name", `MATCH (d:Drug {name: '%s'})-[:treat]->(x:Indication) RETURN x.desc`},
	{"Drug", "brand", `MATCH (d:Drug {brand: '%s'})-[:treat]->(x:Indication) RETURN d.name, x.desc`},
	{"Drug", "name", `MATCH (d:Drug {name: '%s'})-[:cause]->(x:Risk) RETURN d.brand`},
	{"Drug", "name", `MATCH (d:Drug {name: '%s'})-[:has]->(x:DrugInteraction) RETURN x.summary`},
	{"Drug", "brand", `MATCH (d:Drug {brand: '%s'})-[:hasDrugRoute]->(x:DrugRoute) RETURN x.drugRouteId`},
	{"Indication", "desc", `MATCH (i:Indication {desc: '%s'})-[:is]->(x:Condition) RETURN x.condName`},
	{"Indication", "desc", `MATCH (x:Drug)-[:treat]->(i:Indication {desc: '%s'}) RETURN x.name`},
	{"DrugLabInteraction", "mechanism", `MATCH (l:DrugLabInteraction {mechanism: '%s'})-[:isA]->(x:DrugInteraction) RETURN x.summary`},
	{"DrugFoodInteraction", "riskLevel", `MATCH (f:DrugFoodInteraction {riskLevel: '%s'})-[:isA]->(x:DrugInteraction) RETURN x.summary`},
	{"BlackBoxWarning", "route", `MATCH (b:BlackBoxWarning {route: '%s'})-[:unionOf]->(x:Risk)<-[:cause]-(d:Drug) RETURN d.name`},
	{"ContraIndication", "ciDesc", `MATCH (c:ContraIndication {ciDesc: '%s'})-[:unionOf]->(x:Risk)<-[:cause]-(d:Drug) RETURN d.name`},
	{"DrugRoute", "drugRouteId", `MATCH (r:DrugRoute {drugRouteId: '%s'})<-[:hasDrugRoute]-(d:Drug) RETURN d.brand`},
}

const (
	// distinctValues is datagen's default: every property takes one of 32
	// values, so 12 templates x 32 values = 384 present texts.
	distinctValues = 32
	// absentShare of the requests name a literal no vertex carries (the
	// bloom-skip path); absentLiterals per template keeps the number of
	// distinct texts near 400, three times the default plan cache.
	absentShare    = 0.10
	absentLiterals = 4
	pointCycle     = 4096
)

// pointStream draws pointCycle requests: template uniform, value by Zipf
// (s=1) over a per-template ranking of the 32 values that the seed
// permutes, and absentShare of them with an absent literal.
func pointStream(seed int64) *staticStream {
	rng := rand.New(rand.NewSource(seed))
	cum := make([]float64, distinctValues)
	total := 0.0
	for r := range cum {
		total += 1 / float64(r+1)
		cum[r] = total
	}
	ranking := make([][]int, len(pointTemplates))
	for i := range ranking {
		ranking[i] = rng.Perm(distinctValues)
	}
	order := make([]string, 0, pointCycle)
	for len(order) < pointCycle {
		ti := rng.Intn(len(pointTemplates))
		t := pointTemplates[ti]
		var lit string
		if rng.Float64() < absentShare {
			lit = fmt.Sprintf("%s_%s_absent%d", t.Concept, t.Prop, rng.Intn(absentLiterals))
		} else {
			rank := sort.SearchFloat64s(cum, rng.Float64()*total)
			if rank >= distinctValues {
				rank = distinctValues - 1
			}
			lit = fmt.Sprintf("%s_%s_%d", t.Concept, t.Prop, ranking[ti][rank])
		}
		order = append(order, fmt.Sprintf(t.Text, lit))
	}
	return newStaticStream(order)
}

// ---- requests ----

type reqKind uint8

const (
	kindRead reqKind = iota
	kindWrite
)

// request is one HTTP request and what its answer is checked against.
type request struct {
	Kind reqKind
	Body string
	// Want is the reference row count of a read. AtLeast relaxes the
	// check to "no fewer rows" for reads over labels the workload itself
	// is growing.
	Want    int
	AtLeast bool
	// Keys are the unique property values a write creates; once it is
	// acknowledged each must be readable, also after a crash.
	Keys []string
}

// source hands each client its next request.
type source interface {
	next(client int) request
}

// cycleSource walks a static stream with one cursor shared by all
// clients, so the server sees the cycle in order whatever the client
// count, and a faster client simply takes more of it.
type cycleSource struct {
	reqs   []request // one per Texts entry
	seq    []int
	cursor atomic.Int64
}

// newCycleSource holds every answer to its reference row count, exactly;
// for a text grows says yes to (nil: none), to no fewer rows.
func newCycleSource(s *staticStream, refs map[string]reference, grows func(text string) bool) *cycleSource {
	c := &cycleSource{seq: s.Seq}
	for _, t := range s.Texts {
		c.reqs = append(c.reqs, request{Kind: kindRead, Body: t, Want: refs[t].Rows, AtLeast: grows != nil && grows(t)})
	}
	return c
}

func (c *cycleSource) next(int) request {
	i := c.cursor.Add(1) - 1
	return c.reqs[c.seq[i%int64(len(c.seq))]]
}

// Mixed-stream shares: one request in five is a write; of the reads, one
// in eight looks up a key this client was last acknowledged for and the
// rest continue the paper cycle.
const (
	writeShare     = 0.20
	lookupShare    = 0.125
	batchVertices  = 8
	writtenLabel   = "Indication"
	writtenProp    = "desc"
	writtenEdge    = "treat"
	writtenEdgeSrc = "Drug"
)

// touchesWritten says whether a read's answer may grow while mixed_live
// writes: it names the label or the edge type the writes add. Every other
// read of the cycle keeps its exact row count however much is written.
var writtenNames = regexp.MustCompile(`\b(` + writtenLabel + `|` + writtenEdge + `)\b`)

func touchesWritten(text string) bool { return writtenNames.MatchString(text) }

// mixedSource is the mixed_live stream. Each client owns a generator
// seeded from (seed, client), so what a client sends does not depend on
// how the clients interleave.
type mixedSource struct {
	reads   *cycleSource
	drugs   []int64 // existing Drug vertex ids, edge sources for writes
	seed    int64
	clients []*mixedClient
}

type mixedClient struct {
	rng     *rand.Rand
	pos     int // this client's place in the read cycle
	batches int
	lastKey string // last acknowledged key; set by the load loop
}

func newMixedSource(reads *cycleSource, drugs []int64, seed int64, clients int) *mixedSource {
	m := &mixedSource{reads: reads, drugs: drugs, seed: seed}
	for c := 0; c < clients; c++ {
		m.clients = append(m.clients, &mixedClient{
			rng: rand.New(rand.NewSource(seed*1000003 + int64(c))),
			pos: c * len(reads.seq) / clients,
		})
	}
	return m
}

func (m *mixedSource) next(client int) request {
	c := m.clients[client]
	x := c.rng.Float64()
	switch {
	case x < writeShare:
		return m.writeBatch(client)
	case x < writeShare+(1-writeShare)*lookupShare && c.lastKey != "":
		return lookupRequest(c.lastKey)
	default:
		c.pos++
		return m.reads.reqs[m.reads.seq[c.pos%len(m.reads.seq)]]
	}
}

// acked tells the generator a write was acknowledged; its first key is
// what the client's next lookup reads back.
func (m *mixedSource) acked(client int, r request) {
	m.clients[client].lastKey = r.Keys[0]
}

// writeBatch is one /mutate document: batchVertices ontology-conformant
// Indication vertices with unique desc values, each wired to an existing
// Drug by a treat edge through a batch-relative reference.
func (m *mixedSource) writeBatch(client int) request {
	c := m.clients[client]
	c.batches++
	return buildWriteBatch(fmt.Sprintf("w%d_c%d_b%d", m.seed, client, c.batches), m.drugs, c.rng)
}

func buildWriteBatch(prefix string, drugs []int64, rng *rand.Rand) request {
	var b strings.Builder
	keys := make([]string, batchVertices)
	b.WriteString(`{"vertices":[`)
	for k := range keys {
		keys[k] = fmt.Sprintf("%s_%d", prefix, k)
		if k > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"labels":["%s"],"props":{"%s":"%s"}}`, writtenLabel, writtenProp, keys[k])
	}
	b.WriteString(`],"edges":[`)
	for k := range keys {
		if k > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"src":%d,"dst":%d,"type":"%s"}`, drugs[rng.Intn(len(drugs))], -(k + 1), writtenEdge)
	}
	b.WriteString(`]}`)
	return request{Kind: kindWrite, Body: b.String(), Keys: keys}
}

func lookupText(key string) string {
	return fmt.Sprintf(`MATCH (i:%s {%s: '%s'}) RETURN i.%s`, writtenLabel, writtenProp, key, writtenProp)
}

// lookupRequest reads back one written key: exactly one row, always.
func lookupRequest(key string) request {
	return request{Kind: kindRead, Body: lookupText(key), Want: 1}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
