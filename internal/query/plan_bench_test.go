package query

import (
	"testing"

	"repro/internal/cypher"
	"repro/internal/storage/memstore"
)

// The two benchmarks below isolate what compile-once buys: Prepared
// executes a ready plan, PerCall pays Clone+plan+symbol-resolution on
// every run the way the interpreter used to.

func benchGraphAndQuery(b *testing.B) (*memstore.Store, *cypher.Query) {
	mem := memstore.New()
	buildTwoHopGraph(b, mem, 16) // 256 bindings
	return mem, cypher.MustParse(
		`MATCH (a:A)-[:r]->(b:B)-[:s]->(c:C) RETURN COUNT(*)`)
}

func BenchmarkTwoHopPrepared(b *testing.B) {
	mem, q := benchGraphAndQuery(b)
	p, err := Prepare(mem, q)
	if err != nil {
		b.Fatal(err)
	}
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collect(p, 1, &st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoHopPerCall(b *testing.B) {
	mem, q := benchGraphAndQuery(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(mem, q); err != nil {
			b.Fatal(err)
		}
	}
}
