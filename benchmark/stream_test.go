package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestStreamsAreDeterministic(t *testing.T) {
	for _, dataset := range []string{"MED", "FIN"} {
		a, err := paperStream(dataset, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := paperStream(dataset, 7)
		c, _ := paperStream(dataset, 8)
		if a.text() != b.text() {
			t.Errorf("%s paper stream: same seed, different stream", dataset)
		}
		if a.text() == c.text() {
			t.Errorf("%s paper stream: different seeds, same stream", dataset)
		}
		if got, want := len(a.Seq), 6+mixQueries; got != want {
			t.Errorf("%s paper cycle has %d entries, want %d", dataset, got, want)
		}
	}
	if pointStream(7).text() != pointStream(7).text() {
		t.Error("point stream: same seed, different stream")
	}
	if pointStream(7).text() == pointStream(8).text() {
		t.Error("point stream: different seeds, same stream")
	}
}

func TestPointStreamShape(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 2021} {
		s := pointStream(seed)
		if len(s.Seq) != pointCycle {
			t.Fatalf("cycle has %d requests, want %d", len(s.Seq), pointCycle)
		}
		absent := 0
		for _, i := range s.Seq {
			if strings.Contains(s.Texts[i], "_absent") {
				absent++
			}
		}
		if share := float64(absent) / pointCycle; math.Abs(share-absentShare) > 0.02 {
			t.Errorf("seed %d: absent-literal share %.3f, want %.2f +- 0.02", seed, share, absentShare)
		}
		// More distinct texts than the server's 128-plan cache holds, or the
		// workload does not exercise the miss path it exists for.
		if len(s.Texts) < 3*128 {
			t.Errorf("seed %d: only %d distinct texts", seed, len(s.Texts))
		}
	}
}

func TestMixedSourceIsDeterministicPerClient(t *testing.T) {
	stream, err := paperStream("MED", 5)
	if err != nil {
		t.Fatal(err)
	}
	gen := func() []string {
		reads := newCycleSource(stream, map[string]reference{}, touchesWritten)
		m := newMixedSource(reads, []int64{3, 5, 8}, 5, 2)
		var out []string
		for i := 0; i < 400; i++ {
			r := m.next(1)
			out = append(out, r.Body)
			if r.Kind == kindWrite {
				m.acked(1, r)
			}
		}
		return out
	}
	a, b := gen(), gen()
	writes, lookups := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between two generations of the same client", i)
		}
		switch {
		case strings.HasPrefix(a[i], "{"):
			writes++
		case strings.Contains(a[i], "w5_c1_"):
			lookups++
		}
	}
	if share := float64(writes) / 400; math.Abs(share-writeShare) > 0.06 {
		t.Errorf("write share %.3f, want about %.2f", share, writeShare)
	}
	if lookups == 0 {
		t.Error("no lookup of a written key in 400 requests")
	}
}

// On mixed_live only the reads that name what the writes add are held to
// "no fewer rows"; every other read keeps its exact count.
func TestOnlyWrittenNamesRelaxTheRowCheck(t *testing.T) {
	for text, want := range map[string]bool{
		"MATCH (d:Drug)-[r:treat]->(i:Indication) RETURN i.desc":                                    true,
		"MATCH (s:Drug)-[:treat]->(x) RETURN x":                                                     true,
		"MATCH (i:Indication)-[:is]->(x:Condition) RETURN x.condName":                               true,
		"MATCH (d:Drug)-[p:cause]->(r:Risk)<-[p2:unionOf]-(ci:ContraIndication) RETURN d.name":      false,
		"MATCH (x:Disease)-[:hasTreatment]->(p:Treatment)<-[:isA]-(c:Prescription) RETURN c.attr18": false,
		"MATCH (s:Drug)-[:hasDrugRoute]->(d:DrugRoute) RETURN size(COLLECT(d.drugRouteId))":         false,
	} {
		if got := touchesWritten(text); got != want {
			t.Errorf("touchesWritten(%q) = %v, want %v", text, got, want)
		}
	}
	stream, err := paperStream("MED", 5)
	if err != nil {
		t.Fatal(err)
	}
	relaxed := 0
	for _, r := range newCycleSource(stream, map[string]reference{}, touchesWritten).reqs {
		if r.AtLeast {
			relaxed++
		}
	}
	if relaxed == 0 || relaxed == len(stream.Texts) {
		t.Errorf("%d of %d paper texts are relaxed; want some, not all", relaxed, len(stream.Texts))
	}
}

func TestWriteBatchShape(t *testing.T) {
	r := buildWriteBatch("p", []int64{11, 12}, rand.New(rand.NewSource(1)))
	if len(r.Keys) != batchVertices || r.Kind != kindWrite {
		t.Fatalf("batch: %+v", r)
	}
	for _, want := range []string{`"labels":["Indication"]`, `"desc":"p_0"`, `"desc":"p_7"`, `"dst":-8`, `"type":"treat"`} {
		if !strings.Contains(r.Body, want) {
			t.Errorf("batch body lacks %s: %s", want, r.Body)
		}
	}
}

func TestCountRows(t *testing.T) {
	body := []byte(`{"query":"MATCH (a {k: \"rows\\\":[\"}) RETURN a","request_id":"x","columns":["a","b"],` +
		`"rows":[["x]",1],[["l","[m"],2],[null,3]],"stats":{"rows_emitted":3},"elapsed_us":417}`)
	rows, us, ok := countRows(body)
	if !ok || rows != 3 || us != 417 {
		t.Errorf("countRows = %d rows, %d us, ok=%v; want 3, 417, true", rows, us, ok)
	}
	if rows, _, ok := countRows([]byte(`{"rows":[],"elapsed_us":5}`)); !ok || rows != 0 {
		t.Errorf("empty rows: %d, ok=%v", rows, ok)
	}
	if _, _, ok := countRows([]byte(`{"error":"boom"}`)); ok {
		t.Error("an error body must not parse as a result")
	}
}
