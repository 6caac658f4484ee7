package query

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/memstore"
	"repro/internal/storage/storetest"
)

// buildWideGraph creates n Drug vertices so a cross-product query has
// enough iterations (n*n) for the cancellation checkpoint to fire.
func buildWideGraph(t *testing.T, n int) storage.Builder {
	t.Helper()
	var g storetest.Batch
	for i := 0; i < n; i++ {
		g.Prop(g.Vertex("Drug"), "name", graph.I(int64(i)))
	}
	return loadMem(t, &g)
}

// TestExecContext is the context contract at both ends of the Workers
// knob: a live cancellable context changes nothing, a context that is
// already canceled or past its deadline is refused before any work.
func TestExecContext(t *testing.T) {
	mem := memstore.New()
	buildPeopleGraph(t, mem, 100)
	p, err := Prepare(mem, cypher.MustParse(`MATCH (p:Person) RETURN p.name ORDER BY p.name`))
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	live, stop := context.WithCancel(context.Background())
	defer stop()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	for _, workers := range []int{1, 4} {
		var st Stats
		o := ExecOptions{Workers: workers, Stats: &st}
		res, err := Collect(live, p, o)
		if err != nil {
			t.Fatalf("workers=%d live context: %v", workers, err)
		}
		if !reflect.DeepEqual(rowStrings(res), rowStrings(want)) {
			t.Errorf("workers=%d live context: rows differ from Execute", workers)
		}
		st = Stats{}
		if _, err := Collect(canceled, p, o); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d pre-canceled context: err = %v, want context.Canceled", workers, err)
		}
		if _, err := Collect(expired, p, o); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("workers=%d expired deadline: err = %v, want context.DeadlineExceeded", workers, err)
		}
		if st != (Stats{}) {
			t.Errorf("workers=%d: a refused context still did work: %+v", workers, st)
		}
	}
}

// cancelAfterGraph cancels a context from inside the store once HasLabelID
// has been called n times, making mid-query cancellation deterministic:
// the executor must notice within cancelMask+1 further iterations.
type cancelAfterGraph struct {
	storage.Graph
	cancel context.CancelFunc
	after  int64
	calls  atomic.Int64
}

func (g *cancelAfterGraph) HasLabelID(v storage.VID, label storage.SymbolID) bool {
	if g.calls.Add(1) == g.after {
		g.cancel()
	}
	return g.Graph.HasLabelID(v, label)
}

func TestExecCancelMidQuery(t *testing.T) {
	const n = 600 // n*n iterations without cancellation
	mem := buildWideGraph(t, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Every scan candidate's label check calls HasLabelID.
	g := &cancelAfterGraph{Graph: mem, cancel: cancel, after: 3 * cancelMask}
	p, err := Prepare(g, cypher.MustParse(`MATCH (a:Drug), (b:Drug) RETURN COUNT(*)`))
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	_, err = Collect(ctx, p, ExecOptions{Stats: &st})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The full cross product scans ~n*n vertices; cancellation must stop
	// the traversal within one checkpoint interval of the cancel call.
	if limit := int64(4*cancelMask + n); st.VerticesScanned > limit {
		t.Errorf("scanned %d vertices after cancel, want <= %d (~one checkpoint interval)", st.VerticesScanned, limit)
	}
	// The plan (and its pooled machine) must stay usable afterwards.
	res, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != n*n {
		t.Errorf("post-cancel run: rows = %v, want one COUNT(*) row of %d", rowStrings(res), n*n)
	}
}
