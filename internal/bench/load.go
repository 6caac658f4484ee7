package bench

// Cold-open and bulk-load experiments for the diskstore: how
// much wall-clock and pager I/O the persisted index saves a restarting
// service, and how much the batched write path saves a dataset load.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/loader"
	"repro/internal/storage/diskstore"
)

// ColdOpenResult is one cold-open measurement of the same on-disk store.
type ColdOpenResult struct {
	// Mode is "indexed" (index.db present, the fast path) or "scan"
	// (index.db removed, forcing the full-vertex rebuild).
	Mode        string
	Ms          float64
	PageReads   int64
	Vertices    int
	Edges       int
	IndexLoaded bool
}

// ColdOpen builds the environment's dataset into a diskstore once,
// then measures reopening it cold two ways: with its persisted index
// (O(index size)) and with index.db deleted (the full-vertex scan an
// open without it pays). The store content is identical in both
// runs; only the open path differs.
func ColdOpen(env *Env) ([]ColdOpenResult, error) {
	base := env.Opts.DataDir
	if base == "" {
		base = os.TempDir()
	}
	dir, err := os.MkdirTemp(base, "pgs-"+env.Name+"-open-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	st, err := diskstore.Open(dir, diskstore.Options{CachePages: env.Opts.CachePages})
	if err != nil {
		return nil, err
	}
	vertices, edges, err := loader.Load(st, env.Dataset, nil)
	if err != nil {
		st.Close()
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}

	var results []ColdOpenResult
	open := func(mode string) error {
		var re *diskstore.Store
		ms, err := timeIt(func() error {
			var oerr error
			re, oerr = diskstore.Open(dir, diskstore.Options{CachePages: env.Opts.CachePages})
			return oerr
		})
		if err != nil {
			return err
		}
		defer re.Close()
		results = append(results, ColdOpenResult{
			Mode:        mode,
			Ms:          ms,
			PageReads:   re.Stats().PageReads,
			Vertices:    vertices,
			Edges:       edges,
			IndexLoaded: re.Format().IndexLoaded,
		})
		return nil
	}
	if err := open("indexed"); err != nil {
		return nil, err
	}
	// The index file carries its generation's suffix (index.db.gN).
	idx, err := filepath.Glob(filepath.Join(dir, "index.db*"))
	if err != nil || len(idx) != 1 {
		return nil, fmt.Errorf("bench: want one index file in %s, found %v (%v)", dir, idx, err)
	}
	if err := os.Remove(idx[0]); err != nil {
		return nil, err
	}
	if err := open("scan"); err != nil {
		return nil, err
	}
	return results, nil
}

// BulkLoadResult is one timed load of the environment's dataset.
type BulkLoadResult struct {
	// Mode is "bulk": the storage.Builder batches with one Finalize.
	Mode     string
	Backend  Backend
	Ms       float64
	Vertices int
	Edges    int
}

// BulkLoad measures loading the environment's dataset through the bulk
// pipeline on the given backend — on diskstore, an in-memory load that
// one Finalize writes as the store's first generation.
func BulkLoad(env *Env, b Backend) ([]BulkLoadResult, error) {
	st, cleanup, err := env.openStore(b, "load-bulk")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	var vertices, edges int
	ms, err := timeIt(func() error {
		var lerr error
		vertices, edges, lerr = loader.Load(st, env.Dataset, nil)
		return lerr
	})
	if err != nil {
		return nil, err
	}
	return []BulkLoadResult{{Mode: "bulk", Backend: b, Ms: ms, Vertices: vertices, Edges: edges}}, nil
}

// FormatColdOpenTable renders cold-open results.
func FormatColdOpenTable(title string, rows []ColdOpenResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-8s %10s %10s %11s %11s %8s\n",
		title, "mode", "vertices", "edges", "open(ms)", "page reads", "indexed")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %10d %10d %11.3f %11d %8v\n",
			r.Mode, r.Vertices, r.Edges, r.Ms, r.PageReads, r.IndexLoaded)
	}
	return b.String()
}

// FormatBulkLoadTable renders bulk-load results.
func FormatBulkLoadTable(title string, rows []BulkLoadResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-12s %-10s %10s %10s %11s\n",
		title, "mode", "backend", "vertices", "edges", "load(ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-10s %10d %10d %11.3f\n",
			r.Mode, r.Backend, r.Vertices, r.Edges, r.Ms)
	}
	return b.String()
}
