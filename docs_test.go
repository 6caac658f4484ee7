package repro

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPackageDocs is the docs-freshness guard (also run as a dedicated CI
// step): every package under internal/ and cmd/ must carry a package doc
// comment in at least one of its non-test files, so `go doc` output stays
// useful end to end.
func TestPackageDocs(t *testing.T) {
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			files, globErr := filepath.Glob(filepath.Join(path, "*.go"))
			if globErr != nil {
				return globErr
			}
			documented := false
			sources := 0
			for _, f := range files {
				if strings.HasSuffix(f, "_test.go") {
					continue
				}
				sources++
				fset := token.NewFileSet()
				parsed, perr := parser.ParseFile(fset, f, nil, parser.PackageClauseOnly|parser.ParseComments)
				if perr != nil {
					t.Errorf("%s: %v", f, perr)
					continue
				}
				if parsed.Doc != nil && strings.TrimSpace(parsed.Doc.Text()) != "" {
					documented = true
				}
			}
			if sources > 0 && !documented {
				t.Errorf("package %s has no package doc comment (add a `// Package ...` or `// Command ...` comment)", path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDocsPresentAndLinked keeps the docs layer from silently rotting:
// the two reference documents must exist, cover their load-bearing
// topics, and be linked from the README.
func TestDocsPresentAndLinked(t *testing.T) {
	docs := map[string][]string{
		// Each doc must mention these markers; they are the pieces most
		// likely to be invalidated by code changes, so a rewrite that
		// removes them should revisit the doc.
		"docs/ARCHITECTURE.md": {
			"manifest", "degrees.db", "shard", "clock", "latch",
			"build-then-concurrent-read", "singleflight",
			// The one on-disk format: the persisted index, the two
			// adjacency states and the bulk-load finalize contract, the
			// delta-varint segment layout, the mmap read contract, the
			// persisted-statistics block (with its two consumers), and
			// the refuse-then-Upgrade path for legacy stores must stay
			// documented alongside the code that implements them.
			"index.db", "segmented", "Compact", "Finalize",
			"ErrFinalized", "BulkVertex.Props", "writeFileAtomic", "commit point",
			"Format v5", "delta-varint", "uvarint", "firstOutEID",
			"bytes-per-edge", "Options.Mmap", "never goes stale",
			"PGSIDX05", "bloom", "MayHaveProp", "EdgeTypeCounts",
			"FromStorage", "pgs_stats_bloom_skips_total",
			"compression_ratio", "Upgrade", "ErrLegacyFormat",
			// Serving layer: admission control, shutdown semantics, and
			// the stats endpoint schema must stay documented.
			"Serving layer", "pgsserve", "429", "admission", "drain",
			"/stats", "Prepared.Exec", "query.Sink", "go run ./benchmark", "top_queries",
			// Durability: the WAL/delta live-write path, its checkpoint
			// protocol, and the crash-recovery contract must stay
			// documented alongside the recovery code.
			"wal.db", "group commit", "delta segment", "wal_seq",
			"ErrFinalizeInterrupted", "/mutate", "crashtest",
			"Crash matrix",
			// Intra-query parallelism: the morsel partitioning hook, the
			// bounded-memory merge pipeline, and the knob that composes
			// with admission must stay documented.
			"Query execution", "morsel", "PlanVertexScan",
			"query-workers", "top-k", "MinParallelRootCount",
			// Background compaction: the epoch/snapshot machinery, its
			// commit point, the WAL epoch routing, and the harnesses
			// that enforce it must stay documented.
			"Background compaction", "epoch", "AcquireSnapshot",
			"ErrCompactInProgress", "/admin/compact", "auto-compact",
			"fold.tmp", "OracleRun", "FuzzWALReplay", "PinnedSnapshots",
			// Observability: the metrics registry, the Prometheus
			// exposition and its strict checker, request-ID propagation,
			// PROFILE traces, the slow-query log, and pprof wiring must
			// stay documented alongside the code.
			"Observability", "obs.Registry", "/metrics", "promcheck",
			"X-Request-Id", "PROFILE", "plan_cache_hit", "slow-query",
			"pgs_server_requests_total", "pprof-addr", "metrics-smoke",
		},
		"docs/QUERY_LANGUAGE.md": {
			"MATCH", "RETURN", "DISTINCT", "ORDER BY", "LIMIT",
			"OPTIONAL MATCH", "Variable-length", "Edge property",
		},
	}
	for path, markers := range docs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("missing doc: %v", err)
			continue
		}
		text := string(data)
		for _, m := range markers {
			if !strings.Contains(text, m) {
				t.Errorf("%s no longer mentions %q; update the doc alongside the code", path, m)
			}
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, link := range []string{"docs/ARCHITECTURE.md", "docs/QUERY_LANGUAGE.md"} {
		if !strings.Contains(string(readme), link) {
			t.Errorf("README.md does not link %s", link)
		}
	}
}
