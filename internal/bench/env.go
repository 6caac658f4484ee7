package bench

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/loader"
	"repro/internal/ontology"
	"repro/internal/optimizer"
	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/memstore"
	"repro/internal/workload"
)

// Options scales the experiments.
type Options struct {
	// BaseCard is instances per ordinary concept (default: 120 for MED,
	// 40 for FIN — FIN's deep hierarchy multiplies facets).
	MedCard int
	FinCard int
	// Seed drives data generation and workload sampling.
	Seed int64
	// DataDir hosts diskstore files (default: a temp dir).
	DataDir string
	// CachePages is the diskstore page-cache size; small values make the
	// backend disk-bound like the paper's Neo4j (default 64 pages).
	CachePages int
	// WorkloadQueries is the mixed-workload size (default 15, §5.3).
	WorkloadQueries int
	// Reps repeats each timed query and reports the total, following the
	// paper's "total time of all queries ... executed in sequential
	// order" (default 3).
	Reps int
}

func (o Options) withDefaults() Options {
	if o.MedCard == 0 {
		o.MedCard = 120
	}
	if o.FinCard == 0 {
		o.FinCard = 40
	}
	if o.Seed == 0 {
		o.Seed = 2021
	}
	if o.CachePages == 0 {
		o.CachePages = 64
	}
	if o.WorkloadQueries == 0 {
		o.WorkloadQueries = 15
	}
	if o.Reps == 0 {
		o.Reps = 3
	}
	return o
}

// Env is one dataset prepared for experiments.
type Env struct {
	Name     string
	Ontology *ontology.Ontology
	Dataset  *datagen.Dataset
	Opts     Options
}

// NewEnv generates the named dataset ("MED" or "FIN").
func NewEnv(name string, opts Options) (*Env, error) {
	opts = opts.withDefaults()
	var o *ontology.Ontology
	card := opts.MedCard
	switch name {
	case "MED":
		o = datagen.MED()
	case "FIN":
		o = datagen.FIN()
		card = opts.FinCard
	default:
		return nil, fmt.Errorf("bench: unknown dataset %q", name)
	}
	ds, err := datagen.Generate(o, datagen.Options{Seed: opts.Seed, BaseCard: card})
	if err != nil {
		return nil, err
	}
	return &Env{Name: name, Ontology: o, Dataset: ds, Opts: opts}, nil
}

// Inputs assembles optimizer inputs with the dataset's true statistics
// and the given workload summary (nil = uniform).
func (e *Env) Inputs(af *ontology.AccessFrequencies, cfg core.Config) (*optimizer.Inputs, error) {
	return optimizer.NewInputs(e.Ontology, e.Dataset.Stats, af, cfg)
}

// WorkloadAF generates a workload and returns its access summary.
func (e *Env) WorkloadAF(dist workload.Distribution, n int) (*workload.Workload, error) {
	return workload.Generate(e.Ontology, n, dist, e.Opts.Seed)
}

// WithCachePages returns a copy of the environment whose diskstore loads
// use a page budget of n pages, sharing the already-generated dataset.
// Used to run the same experiment at different disk-boundedness levels —
// e.g. the parallel-scaling experiment under a deliberately tight cache.
func (e *Env) WithCachePages(n int) *Env {
	c := *e
	c.Opts.CachePages = n
	return &c
}

// Backend identifies a storage backend in results.
type Backend string

// The two backends standing in for the paper's JanusGraph and Neo4j.
const (
	Memstore  Backend = "memstore"  // in-memory (JanusGraph-like)
	Diskstore Backend = "diskstore" // record store + page cache (Neo4j-like)
)

// openStore creates a fresh store for the backend; the cleanup removes
// any on-disk state.
func (e *Env) openStore(b Backend, tag string) (storage.Builder, func(), error) {
	switch b {
	case Memstore:
		return memstore.New(), func() {}, nil
	case Diskstore:
		base := e.Opts.DataDir
		if base == "" {
			base = os.TempDir()
		}
		dir, err := os.MkdirTemp(base, "pgs-"+e.Name+"-"+tag+"-*")
		if err != nil {
			return nil, nil, err
		}
		st, err := diskstore.Open(dir, diskstore.Options{CachePages: e.Opts.CachePages})
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		cleanup := func() {
			st.Close()
			os.RemoveAll(dir)
		}
		return st, cleanup, nil
	default:
		return nil, nil, fmt.Errorf("bench: unknown backend %q", b)
	}
}

// load instantiates the dataset under the mapping on the backend.
func (e *Env) load(b Backend, tag string, m *core.Mapping) (storage.Builder, func(), error) {
	st, cleanup, err := e.openStore(b, tag)
	if err != nil {
		return nil, nil, err
	}
	if _, _, err := loader.Load(st, e.Dataset, m); err != nil {
		cleanup()
		return nil, nil, err
	}
	if ds, ok := st.(*diskstore.Store); ok {
		// Start measurements from a cold cache, like a freshly booted
		// disk-based system.
		if err := ds.DropCache(); err != nil {
			cleanup()
			return nil, nil, err
		}
		ds.ResetStats()
	}
	return st, cleanup, nil
}

// timeIt measures the wall time of fn in milliseconds.
func timeIt(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return float64(time.Since(start).Microseconds()) / 1000, err
}
