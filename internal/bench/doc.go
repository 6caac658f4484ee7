// Package bench is the experiment harness: one driver per table/figure of
// the paper's evaluation (§5), shared by cmd/pgsbench and the repository's
// testing.B benchmarks. Each driver returns typed rows that print in the
// same shape the paper reports.
//
// An Env bundles one generated dataset (MED or FIN) with the Options that
// scale it; drivers load the dataset into a backend (memstore or
// diskstore), run their experiment, and clean up. Beyond the paper's
// figures, IntraQueryScaling measures how one query scales over morsel
// workers (optionally in the disk-bound regime via Env.WithCachePages).
// Nothing here drives HTTP traffic or measures storage on its own: load,
// open, restart, live writes and compaction are measured by benchmark/
// against a real pgsserve, and crash recovery by the diskstore/crashtest
// package's tests.
//
// Format* helpers render each row type as the text table cmd/pgsbench
// prints.
package bench
