package diskstore

// storage.Statistics: real per-label and per-edge-type cardinalities and
// bloom-backed value-presence probes, persisted in index.db's statistics
// block (see index.go) and rebuilt on every Finalize/Compact.

import (
	"repro/internal/graph"
	"repro/internal/storage"
)

// LabelCounts returns the exact number of vertices per label, including
// any live delta beyond the base.
func (s *Store) LabelCounts() map[string]int {
	s.symMu.RLock()
	labels := append([]string(nil), s.labels...)
	s.symMu.RUnlock()
	out := make(map[string]int, len(labels))
	for _, l := range labels {
		out[l] = s.CountLabel(l)
	}
	return out
}

// EdgeTypeCounts returns per-edge-type counts from the base's persisted
// statistics block. Live delta edges accumulated since the last
// Finalize/Compact are not broken down by type, so counts lag the base
// by at most the delta size; nil means the base carries no statistics
// (a store with no generation written yet, or a torn index file).
func (s *Store) EdgeTypeCounts() map[string]int {
	ep := s.curEp()
	if !ep.statsValid {
		return nil
	}
	s.symMu.RLock()
	types := append([]string(nil), s.types...)
	s.symMu.RUnlock()
	out := make(map[string]int, len(ep.typeCounts))
	for i, c := range ep.typeCounts {
		if i < len(types) {
			out[types[i]] = int(c)
		}
	}
	return out
}

// MayHaveProp reports whether any vertex with the label may carry val
// for the key; false is definitive (see storage.Statistics). Probes hit
// the base's bloom filters; a live delta that created or relabeled
// vertices or overrode properties makes every answer "maybe" until the
// next Compact folds it (edge-only deltas keep the filters definitive —
// edges carry no vertex properties). The store never deletes, so base
// filters can only under-claim, never over-claim, as data grows.
func (s *Store) MayHaveProp(label, key string, val graph.Value) bool {
	lid := s.LabelID(label)
	kid := s.KeyID(key)
	if lid == storage.NoSymbol || kid == storage.NoSymbol {
		// Never-interned symbol: no vertex can match, live or not.
		return false
	}
	ep := s.curEp()
	if s.delta.statsDirty() {
		return true
	}
	if ep != s.curEp() {
		// A background fold committed between the epoch read and the
		// delta check; the pair is not a consistent snapshot. Answer
		// conservatively rather than probe possibly-stale filters.
		return true
	}
	if !ep.statsValid {
		return true
	}
	b := ep.blooms[bloomKey(int(lid), int(kid))]
	if b == nil {
		// The statistics block is present and no (label, key) filter
		// exists: no vertex with this label carried this key at all.
		return false
	}
	return b.mayHaveValue(val)
}
