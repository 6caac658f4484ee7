package diskstore

// storage.Statistics: real per-label and per-edge-type cardinalities.
// The label counts come from the label index, which Open builds from
// vertices.db; the type counts are persisted in index.db's statistics
// block (see index.go), rebuilt on every Finalize/Compact and by Open's
// scan.

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
// (a store with no generation written yet).
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
