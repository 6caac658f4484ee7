package diskstore

// index.db persists the store's derived open-time structures — the
// label-scan index and (redundantly, for validation) the symbol tables —
// so reopening a store costs O(index size) instead of a full vertex
// scan. The file is advisory: it is rewritten by every commit via
// writeFileAtomic, carries a CRC, and is cross-checked against the
// manifest on load; if it is missing, torn, or out of step, Open silently
// falls back to rebuilding the index by scanning vertices.
//
// Layout (little-endian):
//
//	magic   [8]byte  "PGSIDX07"
//	crc32   u32      IEEE CRC of everything after this field
//	numVertices, numEdges  u64 × 2   (validated vs manifest)
//	labels, types, keys   3 × (u32 count, then per entry u32 len + bytes)
//	label index           u32 count (== len(labels)), then per label:
//	                      u64 entry count + that many u64 VIDs, in the
//	                      in-memory order of the scan index (VID order
//	                      in a generation Finalize wrote)
//
// A statistics block follows the postings:
//
//	present      u8  0 = the epoch carried no statistics (stop here),
//	                 1 = type counts follow
//	type counts  u32 count, then u64 per edge type (typeID order)
//
// The block is advisory like everything else here: a store that loads
// postings but not statistics answers EdgeTypeCounts with nil.
import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/storage"
)

const indexMagic = "PGSIDX07"

// indexPath is the index file of one base generation (index.db, or
// index.db.gN for generation N — the index describes one generation's
// postings, so it lives and dies with that generation's files).
func (s *Store) indexPath(gen int64) string {
	return filepath.Join(s.dir, genFileName(indexFileName, gen))
}

// writeIndex serializes the epoch's label index and the given symbol
// tables and atomically replaces the generation's index file.
func (s *Store) writeIndex(ep *epoch, labels, types, keys []string) error {
	var buf []byte
	var scratch [8]byte
	u32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		buf = append(buf, scratch[:4]...)
	}
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		buf = append(buf, scratch[:]...)
	}
	str := func(x string) {
		u32(uint32(len(x)))
		buf = append(buf, x...)
	}
	u64(uint64(ep.numVertices))
	u64(uint64(ep.numEdges))
	for _, table := range [][]string{labels, types, keys} {
		u32(uint32(len(table)))
		for _, entry := range table {
			str(entry)
		}
	}
	u32(uint32(len(labels)))
	for id := range labels {
		vids := ep.byLabel[id]
		u64(uint64(len(vids)))
		for _, v := range vids {
			u64(uint64(v))
		}
	}
	if !ep.statsValid {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		u32(uint32(len(ep.typeCounts)))
		for _, c := range ep.typeCounts {
			u64(uint64(c))
		}
	}
	out := make([]byte, 0, len(indexMagic)+4+len(buf))
	out = append(out, indexMagic...)
	binary.LittleEndian.PutUint32(scratch[:4], crc32.ChecksumIEEE(buf))
	out = append(out, scratch[:4]...)
	out = append(out, buf...)
	return writeFileAtomic(s.indexPath(ep.gen), out)
}

// loadIndex restores the label index from index.db, reporting success.
// Any inconsistency — missing file, bad magic or CRC, counts or symbol
// tables disagreeing with the already-loaded manifest — makes it report
// false without touching store state, and the caller rebuilds by
// scanning.
func (s *Store) loadIndex(ep *epoch) bool {
	data, err := os.ReadFile(s.indexPath(ep.gen))
	if err != nil || len(data) < len(indexMagic)+4 || string(data[:len(indexMagic)]) != indexMagic {
		return false
	}
	payload := data[len(indexMagic)+4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[len(indexMagic):]) {
		return false
	}
	r := idxReader{data: payload, ok: true}
	if int64(r.u64()) != ep.numVertices || int64(r.u64()) != ep.numEdges {
		return false
	}
	for _, table := range [][]string{s.labels, s.types, s.keys} {
		if int(r.u32()) != len(table) {
			return false
		}
		for _, want := range table {
			if r.str() != want {
				return false
			}
		}
	}
	if int(r.u32()) != len(s.labels) {
		return false
	}
	byLabel := make(map[int][]storage.VID, len(s.labels))
	for id := range s.labels {
		n := r.u64()
		if !r.ok || n > uint64(ep.numVertices) {
			return false
		}
		vids := make([]storage.VID, 0, n)
		for i := uint64(0); i < n; i++ {
			v := storage.VID(r.u64())
			if v < 0 || int64(v) >= ep.numVertices {
				return false
			}
			vids = append(vids, v)
		}
		if len(vids) > 0 {
			byLabel[id] = vids
		}
	}
	// Statistics block — consumed before the trailing-bytes check so the
	// file validates end-to-end.
	var typeCounts []int64
	statsValid := false
	present := r.u8()
	if !r.ok {
		return false
	}
	if present == 1 {
		nt := r.u32()
		if !r.ok || uint64(nt) > uint64(len(r.data))/8 {
			return false
		}
		typeCounts = make([]int64, nt)
		for i := range typeCounts {
			typeCounts[i] = int64(r.u64())
		}
		statsValid = true
	}
	if !r.ok || len(r.data) != 0 {
		return false
	}
	ep.byLabel = byLabel
	ep.typeCounts = typeCounts
	ep.statsValid = statsValid
	return true
}

// idxReader is a bounds-checked little-endian decoder; after any
// overrun, ok is false and every read returns zero values.
type idxReader struct {
	data []byte
	ok   bool
}

func (r *idxReader) take(n int) []byte {
	if !r.ok || len(r.data) < n {
		r.ok = false
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

func (r *idxReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *idxReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *idxReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *idxReader) str() string {
	n := r.u32()
	if !r.ok || uint64(n) > uint64(len(r.data)) {
		r.ok = false
		return ""
	}
	return string(r.take(int(n)))
}
