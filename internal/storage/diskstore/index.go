package diskstore

// index.db persists what Open cannot derive from vertices.db and the
// manifest — the value postings and the statistics — so reopening a store
// costs O(index size) plus the read of vertices.db instead of a scan of
// every run and directory, and reads no page through the cache. The label
// index comes from vertices.db (loadVertices) and the symbol tables from
// the manifest, so the file names no symbol: it stays valid for its
// generation's whole life, whatever names live writes intern later. The
// file is advisory: every commit writes it via writeFileAtomic, it carries
// a CRC, and it is cross-checked against the manifest on load; if it is
// missing, torn, or out of step, Open silently falls back to rebuilding
// the postings and statistics by scanning vertices.
//
// Layout (little-endian):
//
//	magic   [8]byte  "PGSIDX09"
//	crc32   u32      IEEE CRC of everything after this field
//	numVertices, numEdges  u64 × 2   (validated vs manifest)
//	value postings        the generation's propindex.Index:
//	                      u32 range count, then per range u64 hash,
//	                      u32 label, u32 key, u32 run length (the runs
//	                      lie back to back, so each start is implied);
//	                      u64 posting count + that many u32 VIDs;
//	                      u32 slot count + that many u32 slots
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

	"repro/internal/storage/propindex"
)

const indexMagic = "PGSIDX09"

// indexPath is the index file of one base generation (index.db, or
// index.db.gN for generation N — the index describes one generation's
// postings, so it lives and dies with that generation's files).
func (s *Store) indexPath(gen int64) string {
	return filepath.Join(s.dir, genFileName(indexFileName, gen))
}

// writeIndex serializes the epoch's value postings and statistics and
// atomically replaces the generation's index file. The file is built in
// one buffer of its exact size, the header's CRC filled in last.
func (s *Store) writeIndex(ep *epoch) error {
	vids, ranges, slots := ep.values.Parts()
	size := len(indexMagic) + 4 + 16 + 4 + 20*len(ranges) + 8 + 4*len(vids) + 4 + 4*len(slots) + 1
	if ep.statsValid {
		size += 4 + 8*len(ep.typeCounts)
	}
	buf := make([]byte, len(indexMagic)+4, size)
	copy(buf, indexMagic)
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	u64(uint64(ep.numVertices))
	u64(uint64(ep.numEdges))
	u32(uint32(len(ranges)))
	for _, r := range ranges {
		u64(r.Hash)
		u32(uint32(r.Label))
		u32(uint32(r.Key))
		u32(uint32(r.Hi - r.Lo))
	}
	u64(uint64(len(vids)))
	for _, v := range vids {
		u32(v)
	}
	u32(uint32(len(slots)))
	for _, sl := range slots {
		u32(uint32(sl))
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
	binary.LittleEndian.PutUint32(buf[len(indexMagic):], crc32.ChecksumIEEE(buf[len(indexMagic)+4:]))
	return writeFileAtomic(s.indexPath(ep.gen), buf)
}

// loadIndex restores the value postings and the statistics from
// index.db, reporting success. Any inconsistency — missing file, bad
// magic or CRC, counts disagreeing with the already-loaded manifest,
// postings naming a label or key past the manifest's tables or that
// propindex.FromParts refuses — makes it report false without touching
// store state, and the caller rebuilds by scanning.
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
	values, ok := r.values(ep.numVertices, len(s.labels), len(s.keys))
	if !ok {
		return false
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
	ep.values = values
	ep.typeCounts = typeCounts
	ep.statsValid = statsValid
	return true
}

// values decodes the value postings section. It refuses a range whose
// label or key ID is at or past numLabels or numKeys, the manifest's
// table sizes; propindex.FromParts checks what else the bytes cannot:
// runs that tile the postings in ascending VID order, and a hash table
// that reaches every run.
func (r *idxReader) values(numVertices int64, numLabels, numKeys int) (*propindex.Index, bool) {
	nr := r.u32()
	if !r.ok || uint64(nr) > uint64(len(r.data))/20 {
		return nil, false
	}
	ranges := make([]propindex.Range, nr)
	lo := 0
	for i := range ranges {
		hash, label, key := r.u64(), r.u32(), r.u32()
		if uint64(label) >= uint64(numLabels) || uint64(key) >= uint64(numKeys) {
			return nil, false
		}
		ranges[i] = propindex.Range{Hash: hash, Label: int32(label), Key: int32(key), Lo: lo}
		lo += int(r.u32())
		ranges[i].Hi = lo
	}
	nv := r.u64()
	if !r.ok || nv > uint64(len(r.data))/4 {
		return nil, false
	}
	vids := make([]uint32, nv)
	for i := range vids {
		vids[i] = r.u32()
	}
	ns := r.u32()
	if !r.ok || uint64(ns) > uint64(len(r.data))/4 {
		return nil, false
	}
	slots := make([]int32, ns)
	for i := range slots {
		slots[i] = int32(r.u32())
	}
	if !r.ok {
		return nil, false
	}
	ix, err := propindex.FromParts(vids, ranges, slots, numVertices)
	return ix, err == nil
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
