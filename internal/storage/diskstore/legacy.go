package diskstore

// Upgrade's legacy enumerator: the readers of format versions 2 to 5.
// Only an Upgrade's source epoch holds a legacySource, and only
// writeGeneration reads it — vertex labels and property runs through
// sourceVertex, edges through forEachEdgeLite — so none of this is on a
// serving path.
//
// Those formats share a 64-byte vertex record — an in-use flag (byte 0),
// the label bitset (bytes 1-16), the head of a property chain (33-40,
// record ID + 1), untyped degrees (41-48) and the head of a per-type
// degree-record chain (49-56, record ID + 1) — and 32-byte property
// records linked through a next field (bytes 22-29). Their edges are
// either 64-byte edge records in EID order (v2-v4, and a v5 store an
// earlier build left unfinalized, with manifest "compressed" false) or,
// in a finalized v5 store, delta-varint segments located by 64-byte
// degree records in degrees.db: type (bytes 1-4), next (13-20), the out
// segment's offset + 1 (21-28) and length (37-40), and its first out-EID
// + 1 (45-52). The segments decode as this format's (see segcodec.go).

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/graph"
	"repro/internal/storage"
)

const (
	// legacyDegreesName is v2-v5's per-type degree-record file.
	legacyDegreesName = "degrees.db"
	legacyPropRecSize = 32
	legacyEdgeRecSize = 64
	legacyDegRecSize  = 64
)

// legacySource is what an Upgrade's source epoch knows beyond the files
// its pager serves: whether edges.db holds v5 segments (else edge
// records), and the degree-record file that locates them.
type legacySource struct {
	segments bool
	degrees  *os.File
}

// openLegacy readies the legacy readers for a store with manifest m,
// whose current generation is gen.
func openLegacy(dir string, gen int64, m manifest) (*legacySource, error) {
	src := &legacySource{segments: m.Version == 5 && m.Compressed}
	if src.segments {
		f, err := os.Open(filepath.Join(dir, genFileName(legacyDegreesName, gen)))
		if err != nil {
			return nil, err
		}
		src.degrees = f
	}
	return src, nil
}

// legacyVertexRec is the part of a legacy vertex record Upgrade reads.
type legacyVertexRec struct {
	labels              [2]uint64
	firstProp, firstDeg int64 // record ID + 1; 0 = none
}

func (ep *epoch) readLegacyVertex(v storage.VID) (legacyVertexRec, error) {
	var buf [vertexRecSize]byte
	if err := ep.pager.read(fileVertices, int64(v)*vertexRecSize, buf[:]); err != nil {
		return legacyVertexRec{}, err
	}
	return legacyVertexRec{
		labels:    [2]uint64{binary.LittleEndian.Uint64(buf[1:]), binary.LittleEndian.Uint64(buf[9:])},
		firstProp: int64(binary.LittleEndian.Uint64(buf[33:])),
		firstDeg:  int64(binary.LittleEndian.Uint64(buf[49:])),
	}, nil
}

// sourceVertex reads base vertex v as writeGeneration consumes it: its
// label bitset and its properties, appended to run in stored order (on a
// current epoch, by key ID). runBuf and blobBuf are scratch.
func (ep *epoch) sourceVertex(v storage.VID, run []keyVal, runBuf, blobBuf *[]byte) ([2]uint64, []keyVal, error) {
	if ep.legacy != nil {
		return ep.legacyVertex(v, run, blobBuf)
	}
	rec, err := ep.readVertex(v)
	if err != nil {
		return rec.labels, nil, err
	}
	data, err := ep.readRun(rec, runBuf)
	if err != nil {
		return rec.labels, nil, fmt.Errorf("vertex %d: %w", v, err)
	}
	for i := range len(data) / propRecSize {
		pr := decodePropRec(data[i*propRecSize:])
		val, err := ep.decodeValue(pr, blobBuf)
		if err != nil {
			return rec.labels, nil, fmt.Errorf("vertex %d key %d: %w", v, pr.keyID, err)
		}
		run = append(run, keyVal{keyID: int(pr.keyID), val: val})
	}
	return rec.labels, run, nil
}

// legacyVertex is sourceVertex on a legacy epoch: the labels, and the
// property chain in chain order.
func (ep *epoch) legacyVertex(v storage.VID, run []keyVal, blobBuf *[]byte) ([2]uint64, []keyVal, error) {
	rec, err := ep.readLegacyVertex(v)
	if err != nil {
		return rec.labels, nil, err
	}
	for p, steps := rec.firstProp, int64(0); p != 0; steps++ {
		if p < 0 || steps >= ep.numProps {
			return rec.labels, nil, corruptf("vertex %d's property chain leaves props.db", v)
		}
		var buf [legacyPropRecSize]byte
		if err := ep.pager.read(fileProps, (p-1)*legacyPropRecSize, buf[:]); err != nil {
			return rec.labels, nil, err
		}
		keyID := binary.LittleEndian.Uint32(buf[1:])
		n := binary.LittleEndian.Uint64(buf[14:])
		if n > math.MaxUint32 {
			return rec.labels, nil, corruptf("vertex %d's %d-byte value", v, n)
		}
		val, err := ep.decodeValue(propRec{keyID: keyID, kind: graph.Kind(buf[5]), a: binary.LittleEndian.Uint64(buf[6:]), b: uint32(n)}, blobBuf)
		if err != nil {
			return rec.labels, nil, fmt.Errorf("vertex %d key %d: %w", v, keyID, err)
		}
		run = append(run, keyVal{keyID: int(keyID), val: val})
		p = int64(binary.LittleEndian.Uint64(buf[22:]))
	}
	return rec.labels, run, nil
}

// legacyEdges is forEachEdgeLite on a legacy epoch: the edge records in
// EID order, or a v5 store's segments through each vertex's degree chain
// (vertex order x ascending type x ascending dst, which is its EID order).
func (ep *epoch) legacyEdges(fn func(edgeLite) error) error {
	if !ep.legacy.segments {
		for e := int64(0); e < ep.numEdges; e++ {
			var buf [legacyEdgeRecSize]byte
			if err := ep.pager.read(fileEdges, e*legacyEdgeRecSize, buf[:]); err != nil {
				return fmt.Errorf("read edge %d: %w", e, err)
			}
			if err := fn(edgeLite{
				typeID: binary.LittleEndian.Uint32(buf[1:]),
				src:    int64(binary.LittleEndian.Uint64(buf[5:])),
				dst:    int64(binary.LittleEndian.Uint64(buf[13:])),
			}); err != nil {
				return err
			}
		}
		return nil
	}
	st, err := ep.legacy.degrees.Stat()
	if err != nil {
		return err
	}
	numDegs := st.Size() / legacyDegRecSize
	var seg []byte
	for v := int64(0); v < ep.numVertices; v++ {
		rec, err := ep.readLegacyVertex(storage.VID(v))
		if err != nil {
			return err
		}
		for d, steps := rec.firstDeg, int64(0); d != 0; steps++ {
			if d < 0 || steps >= numDegs {
				return corruptf("vertex %d's degree chain leaves degrees.db", v)
			}
			var buf [legacyDegRecSize]byte
			if _, err := ep.legacy.degrees.ReadAt(buf[:], (d-1)*legacyDegRecSize); err != nil {
				return fmt.Errorf("read degree record %d: %w", d-1, err)
			}
			typeID := binary.LittleEndian.Uint32(buf[1:])
			d = int64(binary.LittleEndian.Uint64(buf[13:]))
			off := int64(binary.LittleEndian.Uint64(buf[21:])) - 1
			n := int64(binary.LittleEndian.Uint32(buf[37:]))
			firstEID := int64(binary.LittleEndian.Uint64(buf[45:])) - 1
			if n == 0 {
				continue
			}
			if off < 0 || off > ep.edgeBytes || n > ep.edgeBytes-off {
				return corruptf("vertex %d's type-%d segment [%d,+%d) outside edges.db", v, typeID, off, n)
			}
			seg = takeScratch(&seg, int(n))
			if err := ep.pager.read(fileEdges, off, seg); err != nil {
				return err
			}
			var fnErr error
			if _, err := decodeSeg(seg, true, uint64(firstEID), func(_ storage.EID, dst storage.VID) bool {
				fnErr = fn(edgeLite{src: v, dst: int64(dst), typeID: typeID})
				return fnErr == nil
			}); err != nil {
				return fmt.Errorf("vertex %d type %d: %w", v, typeID, err)
			}
			if fnErr != nil {
				return fnErr
			}
		}
	}
	return nil
}
