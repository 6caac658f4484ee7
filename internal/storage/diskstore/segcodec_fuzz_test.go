package diskstore

// FuzzSegcodec drives the adjacency segment decoders — the bytes every
// traversal of a finalized store reads from edges.db — with arbitrary
// input, and the encoders with lists generated from it:
//
//   - decoding never panics and stops on the first bad varint: it emits
//     exactly the entries an independent front-to-back Uvarint scan finds
//     whole, and reports completion only if that scan consumed every byte;
//   - a sorted dst list (out segment) or (src, eid) list (in segment)
//     round-trips through appendOutSeg/appendInSeg and back, with the out
//     segment's EIDs contiguous from the descriptor's first EID.

import (
	"encoding/binary"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

// realSegments returns the first non-empty out and in segment of a small
// finalized store, as seed corpus.
func realSegments(f *testing.F) (out, in []byte) {
	s, err := Open(f.TempDir(), Options{PageSize: 512, CachePages: 32})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	if _, err := storetest.BuildRandom(s, 21, 60, 160); err != nil {
		f.Fatal(err)
	}
	ep := s.curEp()
	var sc []byte
	for v := int64(0); v < ep.numVertices && (out == nil || in == nil); v++ {
		rec, err := ep.readVertex(storage.VID(v))
		if err != nil {
			f.Fatal(err)
		}
		block, err := ep.readBlock(rec, &sc, false)
		if err != nil {
			f.Fatal(err)
		}
		if err := walkDir(rec, block, func(d dirEntry, outOff, inOff, _ uint64) bool {
			if out == nil && d.outLen > 1 {
				out = append([]byte(nil), block[outOff:outOff+uint64(d.outLen)]...)
			}
			if in == nil && d.inLen > 2 {
				in = append([]byte(nil), block[inOff:inOff+uint64(d.inLen)]...)
			}
			return true
		}); err != nil {
			f.Fatal(err)
		}
	}
	if out == nil || in == nil {
		f.Fatal("seed store has no multi-edge segment")
	}
	return out, in
}

// wholeVarints counts the uvarints a front-to-back scan of data decodes
// before the first malformed one, and reports whether it consumed data.
func wholeVarints(data []byte) (n int, all bool) {
	for len(data) > 0 {
		_, w := binary.Uvarint(data)
		if w <= 0 {
			return n, false
		}
		data = data[w:]
		n++
	}
	return n, true
}

func FuzzSegcodec(f *testing.F) {
	out, in := realSegments(f)
	f.Add(out, int64(17))
	f.Add(in, int64(0))
	f.Add([]byte{}, int64(0))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, int64(3)) // overlong varint
	f.Add([]byte{0x05, 0xff}, int64(1))                                                       // torn tail

	f.Fuzz(func(t *testing.T, raw []byte, firstEID int64) {
		firstEID &= 1<<40 - 1
		whole, all := wholeVarints(raw)

		// Arbitrary bytes as an out segment: one entry per whole varint.
		emitted := 0
		done := decodeOutSeg(raw, firstEID, func(e storage.EID, _ storage.VID) bool {
			if int64(e) != firstEID+int64(emitted) {
				t.Fatalf("out entry %d has EID %d, want contiguous from %d", emitted, e, firstEID)
			}
			emitted++
			return true
		})
		if emitted != whole || done != all {
			t.Fatalf("decodeOutSeg emitted %d entries (done=%v); the varint scan finds %d whole (all=%v)", emitted, done, whole, all)
		}

		// ... and as an in segment: one entry per whole pair.
		emitted = 0
		done = decodeInSeg(raw, func(storage.EID, storage.VID) bool { emitted++; return true })
		if emitted != whole/2 || done != (all && whole%2 == 0) {
			t.Fatalf("decodeInSeg emitted %d entries (done=%v) from %d whole varints (all=%v)", emitted, done, whole, all)
		}

		// A sorted list generated from the input: a wide first value,
		// then one small gap per input byte (zero gaps = parallel edges).
		var start int64
		for i := 0; i < 8 && i < len(raw); i++ {
			start = start<<8 | int64(raw[i])
		}
		start &= 1<<62 - 1
		n := min(len(raw), 64)
		dsts := make([]int64, n)
		srcs := make([]int64, n)
		eids := make([]int64, n)
		var outBuf, inBuf []byte
		for i := 0; i < n; i++ {
			gap := int64(raw[i])
			if i == 0 {
				dsts[i], srcs[i], eids[i] = start, start>>1, firstEID
				outBuf = appendOutSeg(outBuf, dsts[i], 0, true)
				inBuf = appendInSeg(inBuf, srcs[i], 0, eids[i], 0, true)
				continue
			}
			dsts[i], srcs[i], eids[i] = dsts[i-1]+gap, srcs[i-1]+gap/2, eids[i-1]+gap+1
			outBuf = appendOutSeg(outBuf, dsts[i], dsts[i-1], false)
			inBuf = appendInSeg(inBuf, srcs[i], srcs[i-1], eids[i], eids[i-1], false)
		}
		k := 0
		if !decodeOutSeg(outBuf, firstEID, func(e storage.EID, dst storage.VID) bool {
			if k < n && (int64(dst) != dsts[k] || int64(e) != firstEID+int64(k)) {
				t.Fatalf("out round trip: entry %d = (eid %d, dst %d), want (%d, %d)", k, e, dst, firstEID+int64(k), dsts[k])
			}
			k++
			return true
		}) || k != n {
			t.Fatalf("out round trip decoded %d of %d entries", k, n)
		}
		k = 0
		if !decodeInSeg(inBuf, func(e storage.EID, src storage.VID) bool {
			if k < n && (int64(src) != srcs[k] || int64(e) != eids[k]) {
				t.Fatalf("in round trip: entry %d = (eid %d, src %d), want (%d, %d)", k, e, src, eids[k], srcs[k])
			}
			k++
			return true
		}) || k != n {
			t.Fatalf("in round trip decoded %d of %d entries", k, n)
		}
	})
}
