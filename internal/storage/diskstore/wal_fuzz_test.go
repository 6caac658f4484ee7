package diskstore

// FuzzWALReplay drives parseWAL — the single entry point crash recovery
// trusts — with corrupted, truncated, and epoch-mixed streams. The
// properties under test are the recovery contract:
//
//   - replay is a clean-prefix function: whatever it returns re-parses
//     identically from the clean prefix alone, and truncating the input
//     anywhere can only shorten the result, never change or reorder it
//     (so a torn tail cannot drop an earlier acknowledged record);
//   - the returned batches always satisfy the log invariants — strictly
//     increasing sequences, non-decreasing epochs, no epoch beyond the
//     manifest's committed generation (so a record appended under a
//     generation that never committed can never be resurrected);
//   - a well-formed stream parses back exactly, and corrupting a byte
//     never disturbs the records wholly before the corruption.

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/storage"
)

// appendWALRecord frames one batch exactly like wal.append.
func appendWALRecord(stream []byte, seq uint64, epoch uint32, ops []storage.Mutation) []byte {
	opsB, err := encodeWALOps(ops)
	if err != nil {
		panic(err)
	}
	payload := binary.LittleEndian.AppendUint64(nil, seq)
	payload = binary.LittleEndian.AppendUint32(payload, epoch)
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(ops)))
	payload = append(payload, opsB...)
	stream = binary.LittleEndian.AppendUint32(stream, uint32(len(payload)))
	stream = binary.LittleEndian.AppendUint32(stream, crc32.ChecksumIEEE(payload))
	return append(stream, payload...)
}

func batchesEqual(a, b []walBatch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].seq != b[i].seq || a[i].epoch != b[i].epoch || !sameOps(a[i].ops, b[i].ops) {
			return false
		}
	}
	return true
}

// sameOps is reflect.DeepEqual for mutations, except that the Values
// compare by identity (sameValue) rather than by their string's address.
func sameOps(a, b []storage.Mutation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !sameValue(x.Value, y.Value) {
			return false
		}
		x.Value, y.Value = graph.Null, graph.Null
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// sameValue reports whether two values are the same value: one kind, the
// same bits for a number or bool, the same bytes for a string, and lists
// the same element by element. Unlike Value.Equal, INT 1 is not DOUBLE 1.0
// and -0.0 is not 0.0.
func sameValue(a, b graph.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case graph.KindString:
		return a.Str() == b.Str()
	case graph.KindInt:
		return a.Int() == b.Int()
	case graph.KindFloat:
		return graph.FloatBits(a.Float()) == graph.FloatBits(b.Float())
	case graph.KindBool:
		return a.Bool() == b.Bool()
	case graph.KindList:
		al, bl := a.List(), b.List()
		if len(al) != len(bl) {
			return false
		}
		for i := range al {
			if !sameValue(al[i], bl[i]) {
				return false
			}
		}
	}
	return true
}

// checkInvariants asserts the log invariants on a parse result.
func checkInvariants(t *testing.T, batches []walBatch, cleanOff int64, n int, maxEpoch uint32) {
	t.Helper()
	if cleanOff < 0 || cleanOff > int64(n) {
		t.Fatalf("cleanOff %d outside [0,%d]", cleanOff, n)
	}
	var lastSeq uint64
	var lastEpoch uint32
	for i, b := range batches {
		if i > 0 && b.seq <= lastSeq {
			t.Fatalf("batch %d: seq %d not strictly increasing after %d", i, b.seq, lastSeq)
		}
		if i > 0 && b.epoch < lastEpoch {
			t.Fatalf("batch %d: epoch %d decreased after %d", i, b.epoch, lastEpoch)
		}
		if b.epoch > maxEpoch {
			t.Fatalf("batch %d: epoch %d beyond committed generation %d leaked through replay", i, b.epoch, maxEpoch)
		}
		lastSeq, lastEpoch = b.seq, b.epoch
	}
}

func FuzzWALReplay(f *testing.F) {
	// Seed with a well-formed three-record stream spanning an epoch bump,
	// plus degenerate inputs.
	seed := appendWALRecord(nil, 1, 0, []storage.Mutation{{Op: storage.MutAddVertex, Labels: []string{"A", "B"}}})
	seed = appendWALRecord(seed, 2, 0, []storage.Mutation{
		{Op: storage.MutSetProp, V: 3, Key: "k", Value: graph.S("hello")},
		{Op: storage.MutAddEdge, Src: 1, Dst: 2, Type: "t"},
	})
	seed = appendWALRecord(seed, 7, 1, []storage.Mutation{{Op: storage.MutAddLabel, V: 0, Label: "L"}})
	f.Add(seed, uint32(1), uint16(11), uint32(5))
	f.Add([]byte{}, uint32(0), uint16(0), uint32(0))
	f.Add([]byte("not a wal at all, definitely"), uint32(3), uint16(4), uint32(9))

	f.Fuzz(func(t *testing.T, raw []byte, maxEpoch uint32, cut uint16, flip uint32) {
		// Arbitrary bytes: the parse must be a stable clean prefix.
		batches, off := parseWAL(raw, maxEpoch)
		checkInvariants(t, batches, off, len(raw), maxEpoch)
		re, reOff := parseWAL(raw[:off], maxEpoch)
		if reOff != off || !batchesEqual(re, batches) {
			t.Fatalf("re-parsing the clean prefix diverged: %d/%d batches, cleanOff %d vs %d", len(re), len(batches), reOff, off)
		}

		// Truncation anywhere yields a prefix of the full parse — a torn
		// tail can only cost the torn record, never an earlier one.
		k := int(cut) % (len(raw) + 1)
		tb, tOff := parseWAL(raw[:k], maxEpoch)
		checkInvariants(t, tb, tOff, k, maxEpoch)
		if len(tb) > len(batches) || !batchesEqual(tb, batches[:len(tb)]) {
			t.Fatalf("truncating at %d produced %d batches that are not a prefix of the full parse's %d", k, len(tb), len(batches))
		}

		// Epoch-mixed well-formed stream derived from the fuzz input:
		// parse must return exactly the records up to the first one
		// claiming an uncommitted generation.
		var stream []byte
		var recs []walBatch
		ends := []int64{0}
		seq, epoch := uint64(0), uint32(0)
		for i := 0; i+2 <= len(raw) && i < 16; i += 2 {
			seq += uint64(raw[i]%7) + 1        // strictly increasing, arbitrary gaps
			epoch += uint32(raw[i+1] % 3)      // non-decreasing, sometimes jumping
			val := graph.I(int64(raw[i]) << 3) // payload varies with input
			ops := []storage.Mutation{
				{Op: storage.MutAddVertex, Labels: []string{"F"}},
				{Op: storage.MutSetProp, V: storage.VID(i), Key: "p", Value: val},
			}
			stream = appendWALRecord(stream, seq, epoch, ops)
			recs = append(recs, walBatch{seq: seq, epoch: epoch, ops: ops})
			ends = append(ends, int64(len(stream)))
		}
		wantN := 0
		for wantN < len(recs) && recs[wantN].epoch <= maxEpoch {
			wantN++
		}
		got, gotOff := parseWAL(stream, maxEpoch)
		if !batchesEqual(got, recs[:wantN]) || gotOff != ends[wantN] {
			t.Fatalf("well-formed stream: got %d batches (cleanOff %d), want %d (cleanOff %d)", len(got), gotOff, wantN, ends[wantN])
		}

		// Flip one byte: every record wholly before the corruption must
		// survive untouched (CRC localizes damage to its own record).
		if len(stream) > 0 {
			pos := int(flip) % len(stream)
			mut := append([]byte(nil), stream...)
			mut[pos] ^= 0x5a
			intact := 0
			for intact < wantN && ends[intact+1] <= int64(pos) {
				intact++
			}
			cb, cbOff := parseWAL(mut, maxEpoch)
			checkInvariants(t, cb, cbOff, len(mut), maxEpoch)
			if len(cb) < intact || !batchesEqual(cb[:intact], recs[:intact]) {
				t.Fatalf("corruption at byte %d disturbed one of the %d records before it (got %d batches)", pos, intact, len(cb))
			}
		}
	})
}
