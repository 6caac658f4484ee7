package diskstore

// wal.db is the write-ahead log for post-finalize live mutations. Every
// ApplyMutations batch becomes one log record, appended and fsynced
// (group commit) before the batch is acknowledged, so an acknowledged
// mutation survives any crash; a crash mid-append leaves a torn tail
// that recovery truncates, so an unacknowledged batch is atomically
// absent after reopen.
//
// Record layout (little-endian), records packed back to back from
// offset 0:
//
//	payloadLen  u32   length of payload
//	crc32       u32   IEEE CRC of payload
//	payload:
//	    seq     u64   batch sequence number, strictly increasing
//	    epoch   u32   base generation the batch was appended under
//	    nops    u16   number of operations in the batch
//	    ops     nops × op
//
// Each op starts with a u8 opcode (walOpAddVertex..walOpAddLabel)
// followed by opcode-specific fields. Strings are u32 length + bytes;
// vertex references are absolute u64 VIDs (batch-relative references
// are resolved before logging, so replay is context-free); property
// values are a u8 graph.Kind followed by a kind-specific encoding.
//
// The sequence number fences replay against the checkpoint protocol:
// a fold (Finalize or Compact on a live store) absorbs the delta prefix
// up to some batch W into the base, commits a manifest whose wal_seq
// records W, and only then rotates the log. A crash between commit and
// rotation leaves records with seq <= wal_seq in the log; replay skips
// them. Records also carry the base generation
// (epoch) they were appended under: epochs are non-decreasing along the
// log, and because the manifest commits before in-memory epoch swap, a
// record claiming a generation newer than the manifest's is impossible
// in a well-formed log — recovery treats it as corruption and truncates
// there. Batches appended mid-fold carry the old epoch with
// seq > wal_seq; replay routes them into the young delta on top of the
// new base, which is exactly where the swap left them in memory.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/storage"
)

const (
	walFileName  = "wal.db"
	walHeaderLen = 8 // payloadLen + crc32
	// walPayloadHeader is the fixed payload prefix: seq + epoch + nops.
	walPayloadHeader = 8 + 4 + 2
	// maxWALRecord bounds a single record; anything larger during replay
	// is treated as a torn/corrupt tail.
	maxWALRecord = 16 << 20
)

const (
	walOpAddVertex uint8 = iota + 1
	walOpAddEdge
	walOpSetProp
	walOpAddLabel
)

// wal is an open write-ahead log with group-commit fsync.
//
// Appends are serialized by appendMu (ApplyMutations additionally holds
// the store's liveMu, but the wal guards itself). fsync uses a leader
// scheme: one goroutine syncs while others wait; the leader captures the
// highest appended sequence number before syncing, so a single fsync
// acknowledges every batch appended before it started — the group
// commit that keeps per-batch latency near one fsync under concurrency
// without issuing one fsync per batch.
type wal struct {
	path string
	f    *os.File

	// appendMu serializes appends and guards size/appendedSeq/nextSeq.
	appendMu    sync.Mutex
	size        int64
	nextSeq     uint64
	appendedSeq uint64

	// syncMu guards the group-commit state: syncing (a leader's fsync is
	// in flight), syncedSeq (highest durable sequence), and err (sticky:
	// after any write/sync failure the log refuses further work, because
	// a failed fsync leaves the kernel's dirty state unknowable).
	syncMu    sync.Mutex
	syncCond  *sync.Cond
	syncing   bool
	syncedSeq uint64
	err       error

	appends   atomic.Int64
	syncs     atomic.Int64
	syncNanos atomic.Int64
	bytes     atomic.Int64
}

// openWAL opens (creating if needed) the log file. The caller replays
// existing records and then seeds the sequence state via seed.
func openWAL(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &wal{path: path, f: f, size: st.Size(), nextSeq: 1}
	w.syncCond = sync.NewCond(&w.syncMu)
	return w, nil
}

// seed positions the log after replay: appends continue at offset size
// with sequence lastSeq+1, and everything up to lastSeq counts as
// durable (it was read back from disk).
func (w *wal) seed(size int64, lastSeq uint64) {
	w.size = size
	w.nextSeq = lastSeq + 1
	w.appendedSeq = lastSeq
	w.syncedSeq = lastSeq
}

// stickyErr returns the sticky failure, if any.
func (w *wal) stickyErr() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.err
}

func (w *wal) fail(err error) {
	w.syncMu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.syncMu.Unlock()
}

// append writes one batch record (not yet durable) and returns its
// sequence number. epoch is the base generation the batch is appended
// under. Call sync(seq) before acknowledging the batch.
func (w *wal) append(ops []byte, nops int, epoch uint32) (uint64, error) {
	if err := w.stickyErr(); err != nil {
		return 0, err
	}
	w.appendMu.Lock()
	defer w.appendMu.Unlock()
	seq := w.nextSeq
	payload := make([]byte, 0, walPayloadHeader+len(ops))
	payload = binary.LittleEndian.AppendUint64(payload, seq)
	payload = binary.LittleEndian.AppendUint32(payload, epoch)
	payload = binary.LittleEndian.AppendUint16(payload, uint16(nops))
	payload = append(payload, ops...)
	rec := make([]byte, 0, walHeaderLen+len(payload))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	rec = append(rec, payload...)
	if _, err := w.f.WriteAt(rec, w.size); err != nil {
		w.fail(err)
		return 0, err
	}
	w.size += int64(len(rec))
	w.nextSeq++
	w.appendedSeq = seq
	w.appends.Add(1)
	w.bytes.Add(int64(len(rec)))
	return seq, nil
}

// sync blocks until sequence number seq is durable. One caller becomes
// the fsync leader; concurrent callers wait and are covered by the
// leader's fsync when their batch was appended before it started, or
// take over as the next leader otherwise.
func (w *wal) sync(seq uint64) error {
	w.syncMu.Lock()
	for w.err == nil && w.syncedSeq < seq && w.syncing {
		w.syncCond.Wait()
	}
	if w.err != nil {
		err := w.err
		w.syncMu.Unlock()
		return err
	}
	if w.syncedSeq >= seq {
		w.syncMu.Unlock()
		return nil
	}
	w.syncing = true
	w.syncMu.Unlock()

	// Capture the cover point before syncing: every batch appended before
	// the fsync starts is on its way to disk and is acknowledged by it.
	w.appendMu.Lock()
	cover := w.appendedSeq
	w.appendMu.Unlock()
	start := time.Now()
	err := w.f.Sync()
	w.syncs.Add(1)
	w.syncNanos.Add(time.Since(start).Nanoseconds())

	w.syncMu.Lock()
	w.syncing = false
	if err != nil {
		if w.err == nil {
			w.err = err
		}
	} else if w.syncedSeq < cover {
		w.syncedSeq = cover
	}
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
	return err
}

// truncateTo discards everything at and after off — recovery's torn-tail
// repair. Exclusive access is the caller's responsibility (it runs
// during Open, before any writer exists).
func (w *wal) truncateTo(off int64) error {
	if err := w.f.Truncate(off); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.size = off
	return nil
}

// lastAppended returns the highest sequence number ever appended (or
// seeded from replay) — the checkpoint fence for a fold that absorbed
// every logged batch.
func (w *wal) lastAppended() uint64 {
	w.appendMu.Lock()
	defer w.appendMu.Unlock()
	return w.appendedSeq
}

// sizeNow returns the log's current byte size. Captured at a fold's
// freeze point (under the store's liveMu, so no append is racing) it is
// the rotate offset: every record below it carries seq <= the freeze
// fence.
func (w *wal) sizeNow() int64 {
	w.appendMu.Lock()
	defer w.appendMu.Unlock()
	return w.size
}

func (w *wal) close() error { return w.f.Close() }

// rotate drops the folded prefix after a committed fold: the
// records before keepFrom all carry seq <= the manifest's new wal_seq
// fence, so only the tail (batches that arrived mid-fold) needs to
// survive. The tail is copied into a fresh file that atomically replaces
// the log; sequence numbers keep counting. The caller must hold the
// store's liveMu so no append or sync is in flight — rotate swaps the
// underlying file descriptor.
//
// Crash safety: before the rename the old log is intact (replay skips
// the folded prefix via the wal_seq fence); after the rename the log
// holds exactly the unfolded tail. Either way no acknowledged batch is
// lost and no folded batch is replayed.
func (w *wal) rotate(keepFrom int64) error {
	if err := w.stickyErr(); err != nil {
		return err
	}
	w.appendMu.Lock()
	defer w.appendMu.Unlock()
	if keepFrom < 0 || keepFrom > w.size {
		return fmt.Errorf("diskstore: wal rotate offset %d out of range [0,%d]", keepFrom, w.size)
	}
	tail := make([]byte, w.size-keepFrom)
	if len(tail) > 0 {
		if _, err := w.f.ReadAt(tail, keepFrom); err != nil {
			return err
		}
	}
	tmp := w.path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if len(tail) > 0 {
		if _, err := nf.WriteAt(tail, 0); err != nil {
			nf.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, w.path); err != nil {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	if dir, derr := os.Open(filepath.Dir(w.path)); derr == nil {
		dir.Sync()
		dir.Close()
	}
	old := w.f
	w.f = nf
	w.size = int64(len(tail))
	old.Close()
	return nil
}

// ---- record encoding ----

// encodeWALOps serializes a batch of fully resolved mutations (absolute
// VIDs, no batch-relative references) into the ops section of a record
// payload.
func encodeWALOps(batch []storage.Mutation) ([]byte, error) {
	var buf []byte
	str := func(s string) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	for i := range batch {
		m := &batch[i]
		switch m.Op {
		case storage.MutAddVertex:
			buf = append(buf, walOpAddVertex)
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.Labels)))
			for _, l := range m.Labels {
				str(l)
			}
		case storage.MutAddEdge:
			buf = append(buf, walOpAddEdge)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Src))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Dst))
			str(m.Type)
		case storage.MutSetProp:
			buf = append(buf, walOpSetProp)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(m.V))
			str(m.Key)
			vb, err := encodeWALValue(m.Value)
			if err != nil {
				return nil, err
			}
			buf = append(buf, vb...)
		case storage.MutAddLabel:
			buf = append(buf, walOpAddLabel)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(m.V))
			str(m.Label)
		default:
			return nil, fmt.Errorf("diskstore: unknown mutation op %d", m.Op)
		}
	}
	return buf, nil
}

func encodeWALValue(v graph.Value) ([]byte, error) {
	out := []byte{byte(v.Kind())}
	switch v.Kind() {
	case graph.KindNull:
	case graph.KindInt:
		out = binary.LittleEndian.AppendUint64(out, uint64(v.Int()))
	case graph.KindFloat:
		out = binary.LittleEndian.AppendUint64(out, graph.FloatBits(v.Float()))
	case graph.KindBool:
		if v.Bool() {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	case graph.KindString:
		out = binary.LittleEndian.AppendUint32(out, uint32(len(v.Str())))
		out = append(out, v.Str()...)
	case graph.KindList:
		data, err := encodeList(v.List())
		if err != nil {
			return nil, err
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(data)))
		out = append(out, data...)
	default:
		return nil, fmt.Errorf("diskstore: unsupported value kind %v", v.Kind())
	}
	return out, nil
}

// walBatch is one decoded log record.
type walBatch struct {
	seq   uint64
	epoch uint32
	ops   []storage.Mutation
}

// parseWAL decodes records until the data ends or turns invalid —
// anything past the last whole, CRC-clean record is a torn tail from a
// crash mid-append. It returns the decoded batches and the clean length;
// the caller truncates the file to cleanOff. maxEpoch is the manifest's
// committed generation: the manifest commits before any batch can be
// appended under a new generation, so a record claiming a newer epoch
// cannot be a real acknowledged batch — replay treats it as corruption
// and stops there.
func parseWAL(data []byte, maxEpoch uint32) (batches []walBatch, cleanOff int64) {
	off := int64(0)
	for {
		rest := data[off:]
		if len(rest) < walHeaderLen {
			return batches, off
		}
		plen := binary.LittleEndian.Uint32(rest)
		if plen < walPayloadHeader || plen > maxWALRecord || int64(len(rest)) < walHeaderLen+int64(plen) {
			return batches, off
		}
		payload := rest[walHeaderLen : walHeaderLen+int(plen)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:]) {
			return batches, off
		}
		seq := binary.LittleEndian.Uint64(payload)
		epoch := binary.LittleEndian.Uint32(payload[8:])
		nops := int(binary.LittleEndian.Uint16(payload[12:]))
		ops, ok := decodeWALOps(payload[walPayloadHeader:], nops)
		if !ok {
			// A CRC-clean but undecodable payload is corruption, not a torn
			// tail, but the safe response is the same: stop replay here.
			return batches, off
		}
		if len(batches) > 0 && seq <= batches[len(batches)-1].seq {
			return batches, off // sequence must be strictly increasing
		}
		if len(batches) > 0 && epoch < batches[len(batches)-1].epoch {
			return batches, off // epochs never decrease along the log
		}
		if epoch > maxEpoch {
			return batches, off // claims a generation newer than committed
		}
		batches = append(batches, walBatch{seq: seq, epoch: epoch, ops: ops})
		off += walHeaderLen + int64(plen)
	}
}

func decodeWALOps(data []byte, nops int) ([]storage.Mutation, bool) {
	r := idxReader{data: data, ok: true}
	u64v := func() storage.VID { return storage.VID(r.u64()) }
	ops := make([]storage.Mutation, 0, nops)
	for i := 0; i < nops; i++ {
		opc := r.take(1)
		if opc == nil {
			return nil, false
		}
		var m storage.Mutation
		switch opc[0] {
		case walOpAddVertex:
			m.Op = storage.MutAddVertex
			nl := r.take(2)
			if nl == nil {
				return nil, false
			}
			n := int(binary.LittleEndian.Uint16(nl))
			for j := 0; j < n; j++ {
				m.Labels = append(m.Labels, r.str())
			}
		case walOpAddEdge:
			m.Op = storage.MutAddEdge
			m.Src = u64v()
			m.Dst = u64v()
			m.Type = r.str()
		case walOpSetProp:
			m.Op = storage.MutSetProp
			m.V = u64v()
			m.Key = r.str()
			v, ok := decodeWALValue(&r)
			if !ok {
				return nil, false
			}
			m.Value = v
		case walOpAddLabel:
			m.Op = storage.MutAddLabel
			m.V = u64v()
			m.Label = r.str()
		default:
			return nil, false
		}
		if !r.ok {
			return nil, false
		}
		ops = append(ops, m)
	}
	if len(r.data) != 0 {
		return nil, false
	}
	return ops, true
}

func decodeWALValue(r *idxReader) (graph.Value, bool) {
	kb := r.take(1)
	if kb == nil {
		return graph.Null, false
	}
	switch graph.Kind(kb[0]) {
	case graph.KindNull:
		return graph.Null, true
	case graph.KindInt:
		return graph.I(int64(r.u64())), r.ok
	case graph.KindFloat:
		return graph.FBits(r.u64()), r.ok
	case graph.KindBool:
		b := r.take(1)
		if b == nil {
			return graph.Null, false
		}
		return graph.B(b[0] == 1), true
	case graph.KindString:
		return graph.S(r.str()), r.ok
	case graph.KindList:
		n := r.u32()
		data := r.take(int(n))
		if data == nil {
			return graph.Null, false
		}
		v, err := decodeList(data)
		return v, err == nil
	default:
		return graph.Null, false
	}
}
