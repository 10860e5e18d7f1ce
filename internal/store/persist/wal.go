// Package persist is the store's file-based durability layer: one
// append-only write-ahead log of canonical mutation records with
// group-commit flush/fsync coalescing, compacted snapshots built from
// consistent store cuts whenever the log outgrows the live tree, and
// boot-time recovery that folds the newest valid snapshot and the log
// tail after it into the tree (store.Replay) — every record read and
// verified in sequence order, each resource installed once, in its
// final state — and truncates a torn record left by a crash mid-write.
//
// On-disk layout. Everything lives in one data directory:
//
//	snap-<seq>.json   compacted snapshot: {"Seq":N,"Resources":{uri:raw}},
//	                  with "HiWater":{parent:n} before "Resources" when
//	                  NextID marks outran the resources (see snapshotFile)
//	wal-<start>.log   log segment; holds records with Seq >= start
//
//	wal-<start>.log.quarantined
//	                  segment found after a torn record; recovery
//	                  renames it aside rather than replaying or deleting
//	                  it
//
// Records carry globally unique, gap-free, monotonically increasing
// sequence numbers, and the store appends them in that order, so the
// log is the total commit order.
//
// Each WAL record is framed as
//
//	| uint32 payload length | uint32 CRC-32C of payload | payload |
//
// (little-endian) where the payload is the JSON encoding of a
// store.Record. The frame makes torn tails self-identifying: a partial
// header, short payload, checksum mismatch, or undecodable payload all
// mark the end of the committed prefix, and recovery truncates the file
// there.
//
// Bytes cross the disk boundary verified, not re-encoded; encoding/json
// is the fallback, never the path. A record is written by
// store.AppendRecord, which checks the stored resource with
// store.IsCanonical and copies it behind the envelope, straight into the
// segment's one reused frame buffer, and read back by store.DecodeRecord;
// a snapshot is written by concatenating stored payloads and read back by
// store.Import's one walk. Whatever those do not recognise goes to
// encoding/json, which decides as it always did, so the bytes on disk are
// json.Marshal's either way.
package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"ofmf/internal/store"
)

// maxRecordBytes bounds a single record frame, rejecting garbage lengths
// in corrupt files before any allocation happens.
const maxRecordBytes = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeader is the length and checksum in front of every payload.
const frameHeader = 8

// appendFrame appends rec to dst as one frame, encoding the record in
// place behind the header space so its bytes are never copied. On error
// dst comes back as it was.
func appendFrame(dst []byte, rec store.Record) ([]byte, error) {
	start := len(dst)
	dst, err := store.AppendRecord(append(dst, make([]byte, frameHeader)...), rec)
	if err == nil {
		err = sealFrame(dst[start:])
	}
	if err != nil {
		return dst[:start], err
	}
	return dst, nil
}

// sealFrame writes the header of frame, the payload following it.
func sealFrame(frame []byte) error {
	payload := frame[frameHeader:]
	if len(payload) == 0 || len(payload) > maxRecordBytes {
		return fmt.Errorf("persist: record size %d out of range", len(payload))
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	return nil
}

// scanFrames reads framed records from r until EOF or the first torn or
// corrupt frame, handing each to fn as it is decoded. It returns the byte
// offset of the end of the last intact frame and whether the stream was
// torn (false means it ended cleanly at EOF); an error from fn stops the
// scan and is returned. The record's Raw is only valid during the call:
// the next frame is read into the same buffer.
func scanFrames(r io.Reader, fn func(store.Record) error) (good int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [frameHeader]byte // escapes into ReadFull: one allocation, not one a frame
	var payload []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return good, err != io.EOF, nil
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n == 0 || n > maxRecordBytes {
			return good, true, nil
		}
		payload = slices.Grow(payload[:0], int(n))[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return good, true, nil
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return good, true, nil
		}
		rec, ok := store.DecodeRecord(payload)
		if !ok {
			// Not the envelope append writes, or not one this package can
			// vouch for: encoding/json's verdict is the verdict. (It reads
			// into a record of its own, which escapes, so that rec stays
			// on the stack for the frames DecodeRecord reads.)
			var decoded store.Record
			if json.Unmarshal(payload, &decoded) != nil {
				return good, true, nil
			}
			rec = decoded
		}
		if err := fn(rec); err != nil {
			return good, false, err
		}
		good += int64(frameHeader + n)
	}
}

// decodeAll collects every record scanFrames yields.
func decodeAll(r io.Reader) (recs []store.Record, good int64, torn bool) {
	good, torn, _ = scanFrames(r, func(rec store.Record) error {
		rec.Raw = bytes.Clone(rec.Raw)
		recs = append(recs, rec)
		return nil
	})
	return recs, good, torn
}

// wal is one append-only log segment with group-commit semantics.
// Appends serialize frames into a buffered writer under mu; durability
// happens in waitFor, where the first waiter becomes the flush leader
// and flushes (and fsyncs, in fsync mode) on behalf of every commit
// queued behind it — concurrent writers pay one fsync, not one each.
type wal struct {
	path string
	f    *os.File
	base uint64 // sequence number the segment starts after; immutable

	mu      sync.Mutex // guards bw, frame, lastSeq
	bw      *bufio.Writer
	frame   []byte // the frame being encoded, reused from one to the next
	lastSeq uint64

	syncMu     sync.Mutex
	syncCond   *sync.Cond
	syncing    bool
	flushedSeq uint64 // highest seq durable per the mode
	err        error  // sticky write/flush/sync failure

	fsync   bool
	onFsync func(time.Duration) // observes each fsync round; may be nil
}

// openWAL creates the segment at path. base is the sequence number the
// segment starts after — lastSeq/flushedSeq begin there so an empty
// segment reports the log position it was rotated at. Creation is
// exclusive: a leftover file at the path means the caller's bookkeeping
// is wrong (appending to a file whose contents we did not write could
// resurrect records recovery refused), so it fails loudly instead. The
// directory entry is fsynced before any commit can be acknowledged —
// fsyncing the file alone does not persist its existence, and a power
// failure could otherwise drop the whole segment.
func openWAL(path string, base uint64, fsync bool, onFsync func(time.Duration)) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: create wal: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: sync wal dir: %w", err)
	}
	w := &wal{path: path, f: f, base: base, bw: bufio.NewWriterSize(f, 1<<16), fsync: fsync, onFsync: onFsync}
	w.lastSeq = base
	w.flushedSeq = base
	w.syncCond = sync.NewCond(&w.syncMu)
	return w, nil
}

// append frames the batch into the segment buffer and returns a wait
// function that blocks until the batch is durable, and the bytes it
// framed. The caller (the store, under its write lock, via
// FileBackend.Append) guarantees batches arrive in commit order.
func (w *wal) append(recs []store.Record) (wait func() error, n int64) {
	w.mu.Lock()
	var werr error
	for _, rec := range recs {
		if w.frame, werr = appendFrame(w.frame[:0], rec); werr == nil {
			_, werr = w.bw.Write(w.frame)
			n += int64(len(w.frame))
		}
		if werr != nil {
			break
		}
	}
	if last := recs[len(recs)-1].Seq; last > w.lastSeq {
		w.lastSeq = last
	}
	w.mu.Unlock()
	if werr != nil {
		w.fail(werr)
		return func() error { return werr }, n
	}
	last := recs[len(recs)-1].Seq
	return func() error { return w.waitFor(last) }, n
}

func (w *wal) fail(err error) {
	w.syncMu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
}

// seq returns the highest sequence number appended to this segment.
func (w *wal) seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastSeq
}

// waitFor blocks until every record with Seq <= seq is flushed to the OS
// (and fsynced, in fsync mode). Concurrent commits coalesce: one leader
// flushes for everyone queued behind it, and waiters arriving during a
// flush join the next round.
func (w *wal) waitFor(seq uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	for {
		if w.err != nil {
			return w.err
		}
		if w.flushedSeq >= seq {
			return nil
		}
		if w.syncing {
			w.syncCond.Wait()
			continue
		}
		w.syncing = true
		w.syncMu.Unlock()

		w.mu.Lock()
		target := w.lastSeq
		err := w.bw.Flush()
		w.mu.Unlock()
		if err == nil && w.fsync {
			start := time.Now()
			err = w.f.Sync()
			if w.onFsync != nil {
				w.onFsync(time.Since(start))
			}
		}

		w.syncMu.Lock()
		w.syncing = false
		if err != nil {
			w.err = err
		} else if target > w.flushedSeq {
			w.flushedSeq = target
		}
		w.syncCond.Broadcast()
	}
}

// close flushes and fsyncs the segment (regardless of mode — a closing
// segment is about to be dropped from the active set, so it must be
// fully on disk) and closes the file.
func (w *wal) close() error {
	w.mu.Lock()
	err := w.bw.Flush()
	last := w.lastSeq
	w.mu.Unlock()
	if serr := w.f.Sync(); err == nil {
		err = serr
	}
	w.syncMu.Lock()
	if err != nil {
		if w.err == nil {
			w.err = err
		}
	} else if last > w.flushedSeq {
		w.flushedSeq = last
	}
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
