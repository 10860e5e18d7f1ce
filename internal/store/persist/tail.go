package persist

import (
	"errors"
	"fmt"
	"os"
	"time"

	"ofmf/internal/store"
)

// This file is the persistence layer's replication surface: segment
// tailing for followers that lag behind the leader's in-memory backlog,
// snapshot serving for bootstrap, and data-dir initialization for a
// replica promoted mid-history. The shipping protocol itself lives in
// store/repl; persist only exposes ordered reads of what is already on
// disk.

// ReadRecords returns the contiguous run of committed records with
// Seq > fromSeq currently on disk, in sequence order. It stops (without
// error) at the first gap — a segment compaction removed under the
// listing, or records lost to a tear — so the caller always receives a
// replayable prefix. A torn tail ends the read exactly as recovery
// would, but nothing is truncated or quarantined: this is a read-only
// tail, safe to call on a live backend.
//
// Records the active segment still holds in its write buffer are not
// visible; call Flush first when the tail must include the newest
// commits.
func (b *FileBackend) ReadRecords(fromSeq uint64) ([]store.Record, error) {
	b.mu.Lock()
	closed := b.w == nil
	b.mu.Unlock()
	if closed {
		return nil, errors.New("persist: backend not recovered or already closed")
	}
	dir := b.opts.Dir
	segs, err := listSeqs(dir, walPrefix, walSuffix)
	if err != nil {
		return nil, err
	}
	var out []store.Record
	next := fromSeq + 1
	for _, seg := range segs {
		f, err := os.Open(walPath(dir, seg))
		if err != nil {
			if os.IsNotExist(err) {
				continue // compaction raced the listing
			}
			return nil, fmt.Errorf("persist: open segment: %w", err)
		}
		recs, _, torn := decodeAll(f)
		f.Close()
		for _, rec := range recs {
			if rec.Seq < next {
				continue
			}
			if rec.Seq != next {
				return out, nil
			}
			out = append(out, rec)
			next++
		}
		if torn {
			break
		}
	}
	return out, nil
}

// Flush pushes the active segment's buffered frames through the same
// group-commit wait a mutation takes — to the OS, and in fsync mode to
// stable storage — so a subsequent ReadRecords observes every record
// appended so far.
func (b *FileBackend) Flush() error {
	b.mu.Lock()
	w := b.w
	b.mu.Unlock()
	if w == nil {
		return nil
	}
	return w.waitFor(w.seq())
}

// LatestSnapshot returns the newest parseable on-disk snapshot: the
// exported resource map and the commit sequence number it reflects.
// ok is false when the directory holds none, and when the newest is
// older than the position Recover reached: that one is a previous life's
// and may lack what this boot put into the tree before attaching, until
// this backend's first Compact replaces it. Replication serves this to
// bootstrapping replicas when it is recent enough, saving a fresh
// whole-tree export under the store's read lock, and exports live
// otherwise.
func (b *FileBackend) LatestSnapshot() (resources []byte, seq uint64, ok bool, err error) {
	snap, ok, _, err := loadNewestSnapshot(b.opts.Dir)
	if err != nil || !ok {
		return nil, 0, false, err
	}
	b.mu.Lock()
	stale := snap.Seq < b.recoveredSeq
	b.mu.Unlock()
	if stale {
		return nil, 0, false, nil
	}
	return snap.Resources, snap.Seq, true, nil
}

// Bootstrap initializes a fresh data directory for a replica promoted
// to leader mid-history: install a snapshot of st at seq (the replica's
// applied sequence number) and open an empty log starting after seq.
// The directory must not already hold snapshots, WAL segments or the
// retired sharded layout — a promoted replica's local history (if any)
// predates the replicated one and silently merging the two could
// resurrect divergent records; the caller decides what to do with a
// non-empty directory. Call instead of Recover, then AttachBackend.
func (b *FileBackend) Bootstrap(st *store.Store, seq uint64) error {
	start := time.Now()
	dir := b.opts.Dir
	for _, probe := range []struct{ prefix, suffix string }{
		{snapPrefix, snapSuffix}, {walPrefix, walSuffix},
	} {
		seqs, err := listSeqs(dir, probe.prefix, probe.suffix)
		if err != nil {
			return err
		}
		if len(seqs) > 0 {
			return fmt.Errorf("persist: bootstrap: %s holds existing %s*%s files", dir, probe.prefix, probe.suffix)
		}
	}
	if err := refuseLegacyLayout(dir); err != nil {
		return err
	}
	cut, err := st.Cut()
	if err != nil {
		return fmt.Errorf("persist: bootstrap export: %w", err)
	}
	if err := b.writeSnapshot(seq, cut); err != nil {
		return err
	}
	w, err := openWAL(walPath(dir, seq+1), seq, b.opts.Fsync, b.onFsync)
	if err != nil {
		return err
	}
	b.mu.Lock()
	b.w = w
	b.lastSnapSeq = seq
	b.mu.Unlock()
	b.src = st
	b.log.Info("persist: bootstrapped at replicated seq",
		"seq", seq, "resources", st.Len(), "duration", time.Since(start))
	return nil
}
