package persist

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"sync"
	"time"

	"ofmf/internal/obsv"
	"ofmf/internal/store"
)

// SnapshotSource yields a consistent cut of the resource tree: the
// export plus the commit sequence number of the last mutation it
// contains. *store.Store implements it.
type SnapshotSource interface {
	Snapshot() (data []byte, seq uint64, err error)
}

// Options configures a file backend.
type Options struct {
	// Dir is the data directory; it is created if missing.
	Dir string
	// Fsync selects the durability mode. When true (the production
	// default) every mutation waits for its WAL record to reach stable
	// storage before returning; group commit coalesces concurrent
	// waiters into one fsync. When false the record still reaches the
	// OS before the mutation returns — surviving a process kill but not
	// a power failure.
	Fsync bool
	// Deprecated: Shards is ignored — the backend keeps one WAL stream
	// whatever the store's shard count. It exists only so the frozen
	// bench/ module still compiles; the next benchmark PR deletes it.
	Shards int
	// SnapshotInterval is the cadence of compacted snapshots and WAL
	// rotation. Zero or negative disables the periodic loop; a final
	// compaction still happens on Close.
	SnapshotInterval time.Duration
	// Logger receives the backend's structured log output (default:
	// drop everything).
	Logger *slog.Logger
	// Metrics, when non-nil, receives WAL append counts, fsync and
	// snapshot durations, and the recovery replay count.
	Metrics *obsv.Metrics
	// Tracer, when non-nil, records WAL append, group-commit fsync and
	// snapshot rounds as root spans (these run outside any request
	// context), so the trace ring shows where durability time goes.
	Tracer *obsv.Tracer
}

// RecoveryStats describes one boot-time recovery.
type RecoveryStats struct {
	// SnapshotSeq is the sequence number of the snapshot loaded (0 when
	// the directory held none).
	SnapshotSeq uint64
	// Replayed is the number of WAL records applied on top of the
	// snapshot.
	Replayed int
	// Truncated reports that a torn tail (crash mid-write) was cut from
	// the log.
	Truncated bool
	// Dropped is the number of decoded records NOT replayed because an
	// earlier record in the global order was lost (a sequence gap after
	// merging the streams of a legacy sharded directory — impossible in
	// the one-stream layout this package writes). Their segments are
	// quarantined, not deleted.
	Dropped int
	// Resources is the store's resource count after recovery.
	Resources int
	// LastSeq is the highest committed sequence number recovered; pass
	// it to Store.AttachBackend.
	LastSeq uint64
	// LastEpoch is the highest replication epoch stamped on any
	// replayed record (0 for an unreplicated history); a rebooting
	// leader seeds its term from it so epochs never move backwards
	// across a restart.
	LastEpoch uint64
	// Duration is the wall time recovery took, compaction included.
	Duration time.Duration
}

// FileBackend is the store.Backend persisting mutations to one WAL
// stream plus compacted snapshots in a data directory. The store hands
// it batches in commit order (see store.Backend), so the log on disk is
// the global history and one group-commit leader serves every shard.
// Lifecycle:
//
//	b, _ := persist.Open(opts)
//	stats, _ := b.Recover(st)          // load snapshot, replay the log
//	st.AttachBackend(b, stats.LastSeq) // start logging new mutations
//	b.StartSnapshots(st)               // periodic compaction
//	...
//	st.Close()                         // detaches and closes b
type FileBackend struct {
	opts Options
	log  *slog.Logger

	mu          sync.Mutex // guards w swaps and lastSnapSeq
	w           *wal       // the active segment; nil until Recover and after Close
	lastSnapSeq uint64

	// compactMu serializes whole compaction passes (periodic loop,
	// explicit Compact, final Close compaction) against each other; mu
	// alone only covers the rotation bookkeeping inside one pass.
	compactMu sync.Mutex

	src      SnapshotSource
	stop     chan struct{}
	loopDone chan struct{}

	closeOnce sync.Once
	closeErr  error

	// afterStep, when non-nil, is told each time Recover finishes one of
	// its numbered compaction steps; an error aborts Recover there,
	// leaving the directory as a crash at that point would. Tests only.
	afterStep func(step int) error
}

// Open prepares a file backend on dir. No file is touched beyond
// creating the directory; Recover opens the log.
func Open(opts Options) (*FileBackend, error) {
	if opts.Dir == "" {
		return nil, errors.New("persist: Options.Dir required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: data dir: %w", err)
	}
	log := opts.Logger
	if log == nil {
		log = obsv.NopLogger()
	}
	return &FileBackend{opts: opts, log: log}, nil
}

// Deprecated: Shards always returns 1. Kept for the frozen bench/
// module; the next benchmark PR deletes it.
func (b *FileBackend) Shards() int { return 1 }

// Deprecated: AppendShard calls Append. Kept for the frozen bench/
// module; the next benchmark PR deletes it.
func (b *FileBackend) AppendShard(_ int, batch []store.Record) func() error { return b.Append(batch) }

// Recover rebuilds st from the data directory: load the newest valid
// snapshot through Store.Import, replay the log's longest contiguous
// prefix through Store.Apply (truncating a torn tail, quarantining
// untrusted segments), then compact — write a fresh snapshot of the
// recovered tree, delete the superseded files and start a new log
// segment — so the next boot loads one snapshot and an empty tail.
//
// A directory written by the retired per-shard-stream layout
// (layout.json declaring Shards > 1, segments under shard-NN/) is read
// here one last time: its streams are merged by Seq, records beyond a
// sequence gap are dropped and their segments quarantined, and the
// compaction below leaves the flat layout and removes the descriptor.
// The conversion is one-way and every intermediate crash leaves a
// directory this function handles. Call it exactly once, before
// AttachBackend.
func (b *FileBackend) Recover(st *store.Store) (RecoveryStats, error) {
	start := time.Now()
	var stats RecoveryStats
	dir := b.opts.Dir

	dirs, err := streamDirs(dir)
	if err != nil {
		return stats, err
	}
	legacy := len(dirs) > 1

	snap, ok, skipped, err := loadNewestSnapshot(dir)
	if err != nil {
		return stats, err
	}
	if skipped > 0 {
		b.log.Warn("persist: skipped unreadable snapshots", "count", skipped)
	}
	if ok {
		if err := st.Import(snap.Resources); err != nil {
			return stats, fmt.Errorf("persist: snapshot import: %w", err)
		}
		stats.SnapshotSeq = snap.Seq
	}
	lastSeq := stats.SnapshotSeq

	// Decode every stream (one, unless the directory is a legacy sharded
	// one), handling tears per stream: a tear marks the end of that
	// stream's trustworthy prefix, so its later segments are quarantined
	// and the torn tail truncated.
	type sourced struct {
		rec  store.Record
		path string // segment the record was read from
	}
	var merged []sourced
	var segPaths []string // every segment left in place, replayed or not
	for _, sdir := range dirs {
		segs, err := listSeqs(sdir, walPrefix, walSuffix)
		if err != nil {
			if os.IsNotExist(err) {
				continue // a legacy shard dir already retired, or never written
			}
			return stats, err
		}
		for i, seg := range segs {
			path := walPath(sdir, seg)
			f, err := os.Open(path)
			if err != nil {
				return stats, fmt.Errorf("persist: open segment: %w", err)
			}
			recs, good, torn := decodeAll(f)
			f.Close()
			if torn {
				stats.Truncated = true
				// A tear can only happen at the end of the stream that was
				// active at the crash; segments after it are not trustworthy
				// and must never be replayed. Quarantine them BEFORE
				// truncating the torn tail — the tear is the only durable
				// evidence they are untrusted, and truncation destroys it. If
				// we crash between the rename and the truncate, the next boot
				// sees the same torn segment and reaches the same verdict.
				// (In fsync mode a later segment can hold commits that were
				// acknowledged as durable after a rotation; the rename keeps
				// those bytes on disk for an operator instead of silently
				// deleting them.)
				for _, later := range segs[i+1:] {
					lp := walPath(sdir, later)
					b.log.Warn("persist: quarantining segment after torn record",
						"segment", lp, "quarantined", lp+quarantineSuffix)
					if err := os.Rename(lp, lp+quarantineSuffix); err != nil {
						return stats, fmt.Errorf("persist: quarantine %s: %w", lp, err)
					}
					b.countQuarantine()
				}
				if i < len(segs)-1 {
					if err := syncDir(sdir); err != nil {
						return stats, fmt.Errorf("persist: sync quarantine: %w", err)
					}
				}
				b.log.Warn("persist: truncating torn log tail", "segment", path, "offset", good)
				if err := os.Truncate(path, good); err != nil {
					return stats, fmt.Errorf("persist: truncate torn tail: %w", err)
				}
			}
			segPaths = append(segPaths, path)
			for _, rec := range recs {
				merged = append(merged, sourced{rec: rec, path: path})
			}
			if torn {
				break
			}
		}
	}

	// One stream is already in commit order. Legacy streams are each
	// sequence-ascending, so a stable sort by Seq merges them back into
	// the global commit order; a tail lost on one stream can then leave
	// later-sequence records on the others — records whose commit order
	// depends on a mutation that is gone. Replay stops at the first such
	// gap and the dropped records' segments are quarantined below rather
	// than deleted.
	if legacy {
		sort.SliceStable(merged, func(i, j int) bool { return merged[i].rec.Seq < merged[j].rec.Seq })
	}
	dropFrom := len(merged)
	for k, sr := range merged {
		if sr.rec.Seq <= lastSeq {
			continue // already in the snapshot (or a duplicate)
		}
		if legacy && sr.rec.Seq != lastSeq+1 {
			dropFrom = k
			break
		}
		if err := st.Apply(sr.rec); err != nil {
			return stats, fmt.Errorf("persist: replay seq %d: %w", sr.rec.Seq, err)
		}
		stats.Replayed++
		lastSeq = sr.rec.Seq
		if sr.rec.Epoch > stats.LastEpoch {
			stats.LastEpoch = sr.rec.Epoch
		}
	}
	stats.Dropped = len(merged) - dropFrom
	quarantine := make(map[string]bool)
	for _, sr := range merged[dropFrom:] {
		quarantine[sr.path] = true
	}
	if stats.Dropped > 0 {
		b.log.Warn("persist: dropping records after global sequence gap",
			"dropped", stats.Dropped, "last_seq", lastSeq,
			"next_seq", merged[dropFrom].rec.Seq, "segments", len(quarantine))
	}

	stats.LastSeq = lastSeq
	stats.Resources = st.Len()

	// Compact: the recovered tree becomes the new baseline. Step order is
	// what makes a crash here (and a crashed legacy conversion) safe —
	// (1) snapshot at lastSeq: from here replay is optional; (2) retire
	// the old segments (quarantining any that held dropped records) and
	// the emptied legacy shard dirs; (3) remove the legacy descriptor;
	// (4) create the fresh segment. A crash after (1) replays nothing new
	// from the old segments; after (2) a legacy dir is empty but still
	// described; after (3) the directory is flat and holds no log; after
	// (4) we are here.
	export, err := st.Export()
	if err != nil {
		return stats, fmt.Errorf("persist: recovery export: %w", err)
	}
	if err := writeSnapshot(dir, lastSeq, export); err != nil {
		return stats, err
	}
	if err := b.stepDone(1); err != nil {
		return stats, err
	}
	for _, p := range segPaths {
		if !quarantine[p] {
			os.Remove(p)
			continue
		}
		b.log.Warn("persist: quarantining segment beyond sequence gap",
			"segment", p, "quarantined", p+quarantineSuffix)
		if err := os.Rename(p, p+quarantineSuffix); err != nil {
			return stats, fmt.Errorf("persist: quarantine %s: %w", p, err)
		}
		b.countQuarantine()
	}
	if legacy {
		for _, sdir := range dirs {
			os.Remove(sdir) // gone unless quarantined files remain for an operator
		}
	}
	if err := b.stepDone(2); err != nil {
		return stats, err
	}
	if legacy {
		if err := removeLayout(dir); err != nil {
			return stats, err
		}
		b.log.Info("persist: legacy sharded data dir converted to one log", "from_shards", len(dirs))
	}
	if err := b.stepDone(3); err != nil {
		return stats, err
	}
	w, err := openWAL(walPath(dir, lastSeq+1), lastSeq, b.opts.Fsync, b.onFsync)
	if err != nil {
		return stats, err
	}
	b.mu.Lock()
	b.w = w
	b.lastSnapSeq = lastSeq
	b.mu.Unlock()
	// The recovered store is the natural snapshot source for the final
	// compaction on Close; StartSnapshots may override it.
	b.src = st
	removeBelow(dir, snapPrefix, snapSuffix, lastSeq)

	stats.Duration = time.Since(start)
	if m := b.opts.Metrics; m != nil {
		m.RecoveryReplayed.Add(float64(stats.Replayed))
	}
	b.log.Info("persist: recovery complete",
		"resources", stats.Resources, "replayed", stats.Replayed,
		"snapshot_seq", stats.SnapshotSeq, "truncated", stats.Truncated,
		"dropped", stats.Dropped, "duration", stats.Duration)
	return stats, nil
}

// stepDone reports a finished compaction step to the test hook.
func (b *FileBackend) stepDone(step int) error {
	if b.afterStep == nil {
		return nil
	}
	return b.afterStep(step)
}

// countQuarantine records one quarantined WAL segment in the metrics
// bundle. The rename itself is always accompanied by a warning log
// carrying the quarantined path; this makes the event visible to
// monitoring that only scrapes /metrics.
func (b *FileBackend) countQuarantine() {
	if m := b.opts.Metrics; m != nil {
		m.WALQuarantined.Inc()
	}
}

func (b *FileBackend) onFsync(d time.Duration) {
	if m := b.opts.Metrics; m != nil {
		m.WALFsync.Observe(d.Seconds())
	}
	b.opts.Tracer.Observe("wal.fsync", d)
}

// Append implements store.Backend. It runs under the store's locks, so
// it only frames the batch into the active segment's buffer; the
// returned wait completes durability after the locks are released.
func (b *FileBackend) Append(batch []store.Record) func() error {
	start := time.Now()
	b.mu.Lock()
	if b.w == nil {
		b.mu.Unlock()
		return func() error { return errors.New("persist: backend not recovered or already closed") }
	}
	wait := b.w.append(batch)
	b.mu.Unlock()
	if m := b.opts.Metrics; m != nil {
		m.WALAppends.Add(float64(len(batch)))
	}
	b.opts.Tracer.Observe("wal.append", time.Since(start))
	return wait
}

// StartSnapshots begins the periodic snapshot/compaction loop over
// consistent cuts of src. Call it once, after AttachBackend; src is also
// used for the final compaction on Close.
func (b *FileBackend) StartSnapshots(src SnapshotSource) {
	b.src = src
	if b.opts.SnapshotInterval <= 0 {
		return
	}
	b.stop = make(chan struct{})
	b.loopDone = make(chan struct{})
	go func() {
		defer close(b.loopDone)
		t := time.NewTicker(b.opts.SnapshotInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := b.Compact(); err != nil {
					b.log.Error("persist: periodic snapshot failed", "err", err)
				}
			case <-b.stop:
				return
			}
		}
	}()
}

// Compact rotates the log and installs a fresh snapshot, then deletes
// the files the snapshot supersedes. It is a no-op when nothing was
// appended since the last compaction.
//
// The order matters for crash safety: rotate first, snapshot second.
// The snapshot is captured after rotation, so its sequence number
// covers every record in the retired segment — records committed in
// between land in the new segment with Seq <= the snapshot's and are
// skipped on replay (puts are idempotent post-state anyway). A crash
// between the steps leaves old snapshot + all segments: fully
// recoverable.
func (b *FileBackend) Compact() error {
	if b.src == nil {
		return errors.New("persist: no snapshot source; call StartSnapshots")
	}
	b.compactMu.Lock()
	defer b.compactMu.Unlock()

	b.mu.Lock()
	w := b.w
	if w == nil {
		b.mu.Unlock()
		return errors.New("persist: backend closed")
	}
	last := w.seq()
	if last == b.lastSnapSeq {
		b.mu.Unlock()
		return nil
	}
	// Rotate only when the active segment holds records. An empty one (a
	// previous snapshot failed after rotating) has nothing to retire, and
	// opening walPath(last+1) would collide with the active segment
	// itself.
	var retired *wal
	if last > w.base {
		next, err := openWAL(walPath(b.opts.Dir, last+1), last, b.opts.Fsync, b.onFsync)
		if err != nil {
			b.mu.Unlock()
			return err
		}
		retired, b.w = w, next
	}
	b.mu.Unlock()

	start := time.Now()
	if retired != nil {
		if err := retired.close(); err != nil {
			return fmt.Errorf("persist: retire segment: %w", err)
		}
	}
	export, seq, err := b.src.Snapshot()
	if err != nil {
		return fmt.Errorf("persist: snapshot export: %w", err)
	}
	if err := writeSnapshot(b.opts.Dir, seq, export); err != nil {
		return err
	}
	b.mu.Lock()
	if seq > b.lastSnapSeq {
		b.lastSnapSeq = seq
	}
	active := b.w
	b.mu.Unlock()
	// Every segment older than the active one is covered by the snapshot:
	// its records were appended before rotation, and the snapshot cut was
	// taken after.
	removeBelow(b.opts.Dir, walPrefix, walSuffix, active.base+1)
	removeBelow(b.opts.Dir, snapPrefix, snapSuffix, seq)
	if m := b.opts.Metrics; m != nil {
		m.SnapshotSeconds.Observe(time.Since(start).Seconds())
	}
	b.opts.Tracer.Observe("store.snapshot", time.Since(start))
	b.log.Info("persist: snapshot installed", "seq", seq, "duration", time.Since(start))
	return nil
}

// Close implements store.Backend: stop the snapshot loop, run a final
// compaction so the next boot is snapshot-only, and flush and close the
// active segment. The store calls it from Store.Close after detaching.
func (b *FileBackend) Close() error {
	b.closeOnce.Do(func() {
		if b.stop != nil {
			close(b.stop)
			<-b.loopDone
		}
		if b.src != nil {
			if err := b.Compact(); err != nil {
				b.log.Error("persist: final snapshot failed", "err", err)
				b.closeErr = err
			}
		}
		b.mu.Lock()
		w := b.w
		b.w = nil
		b.mu.Unlock()
		if w != nil {
			if err := w.close(); err != nil && b.closeErr == nil {
				b.closeErr = err
			}
		}
	})
	return b.closeErr
}
