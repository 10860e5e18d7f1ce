package persist

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ofmf/internal/obsv"
	"ofmf/internal/store"
)

// SnapshotSource yields a consistent cut of the resource tree: the
// export, the commit sequence number of the last mutation it contains
// and the high-water marks the export does not imply. LiveBytes is the
// size of the tree's payloads, which compaction is paced by (see
// compactStep). *store.Store implements it.
type SnapshotSource interface {
	Cut() (store.Cut, error)
	LiveBytes() int64
}

// Compaction is paced by the log, not by a clock: what a crash replays
// is the log since the newest snapshot, so the log is what the trigger
// bounds. Once that log holds at least max(compactStep, compactRatio ×
// live) bytes, live being the tree's payload bytes, the backend rotates
// and installs a snapshot (Compact). Hence:
//
//   - a crash reads one snapshot, about live bytes, plus a log of less
//     than max(compactStep, compactRatio × live) + compactStep + one
//     batch — the trigger is looked at each time the log crosses a
//     multiple of compactStep, so it can run that far past a threshold
//     that is not itself a multiple; when compactRatio × live is below
//     compactStep the threshold is compactStep and nothing is added;
//   - each snapshot, about live bytes, is written after at least
//     compactRatio × live bytes of log, so compaction writes at most
//     1/compactRatio snapshot bytes per log byte, on top of the log it
//     writes anyway;
//   - a tree written once and then read (a log of about 1.4 × live:
//     each payload framed in its record once) never compacts.
//
// compactStep keeps a small tree from snapshotting every few records: a
// compaction costs a rotation, two directory fsyncs and a snapshot
// fsync, and a MiB of log replays in milliseconds. Neither is a knob;
// the figures are DESIGN §6's.
const (
	compactStep  = 1 << 20
	compactRatio = 2
)

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
	// Deprecated: Shards is ignored — the backend keeps one WAL stream.
	// It exists only so the frozen bench/ module still compiles; the
	// next benchmark PR deletes it.
	Shards int
	// Deprecated: SnapshotInterval is ignored — compaction is paced by
	// the log's growth (see compactStep), not by a clock. It exists only
	// so the frozen bench/ module still compiles; the next benchmark PR
	// deletes it.
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
	// Replayed is the number of WAL records read and verified on top of
	// the snapshot.
	Replayed int
	// ReplayedBytes is the size of the intact log recovery read on top
	// of the snapshot, frames included: the figure the compaction
	// trigger bounds (see compactStep).
	ReplayedBytes int64
	// Installed is the number of ids whose state recovery changed, the
	// snapshot's and the log's together: each was installed once, with
	// one Replayed change (see store.Replay). A record a later one
	// superseded installs nothing, so on a log of churn it is far below
	// Replayed.
	Installed int
	// Truncated reports that a torn tail (crash mid-write) was cut from
	// the log.
	Truncated bool
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
	// Duration is the wall time recovery took: loading the snapshot,
	// replaying the log and opening the fresh segment. Compacting what
	// was replayed is the first Compact's work and is not in it.
	Duration time.Duration
	// Snapshot, Fold and Install split Duration by phase: reading and
	// folding in the snapshot, reading, decoding and folding in the log
	// after it (Replay.Add), and installing the fold's final state
	// (Replay.Finish). The rest of Duration is the rotation.
	Snapshot, Fold, Install time.Duration
}

// FileBackend is the store.Backend persisting mutations to one WAL
// stream plus compacted snapshots in a data directory. The store hands
// it batches in commit order (see store.Backend), so the log on disk is
// the global history and one group-commit leader serves every writer.
// Lifecycle:
//
//	b, _ := persist.Open(opts)
//	stats, _ := b.Recover(st)          // load snapshot, replay the log
//	st.AttachBackend(b, stats.LastSeq) // start logging new mutations
//	b.StartSnapshots(st)               // compaction as the log grows
//	...
//	st.Close()                         // detaches and closes b
type FileBackend struct {
	opts Options
	log  *slog.Logger

	mu          sync.Mutex // guards w swaps, lastSnapSeq and recoveredSeq
	w           *wal       // the active segment; nil until Recover and after Close
	lastSnapSeq uint64

	// recoveredSeq is the log position Recover reached. A snapshot below
	// it is a previous life's, which may lack what this boot put into the
	// tree before attaching, so LatestSnapshot does not serve it; the
	// first Compact writes one at or above it.
	recoveredSeq uint64

	// compactMu serializes whole compaction passes (the paced loop,
	// explicit Compact, final Close compaction) against each other; mu
	// alone only covers the rotation bookkeeping inside one pass.
	compactMu sync.Mutex

	// logBytes is the framed log the newest snapshot does not cover —
	// what a crash would replay now: what Recover replayed, then what
	// Append adds under mu; Compact's rotation takes it back to zero.
	logBytes atomic.Int64
	// step is compactStep, the growth of logBytes at which Append kicks
	// the compaction loop. Tests lower it before the first Append.
	step int64
	// kick wakes the compaction loop. Append sends without blocking, so
	// one pending kick stands for any number.
	kick chan struct{}

	src      SnapshotSource
	stop     chan struct{}
	loopDone chan struct{}

	closeOnce sync.Once
	closeErr  error

	// killPoint, when non-nil, is called at the two steps of a snapshot
	// install after which a kill leaves a directory of its own: the temp
	// file written but not renamed ("written"), and the snapshot renamed
	// into place with nothing pruned yet ("installed"). Tests copy the
	// directory there.
	killPoint func(step string)
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
	b := &FileBackend{opts: opts, log: log, step: compactStep, kick: make(chan struct{}, 1)}
	if m := opts.Metrics; m != nil {
		m.Registry().GaugeFunc("ofmf_wal_bytes_since_snapshot",
			"Framed WAL bytes the newest snapshot does not cover: what a crash would replay now.",
			func() float64 { return float64(b.logBytes.Load()) })
	}
	return b, nil
}

// Deprecated: Shards always returns 1. Kept for the frozen bench/
// module; the next benchmark PR deletes it.
func (b *FileBackend) Shards() int { return 1 }

// Deprecated: AppendShard calls Append. Kept for the frozen bench/
// module; the next benchmark PR deletes it.
func (b *FileBackend) AppendShard(_ int, batch []store.Record) func() error { return b.Append(batch) }

// Recover rebuilds st from the data directory in one fold (see
// store.Replay): the newest valid snapshot, then the log after it,
// every record checked as it is decoded (truncating a torn tail,
// quarantining the segments after it), so each resource is installed
// once, in its final state. Then it rotates — opens a fresh log
// segment after the last recovered record — and returns. It writes no
// snapshot: the segments it replayed stay on disk until the first
// Compact (paced, or Close's) has installed one that covers them, the
// same rotate-first order Compact keeps, so a kill before then boots the
// same way again, and their bytes count toward that compaction (see
// compactStep). A boot that replayed nothing removes the segments right
// away, since the snapshot it loaded (or, with none, the empty tree)
// already holds everything they do. Temp files of snapshots that
// were never renamed into place are deleted. A directory of the retired
// sharded layout is refused untouched. Call it exactly once, before
// AttachBackend.
func (b *FileBackend) Recover(st *store.Store) (RecoveryStats, error) {
	start := time.Now()
	dir := b.opts.Dir
	if err := refuseLegacyLayout(dir); err != nil {
		return RecoveryStats{}, err
	}
	removeSnapshotTemps(dir)

	fold := st.Replay()
	stats, segPaths, err := b.replay(fold)
	install := time.Now()
	stats.Installed = fold.Finish()
	stats.Install = time.Since(install)
	if err != nil {
		return stats, err
	}
	lastSeq := stats.LastSeq
	stats.Resources = st.Len()

	// Rotate. Replayed segments stay for the first Compact to cover; with
	// nothing replayed they hold nothing the snapshot lacks and go now. A
	// segment at the fresh one's path holds no record (its records would
	// start after lastSeq): an empty tail that openWAL's O_EXCL would
	// refuse, so it goes either way.
	fresh := walPath(dir, lastSeq+1)
	for _, p := range segPaths {
		if stats.Replayed == 0 || p == fresh {
			os.Remove(p)
		}
	}
	w, err := openWAL(fresh, lastSeq, b.opts.Fsync, b.onFsync)
	if err != nil {
		return stats, err
	}
	b.mu.Lock()
	b.w = w
	b.lastSnapSeq = stats.SnapshotSeq
	b.recoveredSeq = lastSeq
	if stats.Replayed > 0 {
		b.logBytes.Store(stats.ReplayedBytes)
	}
	b.mu.Unlock()
	// The recovered store is the natural snapshot source for the final
	// compaction on Close; StartSnapshots may override it.
	b.src = st
	removeBelow(dir, snapPrefix, snapSuffix, stats.SnapshotSeq)

	stats.Duration = time.Since(start)
	if m := b.opts.Metrics; m != nil {
		m.RecoveryReplayed.Add(float64(stats.Replayed))
	}
	b.log.Info("persist: recovery complete",
		"resources", stats.Resources, "replayed", stats.Replayed, "installed", stats.Installed,
		"snapshot_seq", stats.SnapshotSeq, "truncated", stats.Truncated,
		"duration", stats.Duration, "snapshot", stats.Snapshot, "fold", stats.Fold, "install", stats.Install)
	return stats, nil
}

// replay folds the newest snapshot the store accepts and the log after
// it into fold, truncating a torn tail and quarantining what follows it.
// It returns the paths of the segments left in place.
func (b *FileBackend) replay(fold *store.Replay) (stats RecoveryStats, segPaths []string, err error) {
	dir := b.opts.Dir
	start := time.Now()
	// Import changes nothing unless the whole document parses, so a
	// snapshot it refuses can be passed over for an older one.
	snap, _, skipped, err := newestSnapshot(dir, func(s snapshotFile) bool { return fold.Import(s.Resources) == nil })
	if err != nil {
		return stats, nil, err
	}
	if skipped > 0 {
		b.log.Warn("persist: skipped unreadable snapshots", "count", skipped)
	}
	fold.HiWater(snap.HiWater)
	stats.SnapshotSeq = snap.Seq
	stats.LastSeq = snap.Seq
	stats.Snapshot = time.Since(start)
	start = time.Now()
	defer func() { stats.Fold = time.Since(start) }()

	apply := func(rec store.Record) error {
		if rec.Seq <= stats.LastSeq {
			return nil // already in the snapshot (or a duplicate)
		}
		if err := fold.Add(rec); err != nil {
			return fmt.Errorf("persist: replay seq %d: %w", rec.Seq, err)
		}
		stats.Replayed++
		stats.LastSeq = rec.Seq
		stats.LastEpoch = max(stats.LastEpoch, rec.Epoch)
		return nil
	}
	segs, err := listSeqs(dir, walPrefix, walSuffix)
	if err != nil {
		return stats, nil, err
	}
	for i, seg := range segs {
		path := walPath(dir, seg)
		f, err := os.Open(path)
		if err != nil {
			return stats, segPaths, fmt.Errorf("persist: open segment: %w", err)
		}
		good, torn, err := scanFrames(f, apply)
		f.Close()
		stats.ReplayedBytes += good
		if err != nil {
			return stats, segPaths, err
		}
		segPaths = append(segPaths, path)
		if !torn {
			continue
		}
		stats.Truncated = true
		// A tear can only happen at the end of the segment that was active
		// at the crash; segments after it are not trustworthy and must
		// never be replayed. Quarantine them BEFORE truncating the torn
		// tail — the tear is the only durable evidence they are untrusted,
		// and truncation destroys it. If we crash between the rename and
		// the truncate, the next boot sees the same torn segment and
		// reaches the same verdict. (In fsync mode a later segment can hold
		// commits that were acknowledged as durable after a rotation; the
		// rename keeps those bytes on disk for an operator instead of
		// silently deleting them.)
		for _, later := range segs[i+1:] {
			lp := walPath(dir, later)
			b.log.Warn("persist: quarantining segment after torn record",
				"segment", lp, "quarantined", lp+quarantineSuffix)
			if err := os.Rename(lp, lp+quarantineSuffix); err != nil {
				return stats, segPaths, fmt.Errorf("persist: quarantine %s: %w", lp, err)
			}
			if m := b.opts.Metrics; m != nil {
				m.WALQuarantined.Inc()
			}
		}
		if i < len(segs)-1 {
			if err := syncDir(dir); err != nil {
				return stats, segPaths, fmt.Errorf("persist: sync quarantine: %w", err)
			}
		}
		b.log.Warn("persist: truncating torn log tail", "segment", path, "offset", good)
		if err := os.Truncate(path, good); err != nil {
			return stats, segPaths, fmt.Errorf("persist: truncate torn tail: %w", err)
		}
		break
	}
	return stats, segPaths, nil
}

func (b *FileBackend) onFsync(d time.Duration) {
	if m := b.opts.Metrics; m != nil {
		m.WALFsync.Observe(d.Seconds())
	}
	b.opts.Tracer.Observe("wal.fsync", d)
}

// Append implements store.Backend. It runs under the store's locks, so
// it only frames the batch into the active segment's buffer, and kicks
// the compaction loop, without waiting, when the log crosses another
// step; the returned wait completes durability after the locks are
// released.
func (b *FileBackend) Append(batch []store.Record) func() error {
	start := time.Now()
	b.mu.Lock()
	if b.w == nil {
		b.mu.Unlock()
		return func() error { return errors.New("persist: backend not recovered or already closed") }
	}
	wait, n := b.w.append(batch)
	after := b.logBytes.Add(n)
	b.mu.Unlock()
	if after/b.step != (after-n)/b.step {
		select {
		case b.kick <- struct{}{}:
		default:
		}
	}
	if m := b.opts.Metrics; m != nil {
		m.WALAppends.Add(float64(len(batch)))
	}
	b.opts.Tracer.Observe("wal.append", time.Since(start))
	return wait
}

// StartSnapshots begins the compaction loop over consistent cuts of
// src: on each kick from Append, it compacts if compactIfDue finds the
// log due. Call it once, after AttachBackend; src is also used for the
// final compaction on Close.
func (b *FileBackend) StartSnapshots(src SnapshotSource) {
	b.src = src
	b.stop = make(chan struct{})
	b.loopDone = make(chan struct{})
	go func() {
		defer close(b.loopDone)
		for {
			select {
			case <-b.kick:
				if err := b.compactIfDue(); err != nil {
					b.log.Error("persist: paced snapshot failed", "err", err)
				}
			case <-b.stop:
				return
			}
		}
	}()
}

// compactIfDue compacts when the log the newest snapshot does not cover
// has reached max(step, compactRatio × the live payload bytes).
func (b *FileBackend) compactIfDue() error {
	if b.logBytes.Load() < max(b.step, compactRatio*b.src.LiveBytes()) {
		return nil
	}
	return b.Compact()
}

// Compact rotates the log and installs a fresh snapshot, then deletes
// the files the snapshot supersedes. It is the one code path that
// writes a snapshot of a recovered directory: the first Compact after
// Recover covers the segments that boot replayed and prunes them. It is
// a no-op when the log holds nothing past the newest snapshot.
//
// The order matters for crash safety: rotate first, snapshot second.
// The snapshot is captured after rotation, so its sequence number
// covers every record in the retired segment — records committed in
// between land in the new segment with Seq <= the snapshot's and are
// skipped on replay (puts are idempotent post-state anyway). A crash
// between the steps leaves old snapshot + all segments: fully
// recoverable. A source whose cut is behind the log (a store that was
// recovered but never attached) is refused before anything is written,
// since its snapshot would not cover the segments pruned after it.
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
	// Everything logged so far is in the segments below the active one,
	// which the snapshot is to cover; until it does, a failure hands the
	// bytes back.
	covered := b.logBytes.Swap(0)
	b.mu.Unlock()
	installed := false
	defer func() {
		if !installed {
			b.logBytes.Add(covered)
		}
	}()

	start := time.Now()
	if retired != nil {
		if err := retired.close(); err != nil {
			return fmt.Errorf("persist: retire segment: %w", err)
		}
	}
	cut, err := b.src.Cut()
	if err != nil {
		return fmt.Errorf("persist: snapshot export: %w", err)
	}
	seq := cut.Seq
	if seq < last {
		return fmt.Errorf("persist: snapshot source at seq %d is behind the log at %d; attach the store first", seq, last)
	}
	if err := b.writeSnapshot(seq, cut); err != nil {
		return err
	}
	installed = true
	if b.killPoint != nil {
		b.killPoint("installed")
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

// Close implements store.Backend: stop the compaction loop, run a final
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
