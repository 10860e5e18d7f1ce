package persist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ofmf/internal/odata"
	"ofmf/internal/store"
)

// randomOps drives a seeded random mutation sequence against st: puts,
// patches, deletes, subtree refreshes and subtree deletions over a small
// id space scattered across ten top-level segments, so records of every
// primitive land in the WAL, including multi-record batches that a
// truncation can tear in half.
func randomOps(rng *rand.Rand, st *store.Store, n int) {
	flatIDs := make([]odata.ID, 16)
	for i := range flatIDs {
		flatIDs[i] = odata.ID(fmt.Sprintf("/redfish/v1/S%d/%d", i%8, i/8+1))
	}
	subtrees := []odata.ID{"/redfish/v1/T0", "/redfish/v1/T1"}
	payload := func() map[string]any {
		return map[string]any{"V": rng.Intn(1000), "W": fmt.Sprintf("w%d", rng.Intn(50))}
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // put
			if err := st.Put(flatIDs[rng.Intn(len(flatIDs))], payload()); err != nil {
				panic(err)
			}
		case 4, 5: // patch (may miss)
			_ = st.Patch(flatIDs[rng.Intn(len(flatIDs))], map[string]any{"P": rng.Intn(100)}, "")
		case 6: // delete (may miss)
			_ = st.Delete(flatIDs[rng.Intn(len(flatIDs))])
		case 7, 8: // subtree refresh: a batch of deletes + puts
			sub := subtrees[rng.Intn(len(subtrees))]
			res := map[odata.ID]any{sub: payload()}
			for j, m := 0, rng.Intn(6); j < m; j++ {
				res[sub.Append(fmt.Sprintf("%d", rng.Intn(8)+1))] = payload()
			}
			if err := st.PutSubtree(sub, res); err != nil {
				panic(err)
			}
		case 9: // subtree teardown: a batch of deletes
			_, _ = st.DeleteSubtree(subtrees[rng.Intn(len(subtrees))])
		}
	}
}

// oracleApply replays decoded records onto a plain map — an independent
// model of what the committed prefix of the log denotes.
func oracleApply(base map[string]json.RawMessage, recs []store.Record) map[string]json.RawMessage {
	state := make(map[string]json.RawMessage, len(base))
	for k, v := range base {
		state[k] = v
	}
	for _, rec := range recs {
		switch rec.Op {
		case store.OpPut:
			state[string(rec.ID)] = rec.Raw
		case store.OpDelete:
			delete(state, string(rec.ID))
		}
	}
	return state
}

// TestCrashRecoveryProperty is the crash-consistency property test: run
// a seeded random op sequence, truncate the WAL at a random byte offset
// (simulating kill -9 mid-write), recover, and require the recovered
// tree to equal exactly the longest committed prefix of the log, as
// judged by an independent in-memory oracle.
//
// The subtest ids keep the "shards=1/" and "shards=4/" prefixes they had
// while the store's lock could be split, because the list of tests that
// must keep passing names all sixty; no shard count exists any more.
// "shards=1" runs the thirty op sequences the test always ran, and
// "shards=4" — which used to repeat them on a 4-shard store — thirty
// further ones.
func TestCrashRecoveryProperty(t *testing.T) {
	const trials = 30
	for family, label := range []string{"shards=1", "shards=4"} {
		for trial := 0; trial < trials; trial++ {
			t.Run(fmt.Sprintf("%s/seed=%d", label, trial), func(t *testing.T) {
				rng := rand.New(rand.NewSource(0x0FBF ^ int64(family*trials+trial)*2654435761))
				dir := t.TempDir()
				st, _, _ := openStore(t, dir, false)
				randomOps(rng, st, 40+rng.Intn(80))
				// Simulate kill -9: no Close, no compaction. Records are in
				// the file because every mutation waits for its flush.
				active := activeSegment(t, dir)
				full, err := os.ReadFile(active)
				if err != nil {
					t.Fatal(err)
				}

				cut := int64(rng.Intn(len(full) + 1))
				if err := os.Truncate(active, cut); err != nil {
					t.Fatal(err)
				}

				// Oracle: decode the surviving committed prefix independently.
				intact, good, _ := decodeAll(bytes.NewReader(full[:cut]))
				if good > cut {
					t.Fatalf("decoder claimed %d good bytes from a %d-byte file", good, cut)
				}
				want := oracleApply(baseSnapshot(t, dir), intact)

				st2, _, stats := openStore(t, dir, false)
				defer st2.Close()
				if stats.Replayed != len(intact) {
					t.Fatalf("replayed %d records, oracle sees %d intact", stats.Replayed, len(intact))
				}
				got := export(t, st2)
				if len(got) != len(want) || !reflect.DeepEqual(normalize(got), normalize(want)) {
					t.Fatalf("cut=%d/%d intact=%d:\n got  %v\n want %v",
						cut, len(full), len(intact), normalize(got), normalize(want))
				}
			})
		}
	}
}

// TestBootKillPoints kills the boot of a crashed directory — recover,
// serve, first compaction — after each step that leaves the directory
// different: Recover rotated; a few records appended to the fresh
// segment; the compaction's snapshot written to its temp file but not
// renamed; renamed but nothing pruned. Each directory a kill leaves boots
// (twice, the first boot killed again right after Recover) to the tree
// and LastSeq the killed process held, with the same replay verdict, and
// after that boot's own Compact holds exactly one snapshot and one
// segment and nothing else.
func TestBootKillPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	dir := t.TempDir()
	st, b, _ := openStore(t, dir, false)
	b.StartSnapshots(st)
	randomOps(rng, st, 60)
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	randomOps(rng, st, 60)
	if err := b.w.close(); err != nil { // SIGKILL
		t.Fatal(err)
	}

	type kill struct {
		step string
		dir  string
		want map[string]json.RawMessage
		seq  uint64
	}
	var kills []kill
	capture := func(step string, st *store.Store) {
		kills = append(kills, kill{step, copyDir(t, dir), export(t, st), st.Seq()})
	}

	st, b, stats := openStore(t, dir, false)
	if stats.SnapshotSeq == 0 || stats.Replayed == 0 {
		t.Fatalf("stats %+v: the crashed dir must need a snapshot and a replay", stats)
	}
	// Recover wrote no snapshot and kept what it replayed.
	snaps, _ := listSeqs(dir, snapPrefix, snapSuffix)
	segs, _ := listSeqs(dir, walPrefix, walSuffix)
	if !reflect.DeepEqual(snaps, []uint64{stats.SnapshotSeq}) || !reflect.DeepEqual(segs, []uint64{stats.SnapshotSeq + 1, stats.LastSeq + 1}) {
		t.Fatalf("after Recover: snapshots %v, segments %v; want [%d] and [%d %d]",
			snaps, segs, stats.SnapshotSeq, stats.SnapshotSeq+1, stats.LastSeq+1)
	}
	capture("rotated", st)
	randomOps(rng, st, 20)
	capture("appended", st)
	b.killPoint = func(step string) { capture(step, st) }
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	b.killPoint = nil
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var steps []string
	for _, k := range kills {
		steps = append(steps, k.step)
	}
	if want := []string{"rotated", "appended", "written", "installed"}; !reflect.DeepEqual(steps, want) {
		t.Fatalf("kill points %v, want %v", steps, want)
	}
	if temps, _ := filepath.Glob(filepath.Join(kills[2].dir, "snap-*.tmp")); len(temps) != 1 {
		t.Fatalf("the kill before the rename left temp files %v, want one", temps)
	}

	for _, k := range kills {
		t.Run(k.step, func(t *testing.T) {
			var first RecoveryStats
			for boot := 1; boot <= 2; boot++ {
				st, b, stats := openStore(t, k.dir, false)
				if got := export(t, st); !reflect.DeepEqual(got, k.want) {
					t.Fatalf("boot %d: tree differs from the one killed:\n got %v\nwant %v", boot, got, k.want)
				}
				if stats.LastSeq != k.seq || stats.Truncated {
					t.Fatalf("boot %d: stats %+v, want LastSeq %d and no tear", boot, stats, k.seq)
				}
				if boot == 1 {
					first = stats
					if err := b.w.close(); err != nil { // killed again
						t.Fatal(err)
					}
					continue
				}
				if stats.SnapshotSeq != first.SnapshotSeq || stats.Replayed != first.Replayed {
					t.Fatalf("second boot %+v, first %+v: a boot killed after Recover changed the verdict", stats, first)
				}
				if err := b.Compact(); err != nil {
					t.Fatal(err)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				snaps, _ := listSeqs(k.dir, snapPrefix, snapSuffix)
				segs, _ := listSeqs(k.dir, walPrefix, walSuffix)
				if files := keys(dirContents(t, k.dir)); len(snaps) != 1 || len(segs) != 1 || len(files) != 2 {
					t.Fatalf("after the first Compact: %v, want one snapshot and one segment", files)
				}
			}
		})
	}
}

// activeSegment returns the path of the data dir's only WAL segment.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSeqs(dir, walPrefix, walSuffix)
	if err != nil || len(segs) != 1 {
		t.Fatalf("expected one active segment, got %v (%v)", segs, err)
	}
	return walPath(dir, segs[0])
}

// baseSnapshot returns the resources of the newest snapshot in dir, and
// the empty tree when there is none: a boot writes no snapshot of its
// own, so a directory that never compacted holds only its log.
func baseSnapshot(t *testing.T, dir string) map[string]json.RawMessage {
	t.Helper()
	snap, ok, skipped, err := loadNewestSnapshot(dir)
	if err != nil || skipped > 0 {
		t.Fatalf("base snapshot: %d unreadable, %v", skipped, err)
	}
	if !ok {
		return nil
	}
	var base map[string]json.RawMessage
	if err := json.Unmarshal(snap.Resources, &base); err != nil {
		t.Fatal(err)
	}
	return base
}

// TestAckedWritesSurviveTruncation is the durability contract seen from
// a client: once Put has returned (fsync on), the record is in the log
// file, so a crash that keeps at least the bytes the file held at that
// moment keeps the write — with eight writers racing, each below its
// own top-level segment, which the retired per-shard streams could get
// wrong by dropping an acknowledged record behind another stream's
// in-flight one. Each writer notes the end of the WAL's frames after
// every acknowledged Put (the file runs ahead of them by the zeros
// allocated past its frames, see segFile; every frame ends in a
// nonzero byte); the log is then cut at a random offset and the
// recovered tree must (a) contain every write acknowledged at or below
// the cut and (b) be exactly a prefix of the global commit order.
func TestAckedWritesSurviveTruncation(t *testing.T) {
	const (
		seeds   = 30
		writers = 8
		puts    = 6
	)
	type ack struct {
		id   odata.ID
		size int64 // end of the WAL's frames observed after Put returned
	}
	frameEnd := func(path string) (int64, error) {
		data, err := os.ReadFile(path)
		return int64(len(bytes.TrimRight(data, "\x00"))), err
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			st, _, _ := openStore(t, dir, true)
			active := activeSegment(t, dir)

			acks := make([][]ack, writers)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < puts; i++ {
						id := odata.ID(fmt.Sprintf("/redfish/v1/W%d/%d", w, i))
						if err := st.Put(id, map[string]any{"Writer": w, "N": i}); err != nil {
							t.Errorf("put %s: %v", id, err)
							return
						}
						end, err := frameEnd(active)
						if err != nil {
							t.Errorf("read wal: %v", err)
							return
						}
						acks[w] = append(acks[w], ack{id: id, size: end})
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			// Crash: no Close. Cut the log's frames at a seeded random
			// offset.
			full, err := os.ReadFile(active)
			if err != nil {
				t.Fatal(err)
			}
			full = bytes.TrimRight(full, "\x00")
			rng := rand.New(rand.NewSource(0xACED ^ int64(seed)*2654435761))
			cut := int64(rng.Intn(len(full) + 1))
			if err := os.Truncate(active, cut); err != nil {
				t.Fatal(err)
			}
			// The log is the global commit order; what survives the cut
			// is a prefix of it.
			all, _, torn := decodeAll(bytes.NewReader(full))
			if torn || len(all) != writers*puts {
				t.Fatalf("full log: %d records (torn=%v), want %d", len(all), torn, writers*puts)
			}
			for i, rec := range all {
				if rec.Seq != uint64(i+1) {
					t.Fatalf("log position %d holds seq %d: the log is not in commit order", i, rec.Seq)
				}
			}
			prefix, _, _ := decodeAll(bytes.NewReader(full[:cut]))
			want := oracleApply(baseSnapshot(t, dir), prefix)

			st2, _, _ := openStore(t, dir, true)
			defer st2.Close()
			for w := range acks {
				for _, a := range acks[w] {
					if a.size <= cut && !st2.Exists(a.id) {
						t.Fatalf("cut=%d: %s was acknowledged with the log at %d bytes and is gone", cut, a.id, a.size)
					}
				}
			}
			if got := export(t, st2); !reflect.DeepEqual(normalize(got), normalize(want)) {
				t.Fatalf("cut=%d/%d: recovered tree is not the %d-record commit-order prefix:\n got  %v\n want %v",
					cut, len(full), len(prefix), normalize(got), normalize(want))
			}
		})
	}
}

// normalize re-marshals raw values so formatting differences (compact vs
// indented) cannot cause false mismatches.
func normalize(m map[string]json.RawMessage) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		var x any
		if err := json.Unmarshal(v, &x); err != nil {
			out[k] = string(v)
			continue
		}
		b, _ := json.Marshal(x)
		out[k] = string(b)
	}
	return out
}

// TestRecovery1000Resources asserts the acceptance bound: recovering a
// 1000-resource tree from an unclean shutdown completes well under a
// second.
func TestRecovery1000Resources(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := openStore(t, dir, false)
	resources := make(map[odata.ID]any, 1001)
	prefix := odata.ID("/redfish/v1/Chassis")
	resources[prefix] = res("Chassis")
	for i := 0; i < 1000; i++ {
		id := prefix.Append(fmt.Sprintf("node%04d", i))
		resources[id] = map[string]any{"@odata.id": string(id), "Name": "chassis", "Index": i}
	}
	if err := st.PutSubtree(prefix, resources); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close.
	st2, _, stats := openStore(t, dir, false)
	defer st2.Close()
	if st2.Len() != 1001 {
		t.Fatalf("recovered %d resources, want 1001", st2.Len())
	}
	if stats.Replayed != 1001 {
		t.Fatalf("replayed %d records, want 1001", stats.Replayed)
	}
	if stats.Duration >= time.Second {
		t.Fatalf("recovery of 1000 resources took %v, want well under 1s", stats.Duration)
	}
}

// TestRecoveryBoundedByTree is the recovery bound the paced trigger
// gives, on compose-shaped churn (see churn) whose tree stays far below
// half a step, so the trigger's threshold is the step itself: after
// every record the log the newest snapshot does not cover is within
// max(compactStep, compactRatio × live) plus that record's batch, and a
// crash at seeded points replays exactly that log, no more, into the
// tree the store held.
func TestRecoveryBoundedByTree(t *testing.T) {
	const cycles = 600 // about 4.5 MiB of log
	dir := t.TempDir()
	st, b, _ := openStore(t, dir, false)
	rng := rand.New(rand.NewSource(41))
	crashes, compactions := 0, 0
	churn(cycles, func(op store.RecordOp, id odata.ID, raw json.RawMessage) {
		before := b.logBytes.Load()
		if err := applyOp(st, op, id, raw); err != nil {
			t.Fatal(err)
		}
		batch := b.logBytes.Load() - before
		if err := compactIfKicked(b); err != nil {
			t.Fatal(err)
		}
		live, uncovered := st.LiveBytes(), b.logBytes.Load()
		if uncovered < before {
			compactions++
		}
		if 2*compactRatio*live >= compactStep {
			t.Fatalf("the churned tree holds %d payload bytes; the bound below wants under %d", live, compactStep/(2*compactRatio))
		}
		if bound := max(compactStep, compactRatio*live) + batch; uncovered > bound {
			t.Fatalf("%d log bytes uncovered, bound %d (live %d, batch %d)", uncovered, bound, live, batch)
		}
		if rng.Intn(3000) != 0 {
			return
		}
		crashes++
		crashed := copyDir(t, dir)
		st2, b2, stats := openStore(t, crashed, false)
		defer b2.w.close()
		if stats.ReplayedBytes != uncovered {
			t.Fatalf("a crash replayed %d log bytes; %d were uncovered", stats.ReplayedBytes, uncovered)
		}
		if got, want := export(t, st2), export(t, st); !reflect.DeepEqual(got, want) {
			t.Fatalf("the crash recovered %d resources, the store held %d", len(got), len(want))
		}
	})
	if compactions < 2 || crashes < 3 {
		t.Fatalf("%d compactions and %d crashes: the churn is too short to show the bound", compactions, crashes)
	}
	st.Close()
}

// teeBackend logs every batch it passes on, in commit order (the store
// calls Append under its write lock): the oracle of what each prefix of
// the log denotes.
type teeBackend struct {
	*FileBackend
	mu   sync.Mutex
	recs []store.Record
}

func (t *teeBackend) Append(batch []store.Record) func() error {
	t.mu.Lock()
	for _, rec := range batch {
		rec.Raw = bytes.Clone(rec.Raw)
		t.recs = append(t.recs, rec)
	}
	t.mu.Unlock()
	return t.FileBackend.Append(batch)
}

// TestPacedCompactionRacingWriters: writers race the compaction loop,
// with the trigger's step lowered so it fires dozens of times — two
// making single puts, two making three-record store.Deferred units —
// and the directory is copied, as a SIGKILL would leave it, at seeded
// moments: while writers run, and inside compactions, after the
// snapshot is written and after it is installed. Each copy recovers to
// a committed prefix of the log (the tree the records up to its LastSeq
// denote) that holds every write acknowledged before the copy began.
// Writers stop once the loop has compacted compactions times.
func TestPacedCompactionRacingWriters(t *testing.T) {
	const (
		writers     = 4
		ids         = 4
		compactions = 30
		maxCrashes  = 60
	)
	for seed := int64(0); seed < 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			st := store.New()
			b, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			b.step = 2 << 10
			if _, err := b.Recover(st); err != nil {
				t.Fatal(err)
			}
			tee := &teeBackend{FileBackend: b}
			st.AttachBackend(tee, 0)

			// acked[w] is the last op writer w has had acknowledged; a
			// copy notes them all before it reads a byte.
			var acked [writers]atomic.Int64
			type crash struct {
				dir   string
				acked [writers]int64
			}
			var (
				copyMu  sync.Mutex
				crashes []crash
				copyErr error
			)
			take := func() {
				copyMu.Lock()
				full := len(crashes) >= maxCrashes
				copyMu.Unlock()
				if full {
					return
				}
				var c crash
				for w := range acked {
					c.acked[w] = acked[w].Load()
				}
				c.dir = filepath.Join(t.TempDir(), "crashed")
				err := copyFiles(dir, c.dir)
				copyMu.Lock()
				defer copyMu.Unlock()
				if err != nil && copyErr == nil {
					copyErr = err
				}
				crashes = append(crashes, c)
			}
			inCompaction := rand.New(rand.NewSource(seed))
			installed := 0
			stop := make(chan struct{})
			var stopOnce sync.Once
			b.killPoint = func(step string) { // on the loop's goroutine
				if step == "installed" {
					if installed++; installed == compactions {
						stopOnce.Do(func() { close(stop) })
					}
				}
				if inCompaction.Intn(4) == 0 {
					take()
				}
			}
			b.StartSnapshots(st)

			done := make(chan struct{})
			copier := make(chan struct{})
			go func() { // copies between compactions
				defer close(copier)
				rng := rand.New(rand.NewSource(seed + 100))
				for {
					select {
					case <-done:
						return
					case <-time.After(time.Duration(rng.Intn(20000)) * time.Microsecond):
					}
					b.compactMu.Lock() // no rotation or pruning while the files are read
					take()
					b.compactMu.Unlock()
				}
			}()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					put := func(ctx context.Context, n, k int) error {
						id := odata.ID(fmt.Sprintf("/redfish/v1/W%d/%d", w, (n+k)%ids))
						return st.PutCtx(ctx, id, map[string]any{"Writer": w, "N": n, "Pad": strings.Repeat("x", 40)})
					}
					for n := 1; ; n++ {
						select {
						case <-stop:
							return
						default:
						}
						var err error
						if w%2 == 0 {
							err = put(context.Background(), n, 0)
						} else {
							err = st.Deferred(context.Background(), func(ctx context.Context) error {
								for k := 0; k < 3; k++ {
									if err := put(ctx, n, k); err != nil {
										return err
									}
								}
								return nil
							})
						}
						if err != nil {
							t.Errorf("writer %d op %d: %v", w, n, err)
							return
						}
						acked[w].Store(int64(n))
					}
				}(w)
			}
			select {
			case <-stop:
			case <-time.After(30 * time.Second):
				stopOnce.Do(func() { close(stop) })
			}
			wg.Wait()
			close(done)
			<-copier
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			compacted, _ := listSeqs(dir, snapPrefix, snapSuffix)
			if copyErr != nil {
				t.Fatal(copyErr)
			}
			if installed < 24 {
				t.Fatalf("the trigger fired %d times, want dozens", installed)
			}
			if len(compacted) != 1 || compacted[0] != st.Seq() {
				t.Fatalf("after Close: snapshots %v, want one at %d", compacted, st.Seq())
			}

			for i, c := range crashes {
				st2, b2, stats := openStore(t, c.dir, false)
				b2.w.close()
				// The committed prefix the copy holds, by the oracle.
				want := map[string]json.RawMessage{}
				for _, rec := range tee.recs[:stats.LastSeq] {
					if rec.Op == store.OpPut {
						want[string(rec.ID)] = rec.Raw
					} else {
						delete(want, string(rec.ID))
					}
				}
				got := export(t, st2)
				if !reflect.DeepEqual(normalize(got), normalize(want)) {
					t.Fatalf("crash %d (LastSeq %d) is not a committed prefix:\n got  %v\n want %v", i, stats.LastSeq, normalize(got), normalize(want))
				}
				for w, n := range c.acked {
					if n == 0 {
						continue
					}
					id := fmt.Sprintf("/redfish/v1/W%d/%d", w, n%ids)
					var v struct{ N int64 }
					if err := json.Unmarshal(got[id], &v); err != nil || v.N < n {
						t.Fatalf("crash %d: writer %d had op %d acknowledged, %s holds %s", i, w, n, id, got[id])
					}
				}
			}
			if len(crashes) < 10 {
				t.Fatalf("only %d crashes copied", len(crashes))
			}
			t.Logf("%d compactions, %d crashes", installed, len(crashes))
		})
	}
}
