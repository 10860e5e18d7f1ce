package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ofmf/internal/odata"
	"ofmf/internal/store"
)

func res(name string) map[string]any {
	return map[string]any{"@odata.id": name, "Name": name}
}

// openStore builds a recovered, attached store on dir.
func openStore(t *testing.T, dir string, fsync bool) (*store.Store, *FileBackend, RecoveryStats) {
	t.Helper()
	st := store.New()
	b, err := Open(Options{Dir: dir, Fsync: fsync})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	stats, err := b.Recover(st)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	st.AttachBackend(b, stats.LastSeq)
	return st, b, stats
}

func export(t *testing.T, st *store.Store) map[string]json.RawMessage {
	t.Helper()
	data, err := st.Export()
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("parse export: %v", err)
	}
	return m
}

func TestDurabilityAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := openStore(t, dir, true)
	if err := st.Put("/redfish/v1/Systems/a", res("a")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("/redfish/v1/Systems/b", res("b")); err != nil {
		t.Fatal(err)
	}
	if err := st.Patch("/redfish/v1/Systems/a", map[string]any{"Extra": 1.0}, ""); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("/redfish/v1/Systems/b"); err != nil {
		t.Fatal(err)
	}
	want := export(t, st)
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2, _, stats := openStore(t, dir, true)
	defer st2.Close()
	if got := export(t, st2); !reflect.DeepEqual(got, want) {
		t.Fatalf("restart mismatch:\n got %v\nwant %v", got, want)
	}
	// Graceful shutdown compacts, so a clean restart replays nothing.
	if stats.Replayed != 0 {
		t.Fatalf("clean restart replayed %d records, want 0", stats.Replayed)
	}
	if stats.Truncated {
		t.Fatal("clean restart reported truncation")
	}
}

func TestRecoveryWithoutCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := openStore(t, dir, false)
	if err := st.PutSubtree("/redfish/v1/Fabrics/CXL", map[odata.ID]any{
		"/redfish/v1/Fabrics/CXL":         res("CXL"),
		"/redfish/v1/Fabrics/CXL/Ports/1": res("p1"),
		"/redfish/v1/Fabrics/CXL/Ports/2": res("p2"),
	}); err != nil {
		t.Fatal(err)
	}
	if n, err := st.DeleteSubtree("/redfish/v1/Fabrics/CXL/Ports/2"); err != nil || n != 1 {
		t.Fatalf("DeleteSubtree = %d, %v; want 1, nil", n, err)
	}
	want := export(t, st)
	// No Close: simulate a crash. Every mutation waited for its flush,
	// so the records are in the file even though the process "died".
	st2, _, stats := openStore(t, dir, false)
	defer st2.Close()
	if got := export(t, st2); !reflect.DeepEqual(got, want) {
		t.Fatalf("crash recovery mismatch:\n got %v\nwant %v", got, want)
	}
	if stats.Replayed == 0 {
		t.Fatal("expected replayed records after unclean shutdown")
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := openStore(t, dir, false)
	for _, id := range []odata.ID{"/a/1", "/a/2", "/a/3"} {
		if err := st.Put(id, res(string(id))); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash mid-write: append garbage (a torn frame) to the
	// active segment.
	segs, err := listSeqs(dir, walPrefix, walSuffix)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segment: %v", err)
	}
	active := walPath(dir, segs[len(segs)-1])
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, _, stats := openStore(t, dir, false)
	defer st2.Close()
	if !stats.Truncated {
		t.Fatal("torn tail not detected")
	}
	if st2.Len() != 3 {
		t.Fatalf("recovered %d resources, want 3", st2.Len())
	}
}

// TestTornSegmentQuarantinesSuccessors covers the zombie-resurrection
// case: a torn record means every later segment is untrusted, and one of
// them can start exactly at the sequence number the fresh post-recovery
// segment would take. Recovery must rename those segments aside — not
// replay them, not silently delete them, and never append new commits
// into them — so that neither this boot nor the next resurrects records
// recovery refused.
func TestTornSegmentQuarantinesSuccessors(t *testing.T) {
	dir := t.TempDir()
	rec := func(seq uint64, id string) store.Record {
		raw, err := json.Marshal(res(id))
		if err != nil {
			t.Fatal(err)
		}
		return store.Record{Seq: seq, Op: store.OpPut, ID: odata.ID(id), Raw: raw}
	}
	writeSeg := func(start uint64, torn bool, recs ...store.Record) {
		f, err := os.Create(walPath(dir, start))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(frames(t, recs...)); err != nil {
			t.Fatal(err)
		}
		if torn {
			if _, err := f.Write([]byte{0xde, 0xad}); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
	}
	// The segment active at the crash: seqs 1-2 committed, then a torn
	// frame.
	writeSeg(1, true, rec(1, "/a/1"), rec(2, "/a/2"))
	// An untrusted successor starting exactly at lastSeq+1 — the very
	// path recovery reuses for its fresh segment.
	writeSeg(3, false, rec(3, "/a/zombie"))

	st, _, stats := openStore(t, dir, false)
	if !stats.Truncated {
		t.Fatal("tear not detected")
	}
	if stats.Replayed != 2 {
		t.Fatalf("replayed %d records, want 2 (the committed prefix)", stats.Replayed)
	}
	if st.Exists("/a/zombie") {
		t.Fatal("record from untrusted successor segment replayed")
	}
	quarantined, err := filepath.Glob(filepath.Join(dir, "*"+quarantineSuffix))
	if err != nil || len(quarantined) != 1 {
		t.Fatalf("quarantined files = %v (%v), want exactly one", quarantined, err)
	}
	// New commits go to a fresh segment; a second boot must serve the
	// committed prefix plus the new commit, zombie still absent.
	if err := st.Put("/a/3", res("/a/3")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, _, _ := openStore(t, dir, false)
	defer st2.Close()
	if st2.Exists("/a/zombie") {
		t.Fatal("untrusted record resurrected on second boot")
	}
	for _, id := range []odata.ID{"/a/1", "/a/2", "/a/3"} {
		if !st2.Exists(id) {
			t.Fatalf("committed resource %s lost", id)
		}
	}
}

func TestOpenWALRefusesExistingFile(t *testing.T) {
	dir := t.TempDir()
	path := walPath(dir, 1)
	if err := os.WriteFile(path, []byte("leftover"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openWAL(path, 0, false, nil); err == nil {
		t.Fatal("openWAL opened an existing file instead of failing loudly")
	}
}

// flakySrc injects one snapshot failure, exercising Compact's retry path:
// after a failed snapshot the rotation has already happened, and the
// retry must not collide with the segment it created.
type flakySrc struct {
	st   *store.Store
	fail bool
}

func (f *flakySrc) LiveBytes() int64 { return f.st.LiveBytes() }

func (f *flakySrc) Cut() (store.Cut, error) {
	if f.fail {
		return store.Cut{}, errors.New("injected snapshot failure")
	}
	return f.st.Cut()
}

func TestCompactRetriesAfterSnapshotFailure(t *testing.T) {
	dir := t.TempDir()
	st, b, _ := openStore(t, dir, false)
	defer st.Close()
	src := &flakySrc{st: st, fail: true}
	b.StartSnapshots(src)
	if err := st.Put("/a/x", res("x")); err != nil {
		t.Fatal(err)
	}
	if err := b.Compact(); err == nil {
		t.Fatal("expected injected snapshot failure")
	}
	src.fail = false
	if err := b.Compact(); err != nil {
		t.Fatalf("Compact retry after failed snapshot: %v", err)
	}
	segs, _ := listSeqs(dir, walPrefix, walSuffix)
	if len(segs) != 1 {
		t.Fatalf("after retried compaction: %d segments, want 1", len(segs))
	}
}

// TestCompactRefusesUnattachedSource: a store recovered but never
// attached cuts its snapshot at seq 0, below the log it replayed. Since
// a boot keeps its replayed segments for the first Compact to prune,
// that compaction (here Close's) must write and prune nothing: the
// snapshot would claim seq 0, below any older snapshot the next boot
// prefers, and the records of the pruned segments would be gone.
func TestCompactRefusesUnattachedSource(t *testing.T) {
	dir := t.TempDir()
	st, b, _ := openStore(t, dir, false)
	for _, id := range []odata.ID{"/a/1", "/a/2", "/a/3"} {
		if err := st.Put(id, res(string(id))); err != nil {
			t.Fatal(err)
		}
	}
	want := export(t, st)
	if err := b.w.close(); err != nil { // SIGKILL
		t.Fatal(err)
	}

	unattached := store.New()
	b, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recover(unattached); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, dir)
	if err := b.Close(); err == nil {
		t.Fatal("Close compacted from a store that was never attached")
	}
	if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused compaction changed the directory: %v → %v", keys(before), keys(after))
	}
	st2, _, stats := openStore(t, dir, false)
	defer st2.Close()
	if got := export(t, st2); !reflect.DeepEqual(got, want) || stats.LastSeq != 3 {
		t.Fatalf("after the refused compaction: LastSeq %d, tree %v; want 3 and %v", stats.LastSeq, got, want)
	}
}

func TestCompactRotatesAndPrunes(t *testing.T) {
	dir := t.TempDir()
	st, b, _ := openStore(t, dir, false)
	defer st.Close()
	b.StartSnapshots(st)
	for i := 0; i < 10; i++ {
		if err := st.Put(odata.ID("/a/"+string(rune('a'+i))), res("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Idempotent when nothing new was appended.
	if err := b.Compact(); err != nil {
		t.Fatalf("second Compact: %v", err)
	}
	segs, _ := listSeqs(dir, walPrefix, walSuffix)
	snaps, _ := listSeqs(dir, snapPrefix, snapSuffix)
	if len(segs) != 1 || len(snaps) != 1 {
		t.Fatalf("after compaction: %d segments, %d snapshots; want 1 and 1", len(segs), len(snaps))
	}
	// The surviving snapshot covers every mutation: replay-free restart.
	_, _, stats := openStore(t, dir, false)
	if stats.Replayed != 0 {
		t.Fatalf("replayed %d after compaction, want 0", stats.Replayed)
	}
	if stats.Resources != 10 {
		t.Fatalf("recovered %d resources, want 10", stats.Resources)
	}
}

func TestConcurrentWritersGroupCommit(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := openStore(t, dir, true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := odata.ID("/w/" + string(rune('a'+g)))
			for i := 0; i < 25; i++ {
				if err := st.Put(base.Append(string(rune('a'+i%26))), res("v")); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	want := export(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, _, _ := openStore(t, dir, true)
	defer st2.Close()
	if got := export(t, st2); !reflect.DeepEqual(got, want) {
		t.Fatal("concurrent-writer recovery mismatch")
	}
}

// TestWALAppendAllocs is the exact-count gate on the WAL's append: a put
// of a stored (canonical) payload is framed into the segment's reused
// buffer with no allocation, so a batch costs exactly one — the wait it
// returns — whatever its length. Commit 7ec3f91 paid 3 more per record:
// json.Marshal's result, the record boxed for it, and the frame header.
// Nothing here is pooled, so the count holds under -race as well.
func TestWALAppendAllocs(t *testing.T) {
	w, err := openWAL(filepath.Join(t.TempDir(), "wal.log"), 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	var seq uint64
	for _, n := range []int{1, 64} {
		batch := make([]store.Record, n)
		for i := range batch {
			id := odata.ID(fmt.Sprintf("/redfish/v1/Fabrics/Bench/Endpoints/E%03d", i))
			batch[i] = store.Record{Op: store.OpPut, ID: id, Raw: readTreePayload(id, 1, i, 0)}
		}
		allocs := testing.AllocsPerRun(200, func() {
			for i := range batch {
				seq++
				batch[i].Seq = seq
			}
			w.append(batch)
		})
		if allocs != 1 {
			t.Errorf("a batch of %d puts costs %v allocations, want 1 (its wait)", n, allocs)
		}
	}
}

// TestPacedCompactionWaitsForTheLog: a log below the trigger compacts
// nothing, and an explicit Compact still installs the one snapshot and
// leaves no log uncovered.
func TestPacedCompactionWaitsForTheLog(t *testing.T) {
	dir := t.TempDir()
	st, b, _ := openStore(t, dir, false)
	b.StartSnapshots(st)
	if err := st.Put("/a/x", res("x")); err != nil {
		t.Fatal(err)
	}
	if err := b.compactIfDue(); err != nil {
		t.Fatal(err)
	}
	if snaps, _ := listSeqs(dir, snapPrefix, snapSuffix); len(snaps) != 0 {
		t.Fatalf("a log below the trigger compacted: snapshots %v", snaps)
	}
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := listSeqs(dir, snapPrefix, snapSuffix)
	if len(snaps) != 1 || b.logBytes.Load() != 0 {
		t.Fatalf("after Compact: snapshots %v, %d log bytes uncovered; want one and 0", snaps, b.logBytes.Load())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPacedCompactionRuns: rewriting one resource grows the log while
// the tree stays put, so the loop — kicked by Append alone, nothing
// calling Compact — installs a snapshot.
func TestPacedCompactionRuns(t *testing.T) {
	dir := t.TempDir()
	st := store.New()
	b, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b.step = 512
	stats, err := b.Recover(st)
	if err != nil {
		t.Fatal(err)
	}
	st.AttachBackend(b, stats.LastSeq)
	installed := make(chan struct{}, 1)
	b.killPoint = func(step string) { // on the loop's goroutine
		if step == "installed" {
			select {
			case installed <- struct{}{}:
			default:
			}
		}
	}
	b.StartSnapshots(st)
	deadline := time.After(5 * time.Second)
rewrite:
	for i := 0; ; i++ {
		if err := st.Put("/a/x", map[string]any{"Name": "x", "N": i}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-installed:
			break rewrite
		case <-deadline:
			t.Fatalf("no snapshot after %d rewrites (%d log bytes uncovered)", i+1, b.logBytes.Load())
		default:
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, _, stats := openStore(t, dir, false)
	defer st2.Close()
	if stats.SnapshotSeq == 0 || stats.Replayed != 0 {
		t.Fatalf("after a paced compaction and a clean close: %+v, want a snapshot and nothing to replay", stats)
	}
}

// TestDataDirFilesAreScoped: unrelated files survive recovery and
// compaction untouched, and what the backend leaves is snapshots and
// segments by their exact names — not the temp file of a snapshot whose
// compaction was killed before its rename.
func TestDataDirFilesAreScoped(t *testing.T) {
	dir := t.TempDir()
	// Unrelated files must survive compaction untouched.
	keep := filepath.Join(dir, "README.txt")
	if err := os.WriteFile(keep, []byte("operator notes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-123456.tmp"), []byte(`{"Seq":9,"Resou`), 0o644); err != nil {
		t.Fatal(err)
	}
	st, b, _ := openStore(t, dir, false)
	b.StartSnapshots(st)
	if err := st.Put("/a/x", res("x")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("unrelated file removed: %v", err)
	}
	snaps, _ := listSeqs(dir, snapPrefix, snapSuffix)
	segs, _ := listSeqs(dir, walPrefix, walSuffix)
	want := map[string]bool{"README.txt": true}
	for _, seq := range snaps {
		want[filepath.Base(snapPath(dir, seq))] = true
	}
	for _, seq := range segs {
		want[filepath.Base(walPath(dir, seq))] = true
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if !want[e.Name()] {
			t.Fatalf("unexpected file in data dir: %s", e.Name())
		}
	}
}

// TestRecoverRemovesSnapshotTemps: a compaction killed before its
// rename leaves a temp file the size of the tree. The next boot deletes
// it, and recovers the same tree it would have without it.
func TestRecoverRemovesSnapshotTemps(t *testing.T) {
	dir := t.TempDir()
	st, b, _ := openStore(t, dir, false)
	b.StartSnapshots(st)
	for _, id := range []odata.ID{"/a/1", "/a/2"} {
		if err := st.Put(id, res(string(id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("/a/3", res("/a/3")); err != nil {
		t.Fatal(err)
	}
	want := export(t, st)
	// The kill: the temp file of the next snapshot, written in full but
	// never renamed, and the backend abandoned.
	c, err := st.Cut()
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "snap-2718281828.tmp")
	if err := os.WriteFile(tmp, append([]byte(`{"Seq":3,"Resources":`), append(c.Resources, '}')...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := b.w.close(); err != nil {
		t.Fatal(err)
	}

	st2, _, stats := openStore(t, dir, false)
	defer st2.Close()
	if got := export(t, st2); !reflect.DeepEqual(got, want) {
		t.Fatalf("tree after recovery:\n got %v\nwant %v", got, want)
	}
	if stats.SnapshotSeq != 2 || stats.Replayed != 1 || stats.LastSeq != 3 {
		t.Fatalf("stats %+v, want the snapshot at 2 and one record replayed", stats)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("snapshot temp file still there after recovery (%v)", err)
	}
}

// writeLegacyDir lays recs out the way the retired per-shard-stream
// writer did: a layout.json descriptor declaring n streams and one
// shard-NN/wal-<start>.log per stream, record k in stream k mod n.
func writeLegacyDir(t *testing.T, dir string, n int, recs []store.Record) {
	t.Helper()
	desc := fmt.Sprintf(`{"Version":1,"Shards":%d}`, n)
	if err := os.WriteFile(filepath.Join(dir, layoutName), []byte(desc), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var mine []store.Record
		for k, rec := range recs {
			if k%n == i {
				mine = append(mine, rec)
			}
		}
		sdir := filepath.Join(dir, fmt.Sprintf("shard-%02d", i))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walPath(sdir, 1), frames(t, mine...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// dirContents reads every file under dir, keyed by relative path.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestLegacyShardedTornStream: the reader of the retired sharded layout
// is gone, so such a directory — here with one of its four streams cut
// at a random offset, the state that reader used to truncate and
// quarantine its way through — is refused with the commit that can still
// convert it, before anything in it is touched: an operator must be able
// to take the directory, as it is, to that build.
func TestLegacyShardedTornStream(t *testing.T) {
	const n = 4
	for seed := int64(0); seed < 30; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var recs []store.Record
			for k := 0; k < 40; k++ {
				id := odata.ID(fmt.Sprintf("/redfish/v1/S%d/%d", rng.Intn(8), rng.Intn(5)))
				recs = append(recs, store.Record{Seq: uint64(k + 1), Op: store.OpPut, ID: id, Raw: json.RawMessage(`{"V":1}`)})
			}
			dir := t.TempDir()
			writeLegacyDir(t, dir, n, recs)
			vpath := walPath(filepath.Join(dir, fmt.Sprintf("shard-%02d", rng.Intn(n))), 1)
			fi, err := os.Stat(vpath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(vpath, rng.Int63n(fi.Size()+1)); err != nil {
				t.Fatal(err)
			}
			before := dirContents(t, dir)

			b, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			st := store.New()
			_, err = b.Recover(st)
			if err == nil || !strings.Contains(err.Error(), layoutName) || !strings.Contains(err.Error(), "347f903") {
				t.Fatalf("Recover on a legacy sharded dir = %v, want a refusal naming %s and commit 347f903", err, layoutName)
			}
			if st.Len() != 0 {
				t.Fatalf("refused recovery left %d resources in the store", st.Len())
			}
			if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused directory was modified:\nbefore %v\nafter  %v", keys(before), keys(after))
			}
		})
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestBootstrapRefusesLegacyDir: a promoted replica must not lay a
// replicated history over a directory that still describes a sharded
// one.
func TestBootstrapRefusesLegacyDir(t *testing.T) {
	dir := t.TempDir()
	writeLegacyDir(t, dir, 2, nil)
	b, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Bootstrap(store.New(), 7); err == nil || !strings.Contains(err.Error(), "347f903") {
		t.Fatalf("Bootstrap on a legacy dir = %v, want a refusal naming commit 347f903", err)
	}
}

// TestBootKeepsHiWater: ids are not reused after deletion, across a
// restart too. Create C/1..3 through NextID, delete 3 and crash: a boot
// from the log alone and a boot from the snapshot a compaction cut both
// mint 4 next. The snapshot carries the mark in its HiWater field (a
// tree rebuilt from its resources alone would derive 2), and a clean
// boot of a snapshot whose resources imply every mark writes no such
// field.
func TestBootKeepsHiWater(t *testing.T) {
	const coll = odata.ID("/redfish/v1/C")
	for _, compact := range []bool{false, true} {
		t.Run(fmt.Sprintf("compact=%v", compact), func(t *testing.T) {
			dir := t.TempDir()
			st, b, _ := openStore(t, dir, false)
			for i := 0; i < 3; i++ {
				id := coll.Append(st.NextID(coll))
				if err := st.Create(id, res(string(id))); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Delete(coll.Append("3")); err != nil {
				t.Fatal(err)
			}
			if compact {
				if err := b.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.w.close(); err != nil { // SIGKILL
				t.Fatal(err)
			}

			st, _, stats := openStore(t, dir, false)
			if compact != (stats.SnapshotSeq > 0 && stats.Replayed == 0) {
				t.Fatalf("stats %+v: want a boot from the %s", stats, map[bool]string{false: "log", true: "snapshot"}[compact])
			}
			if got := st.NextID(coll); got != "4" {
				t.Fatalf("NextID after the boot = %q, want \"4\": a deleted id would be minted again", got)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			snap, ok, _, err := loadNewestSnapshot(dir)
			if err != nil || !ok || !reflect.DeepEqual(snap.HiWater, map[odata.ID]int{coll: 3}) {
				t.Fatalf("the snapshot Close wrote carries marks %v (%v, %v), want C: 3", snap.HiWater, ok, err)
			}
		})
	}

	dir := t.TempDir()
	st, _, _ := openStore(t, dir, false)
	if err := st.Put(coll.Append("1"), res("1")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := listSeqs(dir, snapPrefix, snapSuffix)
	if data, err := os.ReadFile(snapPath(dir, snaps[0])); err != nil || strings.Contains(string(data), "HiWater") {
		t.Fatalf("a snapshot whose resources imply every mark: %s (%v)", data, err)
	}
}
