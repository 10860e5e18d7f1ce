package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ofmf/internal/odata"
	"ofmf/internal/store"
)

// putRec is a put record whose frame is about frameBytes long.
func putRec(seq uint64, id string, frameBytes int) store.Record {
	raw := fmt.Sprintf(`{"Name":%q}`, strings.Repeat("x", max(frameBytes-60-len(id), 1)))
	return store.Record{Seq: seq, Op: store.OpPut, ID: odata.ID(id), Raw: json.RawMessage(raw)}
}

// needAllocate skips the test where the filesystem of the test's temp
// dirs cannot allocate ahead, as the segments there grow with each write.
func needAllocate(t *testing.T) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "probe")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := allocateFile(f, 0, allocBlock); err != nil {
		t.Skipf("no fallocate here: %v", err)
	}
}

// countAllocs wraps w's allocator, counting its calls; fail makes every
// call fail instead.
func countAllocs(w *wal, fail bool) *int {
	calls := new(int)
	w.file.allocate = func(f *os.File, off, n int64) error {
		*calls++
		if fail {
			return errors.ErrUnsupported
		}
		return allocateFile(f, off, n)
	}
	return calls
}

// commit appends recs to w as one batch and waits for it.
func commit(t *testing.T, w *wal, recs ...store.Record) {
	t.Helper()
	wait, _ := w.append(recs)
	if err := wait(); err != nil {
		t.Fatal(err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestSmallCommitsGrowByBlocks: PATCH-sized commits land in space
// allocated a block ahead, so the file's length changes only at block
// boundaries, once a block, and the bytes past the frames are zeros.
func TestSmallCommitsGrowByBlocks(t *testing.T) {
	dir := t.TempDir()
	needAllocate(t)
	path := walPath(dir, 1)
	w, err := openWAL(path, 0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	calls := countAllocs(w, false)
	var recs []store.Record
	sizes := map[int64]bool{}
	for seq := uint64(1); seq <= 50; seq++ {
		rec := putRec(seq, fmt.Sprintf("/redfish/v1/Systems/s%d", seq), 460)
		recs = append(recs, rec)
		commit(t, w, rec)
		size, want := fileSize(t, path), frames(t, recs...)
		if size%allocBlock != 0 || size < int64(len(want)) || size-int64(len(want)) >= allocBlock {
			t.Fatalf("after commit %d: file is %d bytes for %d of frames; want the block boundary past them", seq, size, len(want))
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data[:len(want)], want) || !allZero(data[len(want):]) {
			t.Fatalf("after commit %d: the file is not the frames followed by zeros", seq)
		}
		sizes[size] = true
	}
	if len(sizes) != *calls || len(sizes) < 5 {
		t.Fatalf("%d allocations for %d file sizes; want one a block", *calls, len(sizes))
	}
}

// TestLargeFlushAllocatesNothing: a flush of half a block or more grows
// the file to exactly its end, as an unallocated segment does, also past
// space allocated for earlier small ones.
func TestLargeFlushAllocatesNothing(t *testing.T) {
	dir := t.TempDir()
	needAllocate(t)
	path := walPath(dir, 1)
	w, err := openWAL(path, 0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	calls := countAllocs(w, false)
	big := putRec(1, "/redfish/v1/Systems/big", 3500)
	commit(t, w, big)
	if *calls != 0 || fileSize(t, path) != int64(len(frames(t, big))) {
		t.Fatalf("a %d-byte flush: %d allocations, file %d bytes; want none and the frame's length",
			len(frames(t, big)), *calls, fileSize(t, path))
	}
	small := putRec(2, "/redfish/v1/Systems/small", 460)
	commit(t, w, small)
	if *calls != 1 || fileSize(t, path)%allocBlock != 0 {
		t.Fatalf("a small flush: %d allocations, file %d bytes; want one and a block boundary", *calls, fileSize(t, path))
	}
	var recs []store.Record
	for seq := uint64(3); seq < 9; seq++ {
		recs = append(recs, putRec(seq, fmt.Sprintf("/redfish/v1/Systems/b%d", seq), 460))
	}
	commit(t, w, recs...)
	want := frames(t, append([]store.Record{big, small}, recs...)...)
	if *calls != 1 || fileSize(t, path) != int64(len(want)) {
		t.Fatalf("a %d-byte batch past the allocated block: %d allocations, file %d bytes; want 1 and %d",
			len(frames(t, recs...)), *calls, fileSize(t, path), len(want))
	}
}

// TestAllocateFailureGrowsAsBefore: where allocating fails, the segment
// stops trying and every commit grows the file to exactly its frames.
func TestAllocateFailureGrowsAsBefore(t *testing.T) {
	path := walPath(t.TempDir(), 1)
	w, err := openWAL(path, 0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	calls := countAllocs(w, true)
	var recs []store.Record
	for seq := uint64(1); seq <= 20; seq++ {
		rec := putRec(seq, fmt.Sprintf("/redfish/v1/Systems/s%d", seq), 460)
		recs = append(recs, rec)
		commit(t, w, rec)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, frames(t, recs...)) {
			t.Fatalf("after commit %d: %d bytes on disk, want exactly the %d of the frames", seq, len(data), len(frames(t, recs...)))
		}
	}
	if *calls != 1 {
		t.Fatalf("%d allocation attempts, want 1: a failed one stops the segment trying", *calls)
	}
}

// TestRetiredSegmentSizeIsItsFrames: close cuts the space allocated past
// the frames, so a retired segment is exactly its frames.
func TestRetiredSegmentSizeIsItsFrames(t *testing.T) {
	dir := t.TempDir()
	needAllocate(t)
	path := walPath(dir, 1)
	w, err := openWAL(path, 0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	var recs []store.Record
	for seq := uint64(1); seq <= 3; seq++ {
		recs = append(recs, putRec(seq, fmt.Sprintf("/redfish/v1/Systems/s%d", seq), 460))
		commit(t, w, recs[len(recs)-1])
	}
	if fileSize(t, path) != allocBlock {
		t.Fatalf("active segment is %d bytes, want the %d allocated", fileSize(t, path), allocBlock)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, frames(t, recs...)) {
		t.Fatalf("retired segment is %d bytes, want exactly its %d of frames", len(data), len(frames(t, recs...)))
	}
}

// recoverLogged recovers a store from dir, returning what the backend
// logged.
func recoverLogged(t *testing.T, dir string) (*store.Store, RecoveryStats, string) {
	t.Helper()
	var logged bytes.Buffer
	b, err := Open(Options{Dir: dir, Logger: slog.New(slog.NewTextHandler(&logged, nil))})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	stats, err := b.Recover(st)
	if err != nil {
		t.Fatal(err)
	}
	st.AttachBackend(b, stats.LastSeq)
	t.Cleanup(func() { st.Close() })
	return st, stats, logged.String()
}

// TestZeroTailIsNotATear: the segment active at a crash ends in the zeros
// allocated past its frames; recovery replays every record, truncates
// and quarantines nothing and warns of no tear.
func TestZeroTailIsNotATear(t *testing.T) {
	dir := t.TempDir()
	needAllocate(t)
	st, _, _ := openStore(t, dir, true)
	for i := 0; i < 5; i++ {
		if err := st.Put(odata.ID(fmt.Sprintf("/redfish/v1/Systems/s%d", i)), res("s")); err != nil {
			t.Fatal(err)
		}
	}
	want := export(t, st)
	// Crash: no Close.
	data, err := os.ReadFile(activeSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != 0 {
		t.Fatal("the active segment has no zero tail; the test would not cover it")
	}

	st2, stats, logged := recoverLogged(t, dir)
	if stats.Replayed != 5 || stats.Truncated {
		t.Fatalf("replayed %d, truncated %v; want 5 and false", stats.Replayed, stats.Truncated)
	}
	if strings.Contains(logged, "torn") || strings.Contains(logged, "quarantin") {
		t.Fatalf("recovery of a zero tail reported a tear:\n%s", logged)
	}
	if q, _ := filepath.Glob(filepath.Join(dir, "*"+quarantineSuffix)); len(q) != 0 {
		t.Fatalf("quarantined %v", q)
	}
	if got := export(t, st2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

// TestRetiredZeroTailThenNextSegment: a kill between a rotation and the
// retired segment's close leaves that segment with its zero tail and the
// next one after it; recovery replays both, exactly as it does the same
// two files with the tail cut off.
func TestRetiredZeroTailThenNextSegment(t *testing.T) {
	dir := t.TempDir()
	needAllocate(t)
	var recs []store.Record
	for seq := uint64(1); seq <= 6; seq++ {
		recs = append(recs, putRec(seq, fmt.Sprintf("/redfish/v1/Systems/s%d", seq), 300))
	}
	first, err := openWAL(walPath(dir, 1), 0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	commit(t, first, recs[0])
	commit(t, first, recs[1])
	commit(t, first, recs[2])
	next, err := openWAL(walPath(dir, 4), 3, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	commit(t, next, recs[3:]...)
	// Killed here: neither segment is closed. Release the descriptors
	// without close's flush and trim.
	first.file.f.Close()
	next.file.f.Close()
	if fileSize(t, walPath(dir, 1)) != allocBlock {
		t.Fatal("the retired segment has no zero tail; the test would not cover it")
	}

	cut := copyDir(t, dir)
	if err := os.Truncate(walPath(cut, 1), int64(len(frames(t, recs[:3]...)))); err != nil {
		t.Fatal(err)
	}
	st, stats, logged := recoverLogged(t, dir)
	stCut, statsCut, _ := recoverLogged(t, cut)
	if stats.Replayed != 6 || stats.LastSeq != 6 || stats.Truncated || strings.Contains(logged, "torn") {
		t.Fatalf("stats %+v (log %s); want 6 replayed, no tear", stats, logged)
	}
	if stats.ReplayedBytes != statsCut.ReplayedBytes || stats.Replayed != statsCut.Replayed {
		t.Fatalf("zero tail: %+v; cut off: %+v", stats, statsCut)
	}
	if got, want := export(t, st), export(t, stCut); !reflect.DeepEqual(got, want) || len(got) != 6 {
		t.Fatalf("zero tail recovered %v; cut off %v", got, want)
	}
}

// TestZerosThenGarbageIsATear: a nonzero byte after zeros is a tear like
// any other: the segment is cut at its last frame and the later
// segments are quarantined.
func TestZerosThenGarbageIsATear(t *testing.T) {
	dir := t.TempDir()
	good := frames(t, putRec(1, "/a/1", 200), putRec(2, "/a/2", 200))
	mustWrite(t, walPath(dir, 1), append(append(append([]byte{}, good...), make([]byte, 100)...), 1))
	mustWrite(t, walPath(dir, 3), frames(t, putRec(3, "/a/zombie", 200)))

	st, stats, logged := recoverLogged(t, dir)
	if !stats.Truncated || stats.Replayed != 2 || !strings.Contains(logged, "torn") {
		t.Fatalf("stats %+v (log %s); want a tear after 2 records", stats, logged)
	}
	if st.Exists("/a/zombie") {
		t.Fatal("record from untrusted successor segment replayed")
	}
	if q, _ := filepath.Glob(filepath.Join(dir, "*"+quarantineSuffix)); len(q) != 1 {
		t.Fatalf("quarantined %v, want exactly one", q)
	}
	if size := fileSize(t, walPath(dir, 1)); size != int64(len(good)) {
		t.Fatalf("torn segment cut at %d, want %d", size, len(good))
	}
}

// TestReadRecords: the tail a follower reads runs over a retired segment,
// one a crash left with a zero tail and the live, allocated-ahead one,
// from any position, and stops at a real gap.
func TestReadRecords(t *testing.T) {
	dir := t.TempDir()
	needAllocate(t)
	var recs []store.Record
	for seq := uint64(1); seq <= 6; seq++ {
		recs = append(recs, putRec(seq, fmt.Sprintf("/redfish/v1/Systems/s%d", seq), 300))
	}
	mustWrite(t, walPath(dir, 1), frames(t, recs[:3]...))
	mustWrite(t, walPath(dir, 4), append(frames(t, recs[3:]...), make([]byte, allocBlock)...))
	st, b, stats := openStore(t, dir, true)
	defer st.Close()
	if stats.Replayed != 6 || stats.Truncated {
		t.Fatalf("stats %+v, want 6 replayed and no tear", stats)
	}
	for i := 7; i <= 9; i++ {
		if err := st.Put(odata.ID(fmt.Sprintf("/redfish/v1/Systems/s%d", i)), res("s")); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(walPath(dir, 7)); err != nil || len(data) == 0 || data[len(data)-1] != 0 {
		t.Fatalf("the live segment has no zero tail (%v); the test would not cover it", err)
	}
	seqs := func(from uint64) []uint64 {
		t.Helper()
		got, err := b.ReadRecords(from)
		if err != nil {
			t.Fatal(err)
		}
		var out []uint64
		for _, rec := range got {
			out = append(out, rec.Seq)
		}
		return out
	}
	for _, c := range []struct {
		from uint64
		want []uint64
	}{
		{0, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{2, []uint64{3, 4, 5, 6, 7, 8, 9}},
		{5, []uint64{6, 7, 8, 9}},
		{8, []uint64{9}},
		{9, nil},
	} {
		if got := seqs(c.from); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("ReadRecords(%d) = %v, want %v", c.from, got, c.want)
		}
	}
	got, err := b.ReadRecords(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range got[:6] {
		if rec.ID != recs[i].ID || !bytes.Equal(rec.Raw, recs[i].Raw) {
			t.Fatalf("record %d read back as %s %s", rec.Seq, rec.ID, rec.Raw)
		}
	}

	// A gap: the zero-tailed segment is gone.
	if err := os.Remove(walPath(dir, 4)); err != nil {
		t.Fatal(err)
	}
	if got := seqs(0); !reflect.DeepEqual(got, []uint64{1, 2, 3}) {
		t.Fatalf("ReadRecords(0) over a gap = %v, want [1 2 3]", got)
	}
	if got := seqs(6); !reflect.DeepEqual(got, []uint64{7, 8, 9}) {
		t.Fatalf("ReadRecords(6) past the gap = %v, want [7 8 9]", got)
	}
}
