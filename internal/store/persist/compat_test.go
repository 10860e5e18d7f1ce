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
	"reflect"
	"testing"

	"ofmf/internal/odata"
	"ofmf/internal/store"
	"ofmf/internal/store/storetest"
)

// This file holds recovery to what it was before bytes crossed the disk
// boundary unparsed: the decoders and encoders of commit 347f903 —
// json.Unmarshal per frame, json.Marshal of the snapshot envelope,
// json.MarshalIndent of a map for Export — are kept here as the oracle.

// parentDecodeAll is decodeAll as commit 347f903 had it.
func parentDecodeAll(r io.Reader) (recs []store.Record, good int64, torn bool) {
	br := bufio.NewReaderSize(r, 1<<16)
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return recs, good, err != io.EOF
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n == 0 || n > maxRecordBytes {
			return recs, good, true
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return recs, good, true
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return recs, good, true
		}
		var rec store.Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, good, true
		}
		recs = append(recs, rec)
		good += int64(8 + n)
	}
}

// parentSnapshot is the snapshot file commit 347f903 wrote for tree.
func parentSnapshot(t *testing.T, seq uint64, tree map[string]json.RawMessage) []byte {
	t.Helper()
	export, err := json.MarshalIndent(tree, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(snapshotFile{Seq: seq, Resources: export})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// frame wraps one payload the way appendFrame does.
func frame(payload []byte) []byte {
	f := append(make([]byte, frameHeader), payload...)
	if err := sealFrame(f); err != nil {
		panic(err)
	}
	return f
}

// compatHistory is a log that takes every branch of the record reader:
// puts and deletes, with and without an epoch, ids and payloads the
// encoder escapes (so the by-hand envelope reader must decline them),
// non-ASCII text, numbers in every spelling.
func compatHistory() []store.Record {
	put := func(seq, epoch uint64, id, raw string) store.Record {
		return store.Record{Seq: seq, Epoch: epoch, Op: store.OpPut, ID: odata.ID(id), Raw: json.RawMessage(raw)}
	}
	return []store.Record{
		put(1, 0, "/redfish/v1/Systems/a", `{"@odata.id":"/redfish/v1/Systems/a","Name":"a","N":1}`),
		put(2, 0, "/redfish/v1/Systems/b", `{"Name":"\u003cb\u003e \u0026 \u2028","Oem":{"k":[1,2.50,-0,1e9,"x",true,null,{}]}}`),
		put(3, 0, "/redfish/v1/Systems/<c>&", `{"Name":"escaped id"}`),
		put(4, 0, "/redfish/v1/Systems/é日本", `{"Name":"é日本 \ud83d\ude00"}`),
		{Seq: 5, Op: store.OpDelete, ID: "/redfish/v1/Systems/a"},
		put(6, 3, "/redfish/v1/Chassis/1", `{"Name":"under an epoch"}`),
		{Seq: 7, Epoch: 3, Op: store.OpDelete, ID: "/redfish/v1/Systems/ghost"},
		put(8, 4, "/redfish/v1/Systems/b", `{"Name":"b again"}`),
		put(9, 4, "/redfish/v1/Chassis/2", `{}`),
	}
}

// TestParentWrittenDirRecovers: a data dir as commit 347f903 left it —
// WAL only, snapshot only, snapshot and tail, torn tail with a successor
// segment — recovers to the byte-identical Export, the same LastSeq,
// LastEpoch and Truncated, and the same quarantine decisions that
// commit's reader reached; and the snapshot this version's first
// compaction leaves on disk is one the old reader still loads.
func TestParentWrittenDirRecovers(t *testing.T) {
	hist := compatHistory()
	cases := []struct {
		name  string
		write func(t *testing.T, dir string)
		// What the old reader made of it.
		base        map[string]json.RawMessage // the snapshot loaded
		replay      []store.Record             // the records applied on top
		truncated   bool
		quarantined []string
	}{
		{name: "wal only",
			write: func(t *testing.T, dir string) {
				mustWrite(t, walPath(dir, 1), frames(t, hist...))
			},
			replay: hist},
		{name: "snapshot only",
			write: func(t *testing.T, dir string) {
				mustWrite(t, snapPath(dir, 9), parentSnapshot(t, 9, oracleApply(nil, hist)))
				mustWrite(t, walPath(dir, 10), nil)
			},
			base: oracleApply(nil, hist)},
		{name: "snapshot and tail",
			write: func(t *testing.T, dir string) {
				// A compaction that died before pruning: the segment the
				// snapshot covers is still there, and must be skipped.
				mustWrite(t, walPath(dir, 1), frames(t, hist[:5]...))
				mustWrite(t, snapPath(dir, 5), parentSnapshot(t, 5, oracleApply(nil, hist[:5])))
				mustWrite(t, walPath(dir, 6), frames(t, hist[5:]...))
			},
			base: oracleApply(nil, hist[:5]), replay: hist[5:]},
		{name: "torn tail",
			write: func(t *testing.T, dir string) {
				whole := frames(t, hist[:7]...)
				mustWrite(t, walPath(dir, 1), whole[:len(whole)-5])
				mustWrite(t, walPath(dir, 8), frames(t, hist[7:]...))
			},
			replay: hist[:6], truncated: true,
			quarantined: []string{filepath.Base(walPath("", 8)) + quarantineSuffix}},
		{name: "undecodable payload",
			write: func(t *testing.T, dir string) {
				// The frame is intact — length and CRC agree — but what it
				// carries is not a record: still the tear.
				log := frames(t, hist[:3]...)
				log = append(log, frame([]byte(`{"s":4,"o":"p","i":"/x","r":{"Name":"unterminated}`))...)
				log = append(log, frames(t, hist[4:]...)...)
				mustWrite(t, walPath(dir, 1), log)
			},
			replay: hist[:3], truncated: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			c.write(t, dir)
			// The oracle's reading of the same bytes agrees with the table.
			var oracle []store.Record
			oracleTorn := false
			segs, _ := listSeqs(dir, walPrefix, walSuffix)
			for _, seg := range segs {
				data, err := os.ReadFile(walPath(dir, seg))
				if err != nil {
					t.Fatal(err)
				}
				recs, _, torn := parentDecodeAll(bytes.NewReader(data))
				got, _, gotTorn := decodeAll(bytes.NewReader(data))
				if !storetest.SameRecords(got, recs) || gotTorn != torn {
					t.Fatalf("segment %d: decoded %d records (torn=%v), commit 347f903 decoded %d (torn=%v)",
						seg, len(got), gotTorn, len(recs), torn)
				}
				oracle = append(oracle, recs...)
				if oracleTorn = torn; torn {
					break
				}
			}
			if oracleTorn != c.truncated {
				t.Fatalf("oracle torn=%v, table says %v", oracleTorn, c.truncated)
			}
			want := oracleApply(c.base, c.replay)
			wantExport, err := json.MarshalIndent(want, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			var wantSeq, wantEpoch uint64
			if len(oracle) > 0 {
				wantSeq = oracle[len(oracle)-1].Seq
			}
			if len(c.replay) == 0 {
				wantSeq = 9
			}
			for _, rec := range c.replay {
				wantEpoch = max(wantEpoch, rec.Epoch)
			}

			st, _, stats := openStore(t, dir, false)
			if stats.Replayed != len(c.replay) || stats.LastSeq != wantSeq || stats.LastEpoch != wantEpoch || stats.Truncated != c.truncated {
				t.Fatalf("stats %+v, want replayed=%d lastSeq=%d lastEpoch=%d truncated=%v",
					stats, len(c.replay), wantSeq, wantEpoch, c.truncated)
			}
			got, err := st.Export()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantExport) {
				t.Fatalf("Export differs from commit 347f903's:\n got %s\nwant %s", got, wantExport)
			}
			var quarantined []string
			paths, _ := filepath.Glob(filepath.Join(dir, "*"+quarantineSuffix))
			for _, p := range paths {
				quarantined = append(quarantined, filepath.Base(p))
			}
			if !reflect.DeepEqual(quarantined, c.quarantined) {
				t.Fatalf("quarantined %v, want %v", quarantined, c.quarantined)
			}

			// Downgrade: the snapshot on disk after this version's first
			// compaction (Close's), read the old way.
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			snaps, err := listSeqs(dir, snapPrefix, snapSuffix)
			if err != nil || len(snaps) != 1 || snaps[0] != wantSeq {
				t.Fatalf("snapshots after recovery: %v (%v), want one at %d", snaps, err, wantSeq)
			}
			data, err := os.ReadFile(snapPath(dir, snaps[0]))
			if err != nil {
				t.Fatal(err)
			}
			var old snapshotFile
			var tree map[string]json.RawMessage
			if err := json.Unmarshal(data, &old); err != nil || old.Seq != wantSeq {
				t.Fatalf("snapshot does not decode into the old shape: seq %d, %v", old.Seq, err)
			}
			if err := json.Unmarshal(old.Resources, &tree); err != nil || !reflect.DeepEqual(normalize(tree), normalize(want)) {
				t.Fatalf("snapshot resources read the old way: %v\n got %v\nwant %v", err, normalize(tree), normalize(want))
			}
		})
	}
}

func mustWrite(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCleanBootKeepsItsSnapshot: a boot that loads a snapshot at the
// log's last sequence number and replays nothing has nothing to compact —
// it must not write the same multi-megabyte file again and fsync it. It
// replaces the empty tail segment with the fresh one, so every such boot
// reaches the same tree, LastSeq and file set.
func TestCleanBootKeepsItsSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := openStore(t, dir, false)
	for i := 0; i < 20; i++ {
		id := odata.ID(fmt.Sprintf("/redfish/v1/Systems/%d", i))
		if err := st.Put(id, res(string(id))); err != nil {
			t.Fatal(err)
		}
	}
	want, err := st.Export()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := listSeqs(dir, snapPrefix, snapSuffix)
	if len(snaps) != 1 || snaps[0] != 20 {
		t.Fatalf("snapshots after Close: %v, want one at 20", snaps)
	}
	snapFile := snapPath(dir, 20)
	before, err := os.Stat(snapFile)
	if err != nil {
		t.Fatal(err)
	}
	wantFiles := keys(dirContents(t, dir))

	// Both boots are clean ones: same tree, same position, same files, and
	// the snapshot is the very file the shutdown wrote.
	for boot := 1; boot <= 2; boot++ {
		st, b, stats := openStore(t, dir, false)
		if stats.Replayed != 0 || stats.Truncated || stats.LastSeq != 20 || stats.SnapshotSeq != 20 || stats.Resources != 20 {
			t.Fatalf("boot %d: stats %+v, want a clean boot at 20", boot, stats)
		}
		if got, err := st.Export(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("boot %d: tree differs from the one shut down (%v)", boot, err)
		}
		if got := keys(dirContents(t, dir)); !reflect.DeepEqual(got, wantFiles) {
			t.Fatalf("boot %d: files %v, want %v", boot, got, wantFiles)
		}
		after, err := os.Stat(snapFile)
		if err != nil || !os.SameFile(before, after) || !after.ModTime().Equal(before.ModTime()) {
			t.Fatalf("boot %d: snapshot was rewritten (%v)", boot, err)
		}
		// Abandon the backend as a crash would; the next boot sees an
		// empty tail again.
		if err := b.w.close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBenchmarkDirNeedsNoFallback counts how often the by-hand readers
// hand the benchmark's read_tree directories (see readTreeDirs) to
// encoding/json: for no record of the crashed log and for no snapshot
// envelope. The crashed directory holds no snapshot at all — its one
// boot wrote none and it never compacted — and the clean one holds one.
func TestBenchmarkDirNeedsNoFallback(t *testing.T) {
	crashed, clean := readTreeDirs(t, 10, 200)
	data, err := os.ReadFile(activeSegment(t, crashed))
	if err != nil {
		t.Fatal(err)
	}
	records, fallbacks := 0, 0
	for len(data) > 0 {
		n := binary.LittleEndian.Uint32(data[0:4])
		if _, ok := store.DecodeRecord(data[8 : 8+n]); !ok {
			fallbacks++
		}
		records++
		data = data[8+n:]
	}
	if records < 2000 || fallbacks != 0 {
		t.Fatalf("%d of %d records fell back to encoding/json, want none", fallbacks, records)
	}
	if snaps, err := listSeqs(crashed, snapPrefix, snapSuffix); err != nil || len(snaps) != 0 {
		t.Fatalf("snapshots in the crashed dir: %v (%v), want none", snaps, err)
	}
	snaps, err := listSeqs(clean, snapPrefix, snapSuffix)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots in the clean dir: %v (%v)", snaps, err)
	}
	file, err := os.ReadFile(snapPath(clean, snaps[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(file, []byte(snapSeqKey)) {
		t.Fatalf("snapshot starts %q, not with the envelope readSnapshot recognises", file[:min(len(file), 20)])
	}
	snap, ok := readSnapshot(file)
	if !ok || snap.Seq != snaps[0] || len(snap.Resources)+len(snapSeqKey)+len(snapResourcesKey) > len(file) {
		t.Fatalf("readSnapshot: ok=%v seq=%d", ok, snap.Seq)
	}
}

// TestLegacyShardedDirConverted: the refusal of a layout.json directory
// sends its operator to commit 347f903, whose Recover converts it in four
// steps — (1) snapshot of the merged streams at the top level, (2) remove
// the shard segments and dirs, (3) remove the descriptor, (4) open the
// fresh top-level segment. Whatever that conversion leaves behind,
// finished or killed after any step (0 = never started), this version
// must handle: while the descriptor exists the directory is refused and
// left byte-for-byte alone (so the old build can finish the job), and
// once it is gone the directory is an ordinary flat one that recovers to
// the converted tree.
func TestLegacyShardedDirConverted(t *testing.T) {
	hist := compatHistory()
	tree := oracleApply(nil, hist)
	want, err := json.MarshalIndent(tree, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	last := hist[len(hist)-1].Seq
	for abortAfter := 0; abortAfter <= 4; abortAfter++ {
		t.Run(fmt.Sprintf("abort_after_step=%d", abortAfter), func(t *testing.T) {
			dir := t.TempDir()
			if abortAfter < 3 {
				var streams []store.Record
				if abortAfter < 2 {
					streams = hist
				}
				writeLegacyDir(t, dir, 4, streams)
				if abortAfter == 2 {
					for i := 0; i < 4; i++ {
						os.RemoveAll(filepath.Join(dir, fmt.Sprintf("shard-%02d", i)))
					}
				}
			}
			if abortAfter >= 1 {
				mustWrite(t, snapPath(dir, last), parentSnapshot(t, last, tree))
			}
			if abortAfter == 4 {
				mustWrite(t, walPath(dir, last+1), nil)
			}
			before := dirContents(t, dir)

			b, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			st := store.New()
			stats, err := b.Recover(st)
			if abortAfter < 3 {
				if err == nil || st.Len() != 0 || !reflect.DeepEqual(dirContents(t, dir), before) {
					t.Fatalf("descriptor still present: Recover = %v with %d resources loaded, want a refusal that touches nothing", err, st.Len())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer b.w.close()
			if stats.LastSeq != last || stats.Replayed != 0 || stats.Truncated {
				t.Fatalf("stats %+v, want a clean boot at %d", stats, last)
			}
			if got, err := st.Export(); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("converted directory recovers to a different tree (%v):\n got %s\nwant %s", err, got, want)
			}
		})
	}
}
