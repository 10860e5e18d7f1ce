package persist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ofmf/internal/obsv"
	"ofmf/internal/store"
)

// Nothing writes the per-shard-stream layout any more, so these tests
// build it by hand: captureBackend records what a store commits, and
// writeLegacyDir lays those records out the way the retired writer did
// — layout.json plus one shard-NN/wal-<start>.log per stream, each
// record in the stream of the shard that owned its id.

// captureBackend is a store.Backend that keeps every committed record.
type captureBackend struct{ recs []store.Record }

func (c *captureBackend) Append(batch []store.Record) func() error {
	c.recs = append(c.recs, batch...)
	return nil
}
func (c *captureBackend) Close() error { return nil }

// legacyHistory runs seeded random ops on an n-shard store and returns
// the records it committed, each record's stream, and the final export.
func legacyHistory(t *testing.T, n int, seed int64) (recs []store.Record, stream func(store.Record) int, want []byte) {
	t.Helper()
	st := store.NewSharded(n)
	var c captureBackend
	st.AttachBackend(&c, 0)
	randomOps(rand.New(rand.NewSource(seed)), st, 120)
	want, err := st.Export()
	if err != nil {
		t.Fatal(err)
	}
	return c.recs, func(r store.Record) int { return st.ShardOf(r.ID) }, want
}

// writeLegacyDir writes recs as an n-stream legacy data dir. Every
// stream gets its directory and a first segment, as the retired
// Recover left them, whether or not a record landed there.
func writeLegacyDir(t *testing.T, dir string, n int, recs []store.Record, stream func(store.Record) int) {
	t.Helper()
	desc, err := json.Marshal(layoutFile{Version: layoutVersion, Shards: n})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, layoutName), desc, 0o644); err != nil {
		t.Fatal(err)
	}
	bufs := make([]bytes.Buffer, n)
	bws := make([]*bufio.Writer, n)
	for i := range bws {
		bws[i] = bufio.NewWriter(&bufs[i])
	}
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(bws[stream(rec)], payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := range bufs {
		if err := bws[i].Flush(); err != nil {
			t.Fatal(err)
		}
		sdir := legacyShardDir(dir, i)
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walPath(sdir, 1), bufs[i].Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func legacyShardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf(shardDirFmt, i))
}

// requireFlat asserts dir holds the flat layout and nothing of the
// legacy one: no descriptor, no shard dirs, one snapshot, one segment.
func requireFlat(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == layoutName || strings.HasPrefix(e.Name(), "shard-") {
			t.Fatalf("legacy layout left behind: %s", e.Name())
		}
	}
	if snaps, err := listSeqs(dir, snapPrefix, snapSuffix); err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots after conversion: %v (%v), want one", snaps, err)
	}
	activeSegment(t, dir)
}

// recoverExport recovers dir into a fresh store and returns its export.
// The backend is abandoned unclosed, like a process that died.
func recoverExport(t *testing.T, dir string) ([]byte, RecoveryStats) {
	t.Helper()
	st, _, stats := openStore(t, dir, false)
	data, err := st.Export()
	if err != nil {
		t.Fatal(err)
	}
	return data, stats
}

// TestLegacyShardedDirConverted: a 4-stream legacy directory recovers
// to the byte-identical tree, is left in the flat layout, and the next
// boot replays nothing. The conversion is then aborted after each of
// Recover's compaction steps in turn (4 = the process dies right after
// Recover returns) and recovery re-run: every intermediate directory
// must lead to the same tree and the same flat layout.
func TestLegacyShardedDirConverted(t *testing.T) {
	const n = 4
	recs, stream, want := legacyHistory(t, n, 42)
	errAbort := errors.New("abort")
	for abortAfter := 0; abortAfter <= 4; abortAfter++ {
		t.Run(fmt.Sprintf("abort_after_step=%d", abortAfter), func(t *testing.T) {
			dir := t.TempDir()
			writeLegacyDir(t, dir, n, recs, stream)

			if abortAfter >= 1 && abortAfter <= 3 {
				b, err := Open(Options{Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				b.afterStep = func(step int) error {
					if step == abortAfter {
						return errAbort
					}
					return nil
				}
				if _, err := b.Recover(store.New()); !errors.Is(err, errAbort) {
					t.Fatalf("Recover = %v, want the injected abort", err)
				}
			}

			got, stats := recoverExport(t, dir)
			if !bytes.Equal(got, want) {
				t.Fatalf("recovered tree differs from the one the legacy dir recorded (%d vs %d bytes)", len(got), len(want))
			}
			if abortAfter == 0 && (stats.Replayed != len(recs) || stats.Dropped != 0) {
				t.Fatalf("replayed=%d dropped=%d, want %d and 0", stats.Replayed, stats.Dropped, len(recs))
			}
			if stats.LastSeq != uint64(len(recs)) {
				t.Fatalf("LastSeq = %d, want %d", stats.LastSeq, len(recs))
			}
			requireFlat(t, dir)

			again, stats2 := recoverExport(t, dir)
			if stats2.Replayed != 0 {
				t.Fatalf("boot after conversion replayed %d records, want 0", stats2.Replayed)
			}
			if !bytes.Equal(again, want) {
				t.Fatal("tree changed across the boot after conversion")
			}
			requireFlat(t, dir)
		})
	}
}

// TestLegacyShardedTornStream is the crash property for the legacy
// reader: cut ONE stream of a 4-stream directory at a random byte
// offset and recovery must rebuild exactly the longest contiguous
// prefix of the GLOBAL order — records on intact streams whose sequence
// numbers follow the victim's lost ones are dropped, not replayed out
// of order.
func TestLegacyShardedTornStream(t *testing.T) {
	const n = 4
	for seed := int64(0); seed < 30; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			recs, stream, _ := legacyHistory(t, n, 0x5AAD^seed*2654435761)
			dir := t.TempDir()
			writeLegacyDir(t, dir, n, recs, stream)

			rng := rand.New(rand.NewSource(seed))
			victim := rng.Intn(n)
			vpath := walPath(legacyShardDir(dir, victim), 1)
			full, err := os.ReadFile(vpath)
			if err != nil {
				t.Fatal(err)
			}
			cut := rng.Intn(len(full) + 1)
			if err := os.Truncate(vpath, int64(cut)); err != nil {
				t.Fatal(err)
			}

			// Oracle: the victim keeps what still decodes, every other
			// stream keeps everything; the committed prefix ends at the
			// first sequence number nobody holds.
			kept, _, _ := decodeAll(bytes.NewReader(full[:cut]))
			have := make(map[uint64]bool)
			for _, rec := range kept {
				have[rec.Seq] = true
			}
			var prefix []store.Record
			for _, rec := range recs { // recs is in Seq order
				if stream(rec) == victim && !have[rec.Seq] {
					break
				}
				prefix = append(prefix, rec)
			}
			want := oracleApply(nil, prefix)

			st, _, stats := openStore(t, dir, false)
			if stats.Replayed != len(prefix) {
				t.Fatalf("victim=%d cut=%d/%d: replayed %d records, oracle sees a %d-record prefix (dropped=%d)",
					victim, cut, len(full), stats.Replayed, len(prefix), stats.Dropped)
			}
			if got := export(t, st); !reflect.DeepEqual(normalize(got), normalize(want)) {
				t.Fatalf("victim=%d cut=%d/%d prefix=%d:\n got  %v\n want %v",
					victim, cut, len(full), len(prefix), normalize(got), normalize(want))
			}
		})
	}
}

// TestShardedGapQuarantine: in a legacy directory, losing an earlier
// record on one stream makes later records on OTHER streams
// unreplayable; recovery drops them, quarantines their segments instead
// of deleting them, and counts each in ofmf_wal_quarantined_total.
func TestShardedGapQuarantine(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	recA := store.Record{Seq: 1, Op: store.OpPut, ID: "/redfish/v1/Systems/a", Raw: json.RawMessage(`{"Name":"a"}`)}
	recB := store.Record{Seq: 2, Op: store.OpPut, ID: "/redfish/v1/Chassis/b", Raw: json.RawMessage(`{"Name":"b"}`)}
	const x, y = 1, 2
	// Stream x never got seq 1 to disk; stream y holds seq 2 intact.
	writeLegacyDir(t, dir, n, []store.Record{recB}, func(store.Record) int { return y })

	m := obsv.NewMetrics(obsv.NewRegistry())
	b, err := Open(Options{Dir: dir, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	stats, err := b.Recover(st)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if stats.Replayed != 0 || stats.Dropped != 1 {
		t.Fatalf("replayed=%d dropped=%d, want 0 and 1", stats.Replayed, stats.Dropped)
	}
	if st.Exists(recA.ID) || st.Exists(recB.ID) {
		t.Fatal("resource beyond the sequence gap was replayed")
	}
	if got := m.WALQuarantined.Value(); got != 1 {
		t.Fatalf("ofmf_wal_quarantined_total = %v, want 1", got)
	}
	// The dropped record's segment sits quarantined in stream y's dir —
	// the one shard dir the conversion must not remove.
	if _, err := os.Stat(walPath(legacyShardDir(dir, y), 1) + quarantineSuffix); err != nil {
		t.Fatalf("no quarantined segment in stream %d's dir: %v", y, err)
	}
	if _, err := os.Stat(legacyShardDir(dir, x)); !os.IsNotExist(err) {
		t.Fatalf("emptied shard dir %d survived: %v", x, err)
	}
	if _, err := os.Stat(filepath.Join(dir, layoutName)); !os.IsNotExist(err) {
		t.Fatalf("descriptor survived conversion: %v", err)
	}
}

// TestBootstrapRefusesLegacyDir: a promoted replica must not lay a
// replicated history over a directory that still describes a sharded
// one.
func TestBootstrapRefusesLegacyDir(t *testing.T) {
	dir := t.TempDir()
	writeLegacyDir(t, dir, 2, nil, nil)
	b, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Bootstrap(store.New(), 7); err == nil || !strings.Contains(err.Error(), "sharded layout") {
		t.Fatalf("Bootstrap on a legacy dir = %v, want a sharded-layout refusal", err)
	}
}
