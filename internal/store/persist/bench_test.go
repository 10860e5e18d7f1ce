package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"ofmf/internal/odata"
	"ofmf/internal/store"
)

// benchPut measures the store's Put hot path with the given durability
// configuration, writing a fresh resource each iteration so every Put
// commits a mutation.
func benchPut(b *testing.B, st *store.Store) {
	b.ReportAllocs()
	payload := map[string]any{"@odata.type": "#Resource.Resource", "Name": "bench", "Value": 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := odata.ID(fmt.Sprintf("/redfish/v1/Bench/%d", i))
		payload["Value"] = i
		if err := st.Put(id, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALOffPut is the baseline: the pure in-memory store with no
// backend attached, the default zero-config path.
func BenchmarkWALOffPut(b *testing.B) {
	benchPut(b, store.New())
}

// BenchmarkWALPut commits every mutation to the WAL but lets the OS
// buffer the write (fsync=false): the kill-safe, not power-safe mode.
func BenchmarkWALPut(b *testing.B) {
	st := store.New()
	backend, err := Open(Options{Dir: b.TempDir(), Fsync: false})
	if err != nil {
		b.Fatal(err)
	}
	defer backend.Close()
	if _, err := backend.Recover(st); err != nil {
		b.Fatal(err)
	}
	st.AttachBackend(backend, 0)
	benchPut(b, st)
}

// BenchmarkWALFsyncPut waits for stable storage on every commit
// (group-committed). Dominated by device sync latency; concurrency
// amortizes it, which BenchmarkWALFsyncPutParallel shows.
func BenchmarkWALFsyncPut(b *testing.B) {
	st := store.New()
	backend, err := Open(Options{Dir: b.TempDir(), Fsync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer backend.Close()
	if _, err := backend.Recover(st); err != nil {
		b.Fatal(err)
	}
	st.AttachBackend(backend, 0)
	benchPut(b, st)
}

// BenchmarkWALFsyncPutParallel exercises group commit: parallel writers
// share fsyncs, so per-op latency drops well below a lone writer's.
func BenchmarkWALFsyncPutParallel(b *testing.B) {
	st := store.New()
	backend, err := Open(Options{Dir: b.TempDir(), Fsync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer backend.Close()
	if _, err := backend.Recover(st); err != nil {
		b.Fatal(err)
	}
	st.AttachBackend(backend, 0)
	b.ReportAllocs()
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := worker.Add(1)
		i := 0
		for pb.Next() {
			i++
			id := odata.ID(fmt.Sprintf("/redfish/v1/Bench/%d-%d", w, i))
			if err := st.Put(id, map[string]any{"Name": "bench", "Value": i}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// readTreePayload is one resource of the benchmark's read_tree workload:
// the ~340-byte endpoint bench/benchkit pushes 200 of per fabric.
func readTreePayload(uri odata.ID, fabric, slot, seq int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(
		`{"@odata.id":%q,"@odata.type":"#Endpoint.v1_8_0.Endpoint","Id":"r%d","Name":"bench fabric %d resource %d",`+
			`"EndpointProtocol":"CXL","ConnectedEntities":[{"EntityType":"Processor","EntityRole":"Initiator"}],`+
			`"Status":{"Health":"OK","State":"Enabled"},"Oem":{"Bench":{"Seq":%d,"Fabric":%d,"Slot":%d}}}`,
		uri, slot, fabric, slot, seq, fabric, slot))
}

// readTreeDirs builds the two directories a read_tree server can die
// with: crashed (no snapshot and one WAL segment of fabrics × perFabric
// subtree puts plus a third as many rewrites — 26 800 records over
// 20 000 resources at the benchmark's 100 × 200) and clean (the same
// tree after a graceful Close: one snapshot, an empty tail).
func readTreeDirs(tb testing.TB, fabrics, perFabric int) (crashed, clean string) {
	tb.Helper()
	return readTreeDir(tb, fabrics, perFabric, false), readTreeDir(tb, fabrics, perFabric, true)
}

// readTreeDir builds one of readTreeDirs' directories: the clean one
// when clean is set, else the crashed one.
func readTreeDir(tb testing.TB, fabrics, perFabric int, clean bool) string {
	tb.Helper()
	dir := tb.TempDir()
	st := store.New()
	backend, err := Open(Options{Dir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	stats, err := backend.Recover(st)
	if err != nil {
		tb.Fatal(err)
	}
	st.AttachBackend(backend, stats.LastSeq)
	var ids []odata.ID
	for f := 0; f < fabrics; f++ {
		prefix := odata.ID(fmt.Sprintf("/redfish/v1/Fabrics/Bench%03d", f))
		resources := make(map[odata.ID]any, perFabric)
		for j := 0; j < perFabric; j++ {
			id := prefix
			if j > 0 {
				id = prefix.Append("Endpoints", fmt.Sprintf("E%03d", j))
			}
			resources[id] = readTreePayload(id, f, j, 0)
			ids = append(ids, id)
		}
		if err := st.PutSubtree(prefix, resources); err != nil {
			tb.Fatal(err)
		}
	}
	for n := 0; n < len(ids)/3; n++ {
		id := ids[(n*7919)%len(ids)]
		if err := st.Put(id, readTreePayload(id, 0, n, n+1)); err != nil {
			tb.Fatal(err)
		}
	}
	if clean {
		if err := st.Close(); err != nil {
			tb.Fatal(err)
		}
		return dir
	}
	// SIGKILL: the segment reaches the file, nothing is compacted.
	if err := backend.w.close(); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// copyDir copies the regular files of src into a fresh temp dir.
func copyDir(tb testing.TB, src string) string {
	tb.Helper()
	dst := tb.TempDir()
	if err := copyFiles(src, dst); err != nil {
		tb.Fatal(err)
	}
	return dst
}

// copyFiles copies the regular files of src into a new directory dst.
// A file that grows while it is read is copied as far as it was read:
// the torn tail a kill mid-write leaves.
func copyFiles(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// churn hands add the records a compose_cycle server commits for
// cycles compositions made and unmade. A compose is 15 puts: the 12
// resources it creates (system, block, task, zones, connections, chunk,
// volume, partition) and the 3 shared ones it draws on (node, memory
// domain, storage pool). A decompose is 20 records: the shared three
// and the task put back, the block and three connections marked on
// their way out, and the 12 created resources deleted. All that survives is
// the 8 nodes and 2 pools.
func churn(cycles int, add func(op store.RecordOp, id odata.ID, raw json.RawMessage)) {
	seq := 0
	rec := func(op store.RecordOp, id string, c int) {
		seq++
		uri := odata.ID("/redfish/v1/" + id)
		var raw json.RawMessage
		if op == store.OpPut {
			raw = json.RawMessage(fmt.Sprintf(
				`{"@odata.id":%q,"@odata.type":"#Resource.v1_0_0.Resource","Id":"%d","Name":"composition %d",`+
					`"Status":{"Health":"OK","State":"Enabled"},"Oem":{"OFMF":{"Composition":%d,"Seq":%d}}}`,
				uri, c, c, c, seq))
		}
		add(op, uri, raw)
	}
	for c := 1; c <= cycles; c++ {
		node, n := fmt.Sprintf("Systems/node%03d", c%8), strconv.Itoa(c)
		created := []string{"Systems/comp-" + n, "CompositionService/ResourceBlocks/" + n, "TaskService/Tasks/" + n,
			"Fabrics/CXL/Zones/" + n, "Fabrics/CXL/Connections/" + n, "Chassis/CXL/MemoryDomains/1/MemoryChunks/" + n,
			"Fabrics/NVMe/Zones/" + n, "Fabrics/NVMe/Connections/" + n, "Storage/S1/Volumes/" + n,
			"Fabrics/GPU/Zones/" + n, "Fabrics/GPU/Connections/" + n, "Systems/gpu/Processors/p" + n}
		shared := []string{node, "Chassis/CXL/MemoryDomains/1", "Storage/S1/StoragePools/1"}
		for _, id := range append(created, shared...) {
			rec(store.OpPut, id, c)
		}
		for _, id := range append(shared, created[2], created[1], created[4], created[7], created[10]) {
			rec(store.OpPut, id, -c)
		}
		for _, id := range created {
			rec(store.OpDelete, id, c)
		}
	}
}

// churnDir writes the log a crashed compose_cycle server left after
// cycles compositions when it never compacted: every record since boot.
func churnDir(tb testing.TB, cycles int) string {
	tb.Helper()
	var log []byte
	seq := uint64(0)
	churn(cycles, func(op store.RecordOp, id odata.ID, raw json.RawMessage) {
		seq++
		var err error
		if log, err = appendFrame(log, store.Record{Seq: seq, Op: op, ID: id, Raw: raw}); err != nil {
			tb.Fatal(err)
		}
	})
	dir := tb.TempDir()
	if err := os.WriteFile(walPath(dir, 1), log, 0o644); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// pacedChurnDir is the directory the same server leaves with compaction
// paced by the log: the churn runs through a store and its backend,
// which compacts whenever a kick finds the log due, as the loop would,
// and is then abandoned without Close.
func pacedChurnDir(tb testing.TB, cycles int) string {
	tb.Helper()
	dir := tb.TempDir()
	st := store.New()
	b, err := Open(Options{Dir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	stats, err := b.Recover(st)
	if err != nil {
		tb.Fatal(err)
	}
	st.AttachBackend(b, stats.LastSeq)
	churn(cycles, func(op store.RecordOp, id odata.ID, raw json.RawMessage) {
		if err := applyOp(st, op, id, raw); err != nil {
			tb.Fatal(err)
		}
		if err := compactIfKicked(b); err != nil {
			tb.Fatal(err)
		}
	})
	if err := b.w.close(); err != nil { // SIGKILL
		tb.Fatal(err)
	}
	return dir
}

// applyOp makes the mutation a churn record describes.
func applyOp(st *store.Store, op store.RecordOp, id odata.ID, raw json.RawMessage) error {
	if op == store.OpDelete {
		return st.Delete(id)
	}
	return st.Put(id, raw)
}

// compactIfKicked does on the caller's goroutine what the compaction
// loop does for a pending kick, so a test knows when it happened.
func compactIfKicked(b *FileBackend) error {
	select {
	case <-b.kick:
		return b.compactIfDue()
	default:
		return nil
	}
}

// BenchmarkRecover times FileBackend.Recover over crashed or clean
// directories: wal replays the 20 k-resource read_tree tree's log (26 800
// records, a quarter of them rewrites), wal-200k the same tree ten times
// over (266 666 records), snapshot boots from a graceful shutdown's
// snapshot of the 20 k tree, churn replays 3 000 compose/decompose
// cycles (105 000 records over 36 010 ids, 10 of them alive at the end)
// and churn-paced boots from what the same cycles leave when compaction
// is paced by the log: a snapshot and less than a MiB of log after it.
// Every iteration gets its own copy, because recovery rotates the log
// (and removes the empty tail a clean boot finds). A directory is built
// when its case first runs. heapB/resource is the live heap the recovered tree
// holds, over its resources.
func BenchmarkRecover(b *testing.B) {
	crashed, clean := readTreeDirs(b, 100, 200)
	for _, c := range []struct {
		name      string
		dir       func() string
		resources int
	}{
		{"wal", func() string { return crashed }, 20000},
		{"wal-200k", sync.OnceValue(func() string { return readTreeDir(b, 1000, 200, false) }), 200000},
		{"snapshot", func() string { return clean }, 20000},
		{"churn", sync.OnceValue(func() string { return churnDir(b, 3000) }), 10},
		{"churn-paced", sync.OnceValue(func() string { return pacedChurnDir(b, 3000) }), 10},
	} {
		b.Run(c.name, func(b *testing.B) {
			src := c.dir()
			b.ReportAllocs()
			b.ResetTimer()
			var heap uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := copyDir(b, src)
				st := store.New()
				backend, err := Open(Options{Dir: dir})
				if err != nil {
					b.Fatal(err)
				}
				before := liveHeap()
				b.StartTimer()
				stats, err := backend.Recover(st)
				b.StopTimer()
				if err != nil || stats.Resources != c.resources {
					b.Fatalf("recovered %d resources: %v", stats.Resources, err)
				}
				heap = liveHeap() - before
				runtime.KeepAlive(st)
				backend.w.close()
				os.RemoveAll(dir)
			}
			b.ReportMetric(float64(heap)/float64(c.resources), "heapB/resource")
		})
	}
}

// liveHeap collects and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// BenchmarkSnapshot times Store.Cut over the same tree: the cut a
// compaction takes, and an upper bound on how long it holds
// the store's read lock (writers wait that long).
func BenchmarkSnapshot(b *testing.B) {
	_, clean := readTreeDirs(b, 100, 200)
	st := store.New()
	backend, err := Open(Options{Dir: clean})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := backend.Recover(st); err != nil {
		b.Fatal(err)
	}
	defer backend.w.close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Cut(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadSnapshot times what LatestSnapshot does per replica
// bootstrap: read the newest snapshot of the 20 k-resource tree and
// check its document (store.ValidDocument).
func BenchmarkLoadSnapshot(b *testing.B) {
	_, clean := readTreeDirs(b, 100, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _, err := loadNewestSnapshot(clean); !ok || err != nil {
			b.Fatalf("no snapshot: %v", err)
		}
	}
}
