package persist

import (
	"fmt"
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
