package store

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ofmf/internal/odata"
)

// reportLockWait reports the accumulated write-lock wait per op — the
// number ofmf_store_lock_wait_seconds shows an operator, and the one a
// proposal to split the lock again has to move (DESIGN §8).
func reportLockWait(b *testing.B, s *Store) {
	var waitNS atomic.Int64
	s.SetObserver(&Observer{LockWait: func(wait time.Duration) { waitNS.Add(int64(wait)) }})
	b.Cleanup(func() {
		if b.N > 0 {
			b.ReportMetric(float64(waitNS.Load())/float64(b.N), "lockwait-ns/op")
		}
	})
}

// BenchmarkStorePutParallel measures the pure write path under
// parallel load, each worker writing below its own top-level segment
// (/redfish/v1/B<w>/...) the way independent agents update their own
// subtrees.
func BenchmarkStorePutParallel(b *testing.B) {
	s := New()
	reportLockWait(b, s)
	b.ReportAllocs()
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := worker.Add(1)
		i := 0
		for pb.Next() {
			i++
			id := odata.ID(fmt.Sprintf("/redfish/v1/B%d/%d", w, i))
			if err := s.Put(id, map[string]any{"Name": "bench", "Value": i}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreMixedParallel is the serving-shaped mix: 80% reads /
// 20% writes against a pre-seeded tree.
func BenchmarkStoreMixedParallel(b *testing.B) {
	s := New()
	const segs, perSeg = 16, 64
	ids := make([]odata.ID, 0, segs*perSeg)
	for g := 0; g < segs; g++ {
		for i := 0; i < perSeg; i++ {
			id := odata.ID(fmt.Sprintf("/redfish/v1/B%d/%d", g, i))
			if err := s.Put(id, map[string]any{"Name": "bench", "Value": i}); err != nil {
				b.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	reportLockWait(b, s)
	b.ReportAllocs()
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(worker.Add(1))
		i := 0
		for pb.Next() {
			i++
			id := ids[(w*perSeg+i*7)%len(ids)]
			if i%5 == 0 {
				if err := s.Put(id, map[string]any{"Name": "bench", "Value": i}); err != nil {
					b.Fatal(err)
				}
			} else if _, _, err := s.Get(id); err != nil {
				b.Fatal(err)
			}
		}
	})
}
