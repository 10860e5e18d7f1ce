package service

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/store"
)

// putSource writes an aggregation source straight into the store,
// bypassing HTTP — the bulk-registration path for sweep benchmarks.
func putSource(svc *Service, name string, beat time.Time) odata.ID {
	uri := AggregationSourcesURI.Append(name)
	src := redfish.AggregationSource{
		Resource: odata.NewResource(uri, "#AggregationSource.v1_2_0.AggregationSource", "Agent "+name),
		HostName: "http://" + name + ".example",
		Status:   odata.StatusOK(),
		Oem: redfish.AggSourceOem{OFMF: &redfish.AgentDescriptor{
			Technology:    "CXL",
			LastHeartbeat: redfish.Timestamp(beat),
		}},
	}
	if err := svc.store.Put(uri, src); err != nil {
		panic(err)
	}
	return uri
}

// TestSweepSteadyStateNoStoreReads is the O(changed) proof: the
// projection is fed by the change stream, so sweeps over a healthy
// fleet — the first one included — perform zero store operations: no
// Members scan, no per-source decode.
func TestSweepSteadyStateNoStoreReads(t *testing.T) {
	svc, srv := newTestServer(t, Config{Liveness: LivenessConfig{StaleAfter: time.Minute}})
	start := time.Unix(1_700_000_000, 0)
	now := start
	sweeper := svc.Liveness()
	sweeper.SetClock(func() time.Time { return now })
	for i := 0; i < 8; i++ {
		postSource(t, srv.URL, fmt.Sprintf("http://agent-%d.example", i), start)
	}

	var reads int64
	svc.store.SetObserver(&store.Observer{Op: func(op string) {
		switch op {
		case "get", "members", "view", "collection", "collection_cached":
			atomic.AddInt64(&reads, 1)
		}
	}})
	for i := 0; i < 6; i++ {
		sweeper.Sweep()
		now = now.Add(time.Second)
	}
	if got := atomic.LoadInt64(&reads); got != 0 {
		t.Fatalf("steady-state sweeps performed %d store reads, want 0", got)
	}
}

// TestSweepAfterDeletion checks the change stream evicts deleted
// sources: a source removed after a sweep is never swept again and its
// pending deadline leaves the heap.
func TestSweepAfterDeletion(t *testing.T) {
	svc, srv := newTestServer(t, Config{Liveness: LivenessConfig{StaleAfter: time.Minute}})
	start := time.Unix(1_700_000_000, 0)
	now := start
	sweeper := svc.Liveness()
	sweeper.SetClock(func() time.Time { return now })
	uri := postSource(t, srv.URL, "http://agent-gone.example", start)
	sweeper.Sweep()

	if err := svc.store.Delete(uri); err != nil {
		t.Fatal(err)
	}
	// Way past every threshold: the sweep must not resurrect or patch
	// the deleted source.
	now = start.Add(time.Hour)
	sweeper.Sweep()
	var src redfish.AggregationSource
	if err := svc.store.GetAs(uri, &src); err == nil {
		t.Fatalf("deleted source reappeared: %+v", src)
	}
	if n := sweeper.PendingDeadlines(); n != 0 {
		t.Fatalf("deleted source left %d deadlines", n)
	}
}

// BenchmarkLivenessSweep measures steady-state sweep cost over a 10k
// source fleet with fresh heartbeats: nothing is due, so each sweep is
// one heap peek — independent of fleet size and free of store decodes
// (the first sweeper JSON-decoded all 10k sources every tick).
func BenchmarkLivenessSweep(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("sources=%d", n), func(b *testing.B) {
			svc := New(Config{Liveness: LivenessConfig{StaleAfter: time.Hour}})
			defer svc.Close()
			start := time.Unix(1_700_000_000, 0)
			now := start
			sweeper := svc.Liveness()
			sweeper.SetClock(func() time.Time { return now })
			for i := 0; i < n; i++ {
				putSource(svc, fmt.Sprintf("src-%d", i), start)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = now.Add(time.Millisecond)
				sweeper.Sweep()
			}
		})
	}
}
