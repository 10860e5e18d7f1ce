package store

import (
	"sync"
	"testing"
	"time"

	"ofmf/internal/odata"
)

// TestLockWaitHookReportsContention: every write-lock acquisition — a
// mutation, a restore at the service root, a collection registration,
// the rebuild of a collection's cached payload, attaching and closing a
// backend — reports its wait to Observer.LockWait, once.
func TestLockWaitHookReportsContention(t *testing.T) {
	s := New()
	var waits int
	s.SetObserver(&Observer{LockWait: func(time.Duration) { waits++ }})
	coll := odata.ID("/redfish/v1/Systems")
	steps := []struct {
		name string
		do   func() error
	}{
		{"RegisterCollection", func() error { s.RegisterCollection(coll, "#C.C", "Systems"); return nil }},
		{"Put", func() error { return s.Put(coll.Append("1"), map[string]any{"Name": "x"}) }},
		{"PutSubtree at the root", func() error {
			return s.PutSubtree("/redfish/v1", map[odata.ID]any{coll.Append("1"): map[string]any{"Name": "y"}})
		}},
		{"collection rebuild", func() error { return s.CollectionView(coll, func([]byte, string) {}) }},
		{"AttachBackend", func() error { s.AttachBackend(failingBackend{}, 0); return nil }},
		{"Close", s.Close},
	}
	for i, step := range steps {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if waits != i+1 {
			t.Fatalf("after %s: %d lock waits reported, want %d", step.name, waits, i+1)
		}
	}
	// A cached collection read takes no write lock.
	if err := s.CollectionView(coll, func([]byte, string) {}); err != nil {
		t.Fatal(err)
	}
	if waits != len(steps) {
		t.Fatalf("cached collection read reported a lock wait (%d, want %d)", waits, len(steps))
	}
}

// TestCollectionRebuildReportsLockWait: the write lock a collection read
// takes to rebuild an invalidated payload is contention like any
// mutation's, and ofmf_store_lock_wait_seconds is fed from this
// observer. The lock is held here by a reader (a slow View callback
// looks the same): a held write lock would stall the miss at its
// read-locked probe, which is deliberately not timed.
func TestCollectionRebuildReportsLockWait(t *testing.T) {
	const hold = 20 * time.Millisecond
	s := New()
	coll := odata.ID("/redfish/v1/Systems")
	s.RegisterCollection(coll, "#C.C", "Systems")
	if err := s.Put(coll.Append("1"), map[string]any{"Name": "x"}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var waits []time.Duration
	s.SetObserver(&Observer{LockWait: func(d time.Duration) {
		mu.Lock()
		waits = append(waits, d)
		mu.Unlock()
	}})

	s.mu.RLock()
	done := make(chan error, 1)
	go func() { done <- s.CollectionView(coll, func([]byte, string) {}) }()
	// A pending writer turns new readers away: once TryRLock fails the
	// rebuild is queued on the write lock.
	for s.mu.TryRLock() {
		s.mu.RUnlock()
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(hold)
	s.mu.RUnlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(waits) != 1 || waits[0] < hold {
		t.Fatalf("lock waits reported by the rebuild: %v, want one of at least %v", waits, hold)
	}
}
