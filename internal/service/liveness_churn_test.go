package service

import (
	"testing"
	"time"

	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/store"
)

// churnSource builds a minimal remote aggregation source at uri with
// the given heartbeat timestamp.
func churnSource(uri odata.ID, beat time.Time) redfish.AggregationSource {
	return redfish.AggregationSource{
		Resource: odata.NewResource(uri, redfish.TypeAggregationSource, "Agent "+uri.Leaf()),
		HostName: "http://" + uri.Leaf() + ".example:9000",
		Status:   odata.StatusOK(),
		Oem:      redfish.AggSourceOem{OFMF: &redfish.AgentDescriptor{LastHeartbeat: redfish.Timestamp(beat)}},
	}
}

// TestLivenessDeleteRecreateChurn is the regression test for the
// sweeper's delete-then-recreate race: when a source was deleted and a
// new one recreated at the same URI, a stale (reordered) notification
// from the old incarnation used to resurrect the old entry — and its
// old heartbeat deadline — firing a spurious Degraded transition for a
// source that was beating fine. Every notification re-reads the tree
// now, so a stale one restates the live source.
func TestLivenessDeleteRecreateChurn(t *testing.T) {
	svc := New(Config{Liveness: LivenessConfig{StaleAfter: 3 * time.Second}})
	defer svc.Close()
	w := svc.Liveness()
	base := time.Unix(1700000000, 0).UTC()
	now := base
	w.SetClock(func() time.Time { return now })

	uri := AggregationSourcesURI.Append("1")
	st := svc.Store()

	// First incarnation, heartbeat already stale at its creation.
	if err := st.Put(uri, churnSource(uri, base.Add(-time.Hour))); err != nil {
		t.Fatal(err)
	}
	w.Sweep() // marks it Unavailable
	// Delete it, then recreate the same URI with a fresh heartbeat.
	if err := st.Delete(uri); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(uri, churnSource(uri, now)); err != nil {
		t.Fatal(err)
	}
	snap := w.SourcesSnapshot()
	if lvl, ok := snap[uri]; !ok || lvl != LiveOK {
		t.Fatalf("after recreate: snapshot[%s] = %d,%v, want LiveOK", uri, lvl, ok)
	}

	// Replay the first incarnation's notifications out of order: a stale
	// update and a stale delete, both with seqs from before the recreate.
	w.onChange(store.Change{Kind: store.Updated, ID: uri, Seq: 1})
	w.onChange(store.Change{Kind: store.Removed, ID: uri, Seq: 2})
	snap = w.SourcesSnapshot()
	if lvl, ok := snap[uri]; !ok || lvl != LiveOK {
		t.Fatalf("after stale replay: snapshot[%s] = %d,%v, want LiveOK", uri, lvl, ok)
	}

	// A sweep within the fresh heartbeat's window must not transition.
	now = now.Add(2 * time.Second)
	w.Sweep()
	var src redfish.AggregationSource
	if err := st.GetAs(uri, &src); err != nil {
		t.Fatal(err)
	}
	if src.Status != odata.StatusOK() {
		t.Fatalf("spurious transition: status = %+v, want OK", src.Status)
	}

	// The old incarnation's stale deadline (heartbeat an hour old) must
	// not fire either: advance past StaleAfter relative to the OLD beat
	// but inside the window of the fresh one.
	now = now.Add(500 * time.Millisecond)
	w.Sweep()
	if err := st.GetAs(uri, &src); err != nil {
		t.Fatal(err)
	}
	if src.Status != odata.StatusOK() {
		t.Fatalf("old incarnation's deadline fired: status = %+v, want OK", src.Status)
	}
}

// TestLivenessApplyDropsDeletedSource checks that a transition whose
// store patch fails with ErrNotFound (source deleted mid-sweep) drops
// the index entry instead of rescheduling the patch forever.
func TestLivenessApplyDropsDeletedSource(t *testing.T) {
	svc := New(Config{Liveness: LivenessConfig{StaleAfter: 3 * time.Second}})
	defer svc.Close()
	w := svc.Liveness()
	base := time.Unix(1700000000, 0).UTC()
	now := base
	w.SetClock(func() time.Time { return now })

	uri := AggregationSourcesURI.Append("1")
	st := svc.Store()
	if err := st.Put(uri, churnSource(uri, base)); err != nil {
		t.Fatal(err)
	}
	w.Sweep()
	// The watcher fires on Delete, so simulate the race — the source is
	// gone, its removal not yet applied to the index — by deleting it
	// and injecting a due entry for it directly.
	if err := st.Delete(uri); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	e := &sourceEntry{uri: uri, anchor: base.Add(-time.Hour), level: liveOK, slot: -1}
	w.sources[uri] = e
	w.scheduleLocked(e, now)
	w.mu.Unlock()

	// The sweep computes a transition, the patch hits ErrNotFound, and
	// the entry must be dropped — not rescheduled.
	now = now.Add(time.Hour)
	w.Sweep()
	if _, ok := w.SourcesSnapshot()[uri]; ok {
		t.Fatal("deleted source still indexed after failed patch")
	}
	if n := w.PendingDeadlines(); n > 0 {
		t.Fatalf("deadline heap not drained: %d", n)
	}
}
