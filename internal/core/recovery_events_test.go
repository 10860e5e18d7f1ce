package core_test

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"

	"ofmf/internal/core"
	"ofmf/internal/odata"
	"ofmf/internal/store"
	"ofmf/internal/store/persist"
)

// TestRecoveryPublishesNothing: a restart re-states 20 000 resource
// changes, it does not make them. Replaying a 20 k-record log into a
// running testbed (event bus, rule engine and all) publishes no event and
// drops none — it used to publish one per record and overflow the
// subscribers' queues on a node that had not served a request — while a
// watcher that keeps derived state still sees every record, marked
// Replayed.
func TestRecoveryPublishesNothing(t *testing.T) {
	const fabrics, perFabric = 100, 200
	dir := t.TempDir()
	src := store.New()
	writer, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := writer.Recover(src)
	if err != nil {
		t.Fatal(err)
	}
	src.AttachBackend(writer, stats.LastSeq)
	for f := 0; f < fabrics; f++ {
		prefix := odata.ID(fmt.Sprintf("/redfish/v1/Fabrics/Bench%03d", f))
		resources := make(map[odata.ID]any, perFabric)
		for j := 0; j < perFabric; j++ {
			id := prefix
			if j > 0 {
				id = prefix.Append("Endpoints", fmt.Sprintf("E%03d", j))
			}
			resources[id] = json.RawMessage(fmt.Sprintf(`{"@odata.id":%q,"Name":"fabric %d resource %d","Status":{"Health":"OK"}}`, id, f, j))
		}
		if err := src.PutSubtree(prefix, resources); err != nil {
			t.Fatal(err)
		}
	}
	// SIGKILL: the writer is abandoned unclosed; every mutation waited for
	// its flush, so the log holds all of them and nothing was compacted.

	f, err := core.New(core.Config{Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st := f.Service.Store()
	var replayed, live atomic.Int64
	st.Watch(func(c store.Change) {
		if c.Replayed {
			replayed.Add(1)
		} else {
			live.Add(1)
		}
	})
	before := f.Service.Bus().Stats()
	backend, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	stats, err = backend.Recover(st)
	if err != nil {
		t.Fatal(err)
	}
	st.AttachBackend(backend, stats.LastSeq)
	after := f.Service.Bus().Stats()

	if stats.Replayed != fabrics*perFabric {
		t.Fatalf("replayed %d records, want %d", stats.Replayed, fabrics*perFabric)
	}
	if n := after.Published - before.Published; n != 0 {
		t.Errorf("recovery published %d events, want none", n)
	}
	if after.Dropped != 0 || after.DroppedClosed != 0 {
		t.Errorf("recovery dropped %d events (%d on closed subscriptions), want none", after.Dropped, after.DroppedClosed)
	}
	// The testbed's own start-up is what the bus has seen, and it is small.
	if after.Published > 200 {
		t.Errorf("bus has published %d events on a node that served no request", after.Published)
	}
	if replayed.Load() != int64(stats.Replayed) || live.Load() != 0 {
		t.Errorf("watcher saw %d replayed and %d live changes, want %d and 0", replayed.Load(), live.Load(), stats.Replayed)
	}

	// A mutation made after recovery is news again.
	if err := st.Put("/redfish/v1/Fabrics/Bench000", map[string]any{"Name": "patched"}); err != nil {
		t.Fatal(err)
	}
	if n := f.Service.Bus().Stats().Published - after.Published; n != 1 || live.Load() != 1 {
		t.Errorf("a live Put published %d events and notified %d live changes, want 1 and 1", n, live.Load())
	}
}
