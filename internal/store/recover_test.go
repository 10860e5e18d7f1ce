package store_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"ofmf/internal/odata"
	"ofmf/internal/store"
	"ofmf/internal/store/persist"
)

// TestRecoverHashesNothing: a boot that folds the read_tree workload's
// log (100 subtree pushes of 200 resources, then a third as many
// rewrites) installs 20 000 entries and hashes none of them. The first
// read of one hashes that one, to the tag of its bytes.
func TestRecoverHashesNothing(t *testing.T) {
	dir := t.TempDir()
	st := boot(t, dir)
	var ids []odata.ID
	for f := 0; f < 100; f++ {
		prefix := odata.ID(fmt.Sprintf("/redfish/v1/Fabrics/Bench%03d", f))
		resources := make(map[odata.ID]any, 200)
		for j := 0; j < 200; j++ {
			id := prefix.Append("Endpoints", fmt.Sprintf("E%03d", j))
			resources[id] = json.RawMessage(fmt.Sprintf(`{"@odata.id":%q,"Name":"bench fabric %d resource %d"}`, id, f, j))
			ids = append(ids, id)
		}
		if err := st.PutSubtree(prefix, resources); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < len(ids)/3; n++ {
		id := ids[(n*7919)%len(ids)]
		if err := st.Put(id, map[string]any{"@odata.id": id, "Rewrite": n}); err != nil {
			t.Fatal(err)
		}
	}
	// The first store is abandoned as a kill leaves it: every write was
	// flushed to the log, nothing compacted.
	st = boot(t, dir)
	if n := st.Len(); n != len(ids) {
		t.Fatalf("recovered %d resources, want %d", n, len(ids))
	}
	if n := store.HashedEntries(st); n != 0 {
		t.Fatalf("%d entries hashed by recovery, want 0", n)
	}
	raw, etag, err := st.Get(ids[0])
	if err != nil || etag != odata.EtagRaw(raw) {
		t.Fatalf("Get = %q, %v; want the tag of %s", etag, err, raw)
	}
	if n := store.HashedEntries(st); n != 1 {
		t.Fatalf("%d entries hashed after one read, want 1", n)
	}
}

// boot recovers a store from dir and attaches the backend, as cmd/ofmf
// does.
func boot(t *testing.T, dir string) *store.Store {
	t.Helper()
	b, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	stats, err := b.Recover(st)
	if err != nil {
		t.Fatal(err)
	}
	st.AttachBackend(b, stats.LastSeq)
	return st
}
