package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"ofmf/internal/odata"
)

type testRes struct {
	ODataID string `json:"@odata.id"`
	Name    string `json:"Name"`
	Value   int    `json:"Value,omitempty"`
}

func TestPutGetRoundTrip(t *testing.T) {
	s := New()
	id := odata.ID("/redfish/v1/Systems/S1")
	if err := s.Put(id, testRes{ODataID: string(id), Name: "S1", Value: 7}); err != nil {
		t.Fatal(err)
	}
	var got testRes
	if err := s.GetAs(id, &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "S1" || got.Value != 7 {
		t.Errorf("got %+v", got)
	}
}

func TestGetNotFound(t *testing.T) {
	s := New()
	if _, _, err := s.Get("/nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestCreateConflict(t *testing.T) {
	s := New()
	id := odata.ID("/redfish/v1/Systems/S1")
	if err := s.Create(id, testRes{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(id, testRes{Name: "b"}); !errors.Is(err, ErrExists) {
		t.Errorf("err = %v, want ErrExists", err)
	}
}

func TestPutRejectsNonObject(t *testing.T) {
	s := New()
	if err := s.Put("/x", []int{1, 2}); !errors.Is(err, ErrBadPayload) {
		t.Errorf("err = %v, want ErrBadPayload", err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := New()
	id := odata.ID("/x/y")
	if err := s.Put(id, testRes{Name: "orig"}); err != nil {
		t.Fatal(err)
	}
	raw, _, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		raw[i] = 'X'
	}
	var got testRes
	if err := s.GetAs(id, &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "orig" {
		t.Error("mutation of returned slice leaked into store")
	}
}

func TestView(t *testing.T) {
	s := New()
	id := odata.ID("/x/y")
	if err := s.Put(id, testRes{Name: "v"}); err != nil {
		t.Fatal(err)
	}
	var seen string
	var seenEtag string
	err := s.View(id, func(raw json.RawMessage, etag string) {
		seen = string(raw)
		seenEtag = etag
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen == "" || seenEtag == "" {
		t.Errorf("view = %q etag %q", seen, seenEtag)
	}
	wantEtag, _ := s.Etag(id)
	if seenEtag != wantEtag {
		t.Errorf("etag mismatch: %s vs %s", seenEtag, wantEtag)
	}
	if err := s.View("/nope", func(json.RawMessage, string) {}); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestEtagChangesOnUpdate(t *testing.T) {
	s := New()
	id := odata.ID("/x/y")
	if err := s.Put(id, testRes{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	e1, err := s.Etag(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(id, testRes{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	e2, err := s.Etag(id)
	if err != nil {
		t.Fatal(err)
	}
	if e1 == e2 {
		t.Error("etag unchanged after update")
	}
}

func TestPatchDeepMerge(t *testing.T) {
	s := New()
	id := odata.ID("/x/y")
	err := s.Put(id, map[string]any{
		"Name":   "n",
		"Status": map[string]any{"State": "Enabled", "Health": "OK"},
		"Links":  map[string]any{"Endpoints": []any{"a"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Patch(id, map[string]any{
		"Status": map[string]any{"Health": "Critical"},
		"Links":  map[string]any{"Endpoints": []any{"b", "c"}},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := s.GetAs(id, &got); err != nil {
		t.Fatal(err)
	}
	status := got["Status"].(map[string]any)
	if status["State"] != "Enabled" {
		t.Errorf("sibling member lost: %v", status)
	}
	if status["Health"] != "Critical" {
		t.Errorf("patch not applied: %v", status)
	}
	eps := got["Links"].(map[string]any)["Endpoints"].([]any)
	if len(eps) != 2 {
		t.Errorf("array should be replaced, got %v", eps)
	}
}

func TestPatchNullDeletes(t *testing.T) {
	s := New()
	id := odata.ID("/x/y")
	if err := s.Put(id, map[string]any{"A": 1, "B": 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Patch(id, map[string]any{"B": nil}, ""); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := s.GetAs(id, &got); err != nil {
		t.Fatal(err)
	}
	if _, ok := got["B"]; ok {
		t.Error("null did not delete member")
	}
}

func TestPatchEtagPrecondition(t *testing.T) {
	s := New()
	id := odata.ID("/x/y")
	if err := s.Put(id, testRes{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Patch(id, map[string]any{"Name": "b"}, `"stale"`); !errors.Is(err, ErrEtagMismatch) {
		t.Errorf("err = %v, want ErrEtagMismatch", err)
	}
	etag, _ := s.Etag(id)
	if err := s.Patch(id, map[string]any{"Name": "b"}, etag); err != nil {
		t.Errorf("matching etag rejected: %v", err)
	}
}

func TestDelete(t *testing.T) {
	s := New()
	id := odata.ID("/x/y")
	if err := s.Put(id, testRes{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if s.Exists(id) {
		t.Error("still exists after delete")
	}
	if err := s.Delete(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("second delete err = %v", err)
	}
}

func TestCollectionMembership(t *testing.T) {
	s := New()
	coll := odata.ID("/redfish/v1/Systems")
	s.RegisterCollection(coll, "#ComputerSystemCollection.ComputerSystemCollection", "Systems")
	for _, n := range []string{"B", "A", "C"} {
		if err := s.Put(coll.Append(n), testRes{Name: n}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := s.Collection(coll)
	if err != nil {
		t.Fatal(err)
	}
	if c.Count != 3 {
		t.Fatalf("Count = %d", c.Count)
	}
	if c.Members[0].ODataID != coll.Append("A") {
		t.Errorf("not sorted: %v", c.Members)
	}
	if err := s.Delete(coll.Append("B")); err != nil {
		t.Fatal(err)
	}
	c, _ = s.Collection(coll)
	if c.Count != 2 {
		t.Errorf("Count after delete = %d", c.Count)
	}
}

func TestCollectionOnNonCollection(t *testing.T) {
	s := New()
	if _, err := s.Collection("/nope"); !errors.Is(err, ErrNotCollection) {
		t.Errorf("err = %v", err)
	}
}

func TestNextID(t *testing.T) {
	s := New()
	coll := odata.ID("/redfish/v1/Tasks")
	s.RegisterCollection(coll, "#TaskCollection.TaskCollection", "Tasks")
	if got := s.NextID(coll); got != "1" {
		t.Errorf("NextID = %q", got)
	}
	if err := s.Put(coll.Append("1"), testRes{Name: "t"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(coll.Append("2"), testRes{Name: "t"}); err != nil {
		t.Fatal(err)
	}
	if got := s.NextID(coll); got != "3" {
		t.Errorf("NextID = %q", got)
	}
	// Allocation is monotonic: deleting a member does not recycle its id,
	// so a released URI can never alias a later resource.
	if err := s.Delete(coll.Append("1")); err != nil {
		t.Fatal(err)
	}
	if got := s.NextID(coll); got != "3" {
		t.Errorf("NextID after delete = %q, want monotonic \"3\"", got)
	}
	// An externally imported higher id advances the high-water mark.
	if err := s.Put(coll.Append("7"), testRes{Name: "t"}); err != nil {
		t.Fatal(err)
	}
	if got := s.NextID(coll); got != "8" {
		t.Errorf("NextID after import = %q", got)
	}
}

func TestWatchNotifications(t *testing.T) {
	s := New()
	var mu sync.Mutex
	var seen []Change
	s.Watch(func(c Change) {
		mu.Lock()
		seen = append(seen, c)
		mu.Unlock()
	})
	id := odata.ID("/x/y")
	if err := s.Put(id, testRes{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(id, testRes{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []ChangeKind{Added, Updated, Removed}
	if len(seen) != len(want) {
		t.Fatalf("seen %d changes, want %d: %v", len(seen), len(want), seen)
	}
	for i, k := range want {
		if seen[i].Kind != k || seen[i].ID != id {
			t.Errorf("change[%d] = %+v, want kind %v", i, seen[i], k)
		}
	}
}

func TestPatchNoChangeNoNotify(t *testing.T) {
	s := New()
	id := odata.ID("/x/y")
	if err := s.Put(id, testRes{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	count := 0
	s.Watch(func(Change) { count++ })
	if err := s.Patch(id, map[string]any{"Name": "a"}, ""); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Errorf("no-op patch notified %d times", count)
	}
}

func TestPutSubtreeAggregation(t *testing.T) {
	s := New()
	prefix := odata.ID("/redfish/v1/Fabrics/CXL")
	first := map[odata.ID]any{
		prefix.Append("Switches/SW1"): testRes{Name: "SW1"},
		prefix.Append("Endpoints/E1"): testRes{Name: "E1"},
		prefix.Append("Endpoints/E2"): testRes{Name: "E2"},
	}
	if err := s.PutSubtree(prefix, first); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Refresh: E2 gone, E3 added, SW1 updated.
	second := map[odata.ID]any{
		prefix.Append("Switches/SW1"): testRes{Name: "SW1", Value: 9},
		prefix.Append("Endpoints/E1"): testRes{Name: "E1"},
		prefix.Append("Endpoints/E3"): testRes{Name: "E3"},
	}
	if err := s.PutSubtree(prefix, second); err != nil {
		t.Fatal(err)
	}
	if s.Exists(prefix.Append("Endpoints/E2")) {
		t.Error("stale resource survived refresh")
	}
	if !s.Exists(prefix.Append("Endpoints/E3")) {
		t.Error("new resource missing")
	}
	var sw testRes
	if err := s.GetAs(prefix.Append("Switches/SW1"), &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Value != 9 {
		t.Errorf("update lost: %+v", sw)
	}
}

func TestPutSubtreeRejectsOutsideResources(t *testing.T) {
	s := New()
	err := s.PutSubtree("/redfish/v1/Fabrics/CXL", map[odata.ID]any{
		"/redfish/v1/Systems/S1": testRes{Name: "S1"},
	})
	if err == nil {
		t.Fatal("expected error for resource outside subtree")
	}
}

func TestPutSubtreeDoesNotTouchOutside(t *testing.T) {
	s := New()
	if err := s.Put("/redfish/v1/Systems/S1", testRes{Name: "S1"}); err != nil {
		t.Fatal(err)
	}
	prefix := odata.ID("/redfish/v1/Fabrics/CXL")
	if err := s.PutSubtree(prefix, map[odata.ID]any{prefix.Append("Endpoints/E1"): testRes{Name: "E1"}}); err != nil {
		t.Fatal(err)
	}
	if !s.Exists("/redfish/v1/Systems/S1") {
		t.Error("subtree refresh removed resource outside prefix")
	}
}

// TestRestoreAtRootAtomicUnderReaders flips the whole tree between two
// versions with PutSubtree at the service root (the admin restore path)
// while concurrent Cut readers check they never observe a mix: the
// restore is one hold of the write lock, so a reader sees all of a
// replacement or none of it.
func TestRestoreAtRootAtomicUnderReaders(t *testing.T) {
	s := New()
	tree := func(version int) map[odata.ID]any {
		m := make(map[odata.ID]any)
		for _, seg := range []odata.ID{"/redfish/v1/Systems", "/redfish/v1/Fabrics"} {
			for i := 0; i < 4; i++ {
				id := seg.Append(fmt.Sprintf("r%d", i))
				m[id] = map[string]any{"@odata.id": string(id), "V": version}
			}
		}
		return m
	}
	if err := s.PutSubtree("/redfish/v1", tree(0)); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				c, err := s.Cut()
				if err != nil {
					t.Error(err)
					return
				}
				var m map[string]struct{ V int }
				if err := json.Unmarshal(c.Resources, &m); err != nil {
					t.Error(err)
					return
				}
				seen := -1
				for id, v := range m {
					if seen == -1 {
						seen = v.V
					} else if v.V != seen {
						t.Errorf("snapshot mixes versions: %s has V=%d, another resource V=%d", id, v.V, seen)
						return
					}
				}
			}
		}()
	}
	for i := 1; i <= 50; i++ {
		if err := s.PutSubtree("/redfish/v1", tree(i)); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestRestoreAtRootReplacesWholeTree checks admin-restore semantics: a
// PutSubtree at the service root replaces the whole tree, deleting stale
// resources under every top-level segment, not just the ones the new set
// touches.
func TestRestoreAtRootReplacesWholeTree(t *testing.T) {
	s := New()
	a, b := odata.ID("/redfish/v1/Systems"), odata.ID("/redfish/v1/Fabrics")
	old := map[odata.ID]any{
		a.Append("stale1"): map[string]any{"Name": "stale1"},
		b.Append("stale2"): map[string]any{"Name": "stale2"},
		b.Append("kept"):   map[string]any{"Name": "kept"},
	}
	if err := s.PutSubtree("/redfish/v1", old); err != nil {
		t.Fatal(err)
	}
	replacement := map[odata.ID]any{
		a.Append("new1"): map[string]any{"Name": "new1"},
		b.Append("kept"): map[string]any{"Name": "kept"},
	}
	if err := s.PutSubtree("/redfish/v1", replacement); err != nil {
		t.Fatal(err)
	}
	wantIDs := []odata.ID{b.Append("kept"), a.Append("new1")}
	if got := s.IDs(); !reflect.DeepEqual(got, wantIDs) {
		t.Fatalf("after replace: ids %v, want %v", got, wantIDs)
	}
}

func TestDeleteSubtree(t *testing.T) {
	s := New()
	prefix := odata.ID("/redfish/v1/Fabrics/NVMe")
	for i := 0; i < 5; i++ {
		id := prefix.Append(fmt.Sprintf("Endpoints/E%d", i))
		if err := s.Put(id, testRes{Name: "e"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("/redfish/v1/Fabrics/CXLish", testRes{Name: "keep"}); err != nil {
		t.Fatal(err)
	}
	n, err := s.DeleteSubtree(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("removed %d, want 5", n)
	}
	if !s.Exists("/redfish/v1/Fabrics/CXLish") {
		t.Error("prefix matching removed sibling with shared string prefix")
	}
}

// failingBackend accepts appends but fails durability, standing in for a
// WAL whose flush or fsync errors.
type failingBackend struct{}

func (failingBackend) Append([]Record) func() error {
	return func() error { return errors.New("disk full") }
}
func (failingBackend) Close() error { return nil }

func TestDeleteSubtreePropagatesDurabilityError(t *testing.T) {
	s := New()
	if err := s.Put("/redfish/v1/Systems/1", testRes{Name: "s"}); err != nil {
		t.Fatal(err)
	}
	s.AttachBackend(failingBackend{}, 0)
	if _, err := s.DeleteSubtree("/redfish/v1/Systems/1"); err == nil {
		t.Fatal("DeleteSubtree swallowed the durability error")
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	s := New()
	ids := []odata.ID{"/redfish/v1/Systems/A", "/redfish/v1/Systems/B", "/redfish/v1/Chassis/C"}
	for i, id := range ids {
		if err := s.Put(id, testRes{ODataID: string(id), Name: id.Leaf(), Value: i}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := s.Export()
	if err != nil {
		t.Fatal(err)
	}
	s2 := New()
	if err := s2.Import(data); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != len(ids) {
		t.Fatalf("imported %d, want %d", s2.Len(), len(ids))
	}
	for _, id := range ids {
		var a, b testRes
		if err := s.GetAs(id, &a); err != nil {
			t.Fatal(err)
		}
		if err := s2.GetAs(id, &b); err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: %+v != %+v", id, a, b)
		}
	}
}

func TestImportRejectsRelativeURI(t *testing.T) {
	s := New()
	if err := s.Import([]byte(`{"relative/uri": {"Name":"x"}}`)); err == nil {
		t.Error("expected error for relative uri")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	coll := odata.ID("/redfish/v1/Systems")
	s.RegisterCollection(coll, "#C.C", "Systems")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := coll.Append(fmt.Sprintf("g%d-%d", g, i))
				if err := s.Put(id, testRes{Name: "x", Value: i}); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.Get(id); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Collection(coll); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					if err := s.Delete(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestPropertyPutGetIdentity(t *testing.T) {
	s := New()
	f := func(name string, value int) bool {
		id := odata.ID("/p").Append("r")
		if err := s.Put(id, testRes{Name: name, Value: value}); err != nil {
			return false
		}
		var got testRes
		if err := s.GetAs(id, &got); err != nil {
			return false
		}
		return got.Name == name && got.Value == value
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyPatchIdempotent(t *testing.T) {
	// Applying the same patch twice yields the same document and etag.
	f := func(a, b string) bool {
		s := New()
		id := odata.ID("/p/r")
		if err := s.Put(id, map[string]any{"A": a}); err != nil {
			return false
		}
		patch := map[string]any{"B": b}
		if err := s.Patch(id, patch, ""); err != nil {
			return false
		}
		e1, _ := s.Etag(id)
		if err := s.Patch(id, patch, ""); err != nil {
			return false
		}
		e2, _ := s.Etag(id)
		return e1 == e2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCollectionViewCachedPayload(t *testing.T) {
	s := New()
	coll := odata.ID("/redfish/v1/Systems")
	s.RegisterCollection(coll, "#C.C", "Systems")
	if err := s.Put(coll.Append("A"), testRes{Name: "A"}); err != nil {
		t.Fatal(err)
	}
	var ops []string
	s.SetObserver(&Observer{Op: func(op string) { ops = append(ops, op) }})

	var p1, p2 []byte
	var e1, e2 string
	if err := s.CollectionView(coll, func(p []byte, e string) { p1, e1 = p, e }); err != nil {
		t.Fatal(err)
	}
	if err := s.CollectionView(coll, func(p []byte, e string) { p2, e2 = p, e }); err != nil {
		t.Fatal(err)
	}
	if e1 == "" || e1 != e2 {
		t.Errorf("etags %q, %q", e1, e2)
	}
	if &p1[0] != &p2[0] {
		t.Error("second view did not serve the memoized payload")
	}
	if len(ops) != 2 || ops[0] != "collection" || ops[1] != "collection_cached" {
		t.Errorf("ops = %v, want [collection collection_cached]", ops)
	}
	var decoded odata.Collection
	if err := json.Unmarshal(p1, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Count != 1 || decoded.Members[0].ODataID != coll.Append("A") {
		t.Errorf("payload = %+v", decoded)
	}
}

func TestCollectionCacheInvalidation(t *testing.T) {
	s := New()
	coll := odata.ID("/redfish/v1/Systems")
	s.RegisterCollection(coll, "#C.C", "Systems")
	etagOf := func() string {
		var e string
		if err := s.CollectionView(coll, func(_ []byte, etag string) { e = etag }); err != nil {
			t.Fatal(err)
		}
		return e
	}
	e0 := etagOf()
	if err := s.Put(coll.Append("A"), testRes{Name: "A"}); err != nil {
		t.Fatal(err)
	}
	e1 := etagOf()
	if e1 == e0 {
		t.Error("etag unchanged after member added")
	}
	// Updating a member's content leaves the collection payload alone.
	if err := s.Put(coll.Append("A"), testRes{Name: "A", Value: 9}); err != nil {
		t.Fatal(err)
	}
	if etagOf() != e1 {
		t.Error("member content update changed collection etag")
	}
	if err := s.Delete(coll.Append("A")); err != nil {
		t.Fatal(err)
	}
	if etagOf() != e0 {
		t.Error("etag after delete differs from empty-collection etag")
	}
	// Subtree refreshes invalidate too.
	if err := s.PutSubtree(coll, map[odata.ID]any{coll.Append("B"): testRes{Name: "B"}}); err != nil {
		t.Fatal(err)
	}
	members, err := s.Members(coll)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 || members[0] != coll.Append("B") {
		t.Errorf("members after refresh = %v", members)
	}
}

func TestSubtreeIndexInteriorEntry(t *testing.T) {
	// Deleting an interior resource must not orphan its descendants in
	// the children index: subtree walks still reach them.
	s := New()
	fab := odata.ID("/redfish/v1/Fabrics/CXL")
	if err := s.Put(fab, testRes{Name: "fabric"}); err != nil {
		t.Fatal(err)
	}
	sw := fab.Append("Switches/SW1")
	if err := s.Put(sw, testRes{Name: "SW1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(fab); err != nil {
		t.Fatal(err)
	}
	if !s.Exists(sw) {
		t.Fatal("descendant vanished with interior delete")
	}
	if n, _ := s.DeleteSubtree(fab); n != 1 {
		t.Errorf("DeleteSubtree = %d, want 1 (the orphaned switch)", n)
	}
	if s.Exists(sw) {
		t.Error("descendant survived subtree delete")
	}
}

func TestPutSubtreeKeepsKeptAndPrunesIndex(t *testing.T) {
	s := New()
	prefix := odata.ID("/redfish/v1/Fabrics/CXL")
	zone := prefix.Append("Zones/Z1")
	if err := s.Put(zone, testRes{Name: "Z1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSubtree(prefix, map[odata.ID]any{
		prefix.Append("Endpoints/E1"): testRes{Name: "E1"},
	}, prefix.Append("Zones")); err != nil {
		t.Fatal(err)
	}
	if !s.Exists(zone) {
		t.Error("kept subtree removed by refresh")
	}
	// Empty the subtree entirely; a follow-up refresh must still work
	// (index pruning must not strand stale interior nodes).
	if n, _ := s.DeleteSubtree(prefix); n != 2 {
		t.Errorf("DeleteSubtree = %d, want 2", n)
	}
	if err := s.PutSubtree(prefix, map[odata.ID]any{
		prefix.Append("Endpoints/E2"): testRes{Name: "E2"},
	}); err != nil {
		t.Fatal(err)
	}
	if !s.Exists(prefix.Append("Endpoints/E2")) {
		t.Error("refresh after full delete lost resource")
	}
}

func TestRawMessagePut(t *testing.T) {
	s := New()
	raw := json.RawMessage(`{"Name":"raw","Value":3}`)
	if err := s.Put("/x/raw", raw); err != nil {
		t.Fatal(err)
	}
	var got testRes
	if err := s.GetAs("/x/raw", &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "raw" || got.Value != 3 {
		t.Errorf("got %+v", got)
	}
}

// TestLiveBytesFollowsEveryMutation: every way a payload enters or
// leaves the tree keeps LiveBytes equal to the stored payloads' lengths,
// the figure the durability layer paces compaction by.
func TestLiveBytesFollowsEveryMutation(t *testing.T) {
	s := New()
	ctx := context.Background()
	steps := []func() error{
		func() error { return s.Put("/r/a", testRes{Name: "a"}) },
		func() error { return s.Put("/r/a", testRes{Name: "a longer name"}) },
		func() error { return s.Create("/r/b", testRes{Name: "b", Value: 1}) },
		func() error { return s.Patch("/r/b", map[string]any{"Value": 12345}, "") },
		func() error {
			return s.PutSubtree("/r/f", map[odata.ID]any{"/r/f": testRes{Name: "f"}, "/r/f/1": testRes{Name: "f1"}, "/r/f/2": testRes{Name: "f2"}})
		},
		func() error {
			return s.PutSubtree("/r/f", map[odata.ID]any{"/r/f": testRes{Name: "f"}, "/r/f/2": testRes{Name: "f2, again"}})
		},
		func() error {
			return s.PutSubtreeDoc(ctx, "/r/g", []byte(`{"/r/g":{"Name":"g"},"/r/g/1":{"Name":"g1"}}`))
		},
		func() error { return s.Delete("/r/a") },
		func() error { _, err := s.DeleteSubtree("/r/f"); return err },
		func() error { return s.Import([]byte(`{"/r/b":{"Name":"imported"},"/r/h":{"Name":"h"}}`)) },
		func() error {
			return s.Apply(Record{Seq: 1, Op: OpDelete, ID: "/r/g/1"})
		},
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		checkLive(t, s)
	}
	if s.LiveBytes() == 0 {
		t.Fatal("the tree holds payloads, LiveBytes reads 0")
	}
}
