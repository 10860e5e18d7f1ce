package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"ofmf/internal/odata"
)

// Import audit regression tests: an imported tree must behave exactly
// like one built through the normal mutation paths — derived state
// (children index, collection caches, id high-water marks) is rebuilt,
// not restored, so each piece gets its own regression test.

// populate builds a small tree with a registered collection, members,
// and an unrelated subtree, mirroring what a live deployment holds.
func populate(t *testing.T) *Store {
	t.Helper()
	s := New()
	s.RegisterCollection("/redfish/v1/Systems", "#ComputerSystemCollection.ComputerSystemCollection", "Systems")
	for _, id := range []odata.ID{"/redfish/v1/Systems/1", "/redfish/v1/Systems/7"} {
		if err := s.Put(id, testRes{ODataID: string(id), Name: id.Leaf()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("/redfish/v1/Chassis/C1", testRes{ODataID: "/redfish/v1/Chassis/C1", Name: "C1"}); err != nil {
		t.Fatal(err)
	}
	return s
}

// restore imports an export into a fresh store with the same collection
// registrations a boot would re-declare.
func restore(t *testing.T, dump []byte) *Store {
	t.Helper()
	s := New()
	s.RegisterCollection("/redfish/v1/Systems", "#ComputerSystemCollection.ComputerSystemCollection", "Systems")
	if err := s.Import(dump); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestImportRebuildsChildrenIndex(t *testing.T) {
	src := populate(t)
	dump, err := src.Export()
	if err != nil {
		t.Fatal(err)
	}
	dst := restore(t, dump)

	want, err := src.Members("/redfish/v1/Systems")
	if err != nil {
		t.Fatal(err)
	}
	got, err := dst.Members("/redfish/v1/Systems")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("members after import = %v, want %v", got, want)
	}
	// The index must also serve deletion fan-out: removing the subtree
	// under Systems must find both members.
	if n, _ := dst.DeleteSubtree("/redfish/v1/Systems/1"); n != 1 {
		t.Errorf("DeleteSubtree removed %d resources, want 1", n)
	}
	got, err = dst.Members("/redfish/v1/Systems")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "/redfish/v1/Systems/7" {
		t.Errorf("members after delete = %v", got)
	}
}

func TestImportRebuildsNextIDHighWater(t *testing.T) {
	src := New()
	for _, id := range []odata.ID{"/redfish/v1/C/1", "/redfish/v1/C/7", "/redfish/v1/C/nonnumeric"} {
		if err := src.Put(id, testRes{ODataID: string(id)}); err != nil {
			t.Fatal(err)
		}
	}
	dump, err := src.Export()
	if err != nil {
		t.Fatal(err)
	}
	dst := New()
	if err := dst.Import(dump); err != nil {
		t.Fatal(err)
	}
	// A fresh allocation must not collide with imported members: the
	// high-water mark is derived from the imported ids, so the next id
	// after 1 and 7 is 8.
	if got := dst.NextID("/redfish/v1/C"); got != "8" {
		t.Errorf("NextID after import = %q, want %q", got, "8")
	}
}

func TestImportInvalidatesCollectionCache(t *testing.T) {
	s := New()
	s.RegisterCollection("/redfish/v1/Systems", "#ComputerSystemCollection.ComputerSystemCollection", "Systems")
	// Prime the lazy collection cache while the collection is empty.
	coll, err := s.Collection("/redfish/v1/Systems")
	if err != nil {
		t.Fatal(err)
	}
	if len(coll.Members) != 0 {
		t.Fatalf("pre-import members = %v", coll.Members)
	}
	dump, err := populate(t).Export()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Import(dump); err != nil {
		t.Fatal(err)
	}
	coll, err = s.Collection("/redfish/v1/Systems")
	if err != nil {
		t.Fatal(err)
	}
	if len(coll.Members) != 2 {
		t.Errorf("post-import members = %v, want 2 entries", coll.Members)
	}
}

func TestImportExportRoundTripStable(t *testing.T) {
	src := populate(t)
	dump, err := src.Export()
	if err != nil {
		t.Fatal(err)
	}
	dst := restore(t, dump)
	again, err := dst.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump, again) {
		t.Errorf("round-trip export diverged:\n%s\nvs\n%s", dump, again)
	}
	if src.Len() != dst.Len() {
		t.Errorf("Len after import = %d, want %d", dst.Len(), src.Len())
	}
}

// captureBackend records every appended mutation, standing in for the
// WAL so replay parity can be checked without touching disk.
type captureBackend struct {
	recs []Record
}

func (c *captureBackend) Append(batch []Record) func() error {
	c.recs = append(c.recs, batch...)
	return nil
}

func (c *captureBackend) Close() error { return nil }

func TestApplyReplayMatchesOriginal(t *testing.T) {
	cap := &captureBackend{}
	src := New()
	src.AttachBackend(cap, 0)
	src.RegisterCollection("/redfish/v1/Systems", "#ComputerSystemCollection.ComputerSystemCollection", "Systems")

	// Exercise every mutation family the WAL reduces to put/delete
	// primitives: Put, Create, Patch, PutSubtree (with deletes),
	// Delete and DeleteSubtree.
	for i := 1; i <= 3; i++ {
		id := odata.ID(fmt.Sprintf("/redfish/v1/Systems/%d", i))
		if err := src.Put(id, testRes{ODataID: string(id), Name: "sys", Value: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Create("/redfish/v1/Managers/M1", testRes{ODataID: "/redfish/v1/Managers/M1", Name: "m"}); err != nil {
		t.Fatal(err)
	}
	if err := src.Patch("/redfish/v1/Systems/2", map[string]any{"Name": "patched"}, ""); err != nil {
		t.Fatal(err)
	}
	if err := src.PutSubtree("/redfish/v1/Fabrics/F1", map[odata.ID]any{
		"/redfish/v1/Fabrics/F1":             testRes{ODataID: "/redfish/v1/Fabrics/F1", Name: "f"},
		"/redfish/v1/Fabrics/F1/Endpoints/1": testRes{ODataID: "/redfish/v1/Fabrics/F1/Endpoints/1", Name: "ep"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := src.Delete("/redfish/v1/Systems/3"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.DeleteSubtree("/redfish/v1/Managers/M1"); err != nil {
		t.Fatal(err)
	}

	// Replaying the captured records through Apply — exactly what boot
	// recovery does — must reproduce the source tree and its derived
	// state, not just the raw bytes.
	dst := New()
	dst.RegisterCollection("/redfish/v1/Systems", "#ComputerSystemCollection.ComputerSystemCollection", "Systems")
	for _, rec := range cap.recs {
		if err := dst.Apply(rec); err != nil {
			t.Fatalf("apply %+v: %v", rec, err)
		}
	}
	srcDump, err := src.Export()
	if err != nil {
		t.Fatal(err)
	}
	dstDump, err := dst.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(srcDump, dstDump) {
		t.Errorf("replay diverged:\n%s\nvs\n%s", srcDump, dstDump)
	}
	srcMembers, _ := src.Members("/redfish/v1/Systems")
	dstMembers, _ := dst.Members("/redfish/v1/Systems")
	if !reflect.DeepEqual(srcMembers, dstMembers) {
		t.Errorf("replayed members = %v, want %v", dstMembers, srcMembers)
	}
	if src.NextID("/redfish/v1/Systems") != dst.NextID("/redfish/v1/Systems") {
		t.Errorf("replayed NextID = %q, want %q",
			dst.NextID("/redfish/v1/Systems"), src.NextID("/redfish/v1/Systems"))
	}
}

// TestImportedTreeServesCollections is the end-to-end restore check:
// after import the collection payload (the GET hot path) must be
// coherent JSON listing the imported members.
func TestImportedTreeServesCollections(t *testing.T) {
	dump, err := populate(t).Export()
	if err != nil {
		t.Fatal(err)
	}
	dst := restore(t, dump)
	err = dst.CollectionView("/redfish/v1/Systems", func(payload []byte, etag string) {
		var coll struct {
			Count   int `json:"Members@odata.count"`
			Members []struct {
				ID string `json:"@odata.id"`
			} `json:"Members"`
		}
		if err := json.Unmarshal(payload, &coll); err != nil {
			t.Fatalf("collection payload not JSON: %v", err)
		}
		if coll.Count != 2 || len(coll.Members) != 2 {
			t.Errorf("collection after import = %+v", coll)
		}
		if etag == "" {
			t.Error("collection etag empty after import")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStoredPayloadsAreCanonical pins the invariant canonicalize's
// comment states: whatever route a payload takes into the tree and
// however the caller formatted it, the stored bytes are json.Marshal
// output — so marshalling them again as a json.RawMessage (what an
// encoder does with an inlined member) reproduces them exactly. The
// service's $expand splices stored bytes unencoded on this ground.
func TestStoredPayloadsAreCanonical(t *testing.T) {
	sloppy := json.RawMessage("{\n\t\"Name\" : \"<a&b>\\u2028\",\n\t\"Oem\" : { \"k\" : [ 1 , 2.50 , \"x>y\" ] }\n}")
	// Compact and valid, but with bytes the encoder escapes: the byte
	// check must decline it, not copy it.
	unescaped := json.RawMessage("{\"Name\":\"<a&b>\u2028\",\"Oem\":{\"k\":[1,2.50,\"x>y\"]}}")
	src := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(src.Put("/redfish/v1/A/struct", testRes{ODataID: "/redfish/v1/A/struct", Name: "<b>&"}))
	must(src.Put("/redfish/v1/A/raw", sloppy))
	must(src.Put("/redfish/v1/A/unescaped", unescaped))
	must(src.Create("/redfish/v1/A/created", sloppy))
	must(src.PutSubtree("/redfish/v1/B", map[odata.ID]any{"/redfish/v1/B/raw": sloppy, "/redfish/v1/B/unescaped": unescaped, "/redfish/v1/B/map": map[string]any{"Name": "<&>"}}))
	must(src.Patch("/redfish/v1/A/raw", map[string]any{"Extra": "</script>"}, ""))
	must(src.Apply(Record{Op: OpPut, ID: "/redfish/v1/C/applied", Raw: sloppy}))
	must(src.Apply(Record{Op: OpPut, ID: "/redfish/v1/C/unescaped", Raw: unescaped}))
	const resources = 9
	dump, err := src.Export()
	must(err)
	imported := New()
	must(imported.Import(dump))
	// The document the snapshot reader walks, with payloads spliced in that
	// are not canonical: the walk must hand the whole document to
	// encoding/json rather than store them as they are.
	c, err := src.Cut()
	must(err)
	cut := c.Resources
	if _, ok := scanExport(cut); !ok {
		t.Fatal("scanExport declines the document Cut wrote")
	}
	spliced := bytes.Replace(cut, []byte(`{"/redfish/v1/A/created":`), []byte(`{"/redfish/v1/A/0":`+string(unescaped)+`,"/redfish/v1/A/created":`), 1)
	if _, ok := scanExport(spliced); ok {
		t.Fatal("scanExport accepted a document holding a payload with unescaped <, >, &")
	}
	walked := New()
	must(walked.Import(spliced))
	must(walked.Delete("/redfish/v1/A/0"))
	// The same two documents as an agent's push.
	pushed, pushedSpliced := New(), New()
	must(pushed.PutSubtreeDoc(context.Background(), "/redfish/v1", cut))
	must(pushedSpliced.PutSubtreeDoc(context.Background(), "/redfish/v1", spliced))
	must(pushedSpliced.Delete("/redfish/v1/A/0"))

	for name, st := range map[string]*Store{"source": src, "imported": imported, "walked": walked, "pushed": pushed, "pushed spliced": pushedSpliced} {
		ids := st.IDs()
		if len(ids) != resources {
			t.Fatalf("%s: %d resources, want %d", name, len(ids), resources)
		}
		for _, id := range ids {
			raw, _, err := st.Get(id)
			must(err)
			again, err := json.Marshal(raw)
			must(err)
			if !bytes.Equal(raw, again) {
				t.Errorf("%s: %s is not a fixed point of json.Marshal:\nstored %s\nagain  %s", name, id, raw, again)
			}
			if !IsCanonical(raw) {
				t.Errorf("%s: IsCanonical declines the stored %s: %s", name, id, raw)
			}
		}
		if got, err := st.Export(); err != nil || !bytes.Equal(got, dump) {
			t.Errorf("%s: Export differs from the source's (%v)", name, err)
		}
	}
}

// TestPutDoesNotAliasCallerBytes: canonical raw bytes are copied into the
// tree, not referenced — a caller (a request body buffer, a WAL read
// buffer, a snapshot file) may reuse its slice the moment Put, Apply or
// Import returns.
func TestPutDoesNotAliasCallerBytes(t *testing.T) {
	const want = `{"Name":"kept","N":1}`
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 'x'
		}
	}
	st := New()
	put := json.RawMessage(want)
	if err := st.Put("/a/put", put); err != nil {
		t.Fatal(err)
	}
	scribble(put)
	applied := json.RawMessage(want)
	if err := st.Apply(Record{Op: OpPut, ID: "/a/applied", Raw: applied}); err != nil {
		t.Fatal(err)
	}
	scribble(applied)
	frame := []byte(`{"s":1,"o":"p","i":"/a/decoded","r":` + want + `}`)
	decoded, ok := DecodeRecord(frame)
	if !ok {
		t.Fatal("DecodeRecord declined its own envelope")
	}
	if err := st.Apply(decoded); err != nil {
		t.Fatal(err)
	}
	scribble(frame)
	subtree := json.RawMessage(want)
	if err := st.PutSubtree("/b", map[odata.ID]any{"/b/subtree": subtree}); err != nil {
		t.Fatal(err)
	}
	scribble(subtree)
	doc := []byte(`{"/c/imported":` + want + `}`)
	if err := st.Import(doc); err != nil {
		t.Fatal(err)
	}
	scribble(doc)
	for _, id := range st.IDs() {
		if raw, _, _ := st.Get(id); string(raw) != want {
			t.Errorf("%s holds %s after its caller reused the slice, want %s", id, raw, want)
		}
	}
	if st.Len() != 5 {
		t.Fatalf("%d resources, want 5", st.Len())
	}
}

// TestApplyScansOnlyUnverifiedRecords: a record DecodeRecord read carries
// its mark and Apply copies its resource without the second IsCanonical
// walk; a record built any other way — by hand, by json.Unmarshal — is
// canonicalized as Put would. Marks set by hand on bytes nothing checked
// show which of the two Apply did.
func TestApplyScansOnlyUnverifiedRecords(t *testing.T) {
	const sloppy = `{ "N" : 1 }`
	st := New()
	payload := []byte(`{"s":1,"o":"p","i":"/a/decoded","r":{"N":1}}`)
	decoded, ok := DecodeRecord(payload)
	if !ok || !decoded.verified {
		t.Fatalf("DecodeRecord(%s) = %+v, %v; want a verified record", payload, decoded, ok)
	}
	var unmarshaled Record
	if err := json.Unmarshal(payload, &unmarshaled); err != nil || unmarshaled.verified {
		t.Fatalf("json.Unmarshal built %+v, %v; want an unverified record", unmarshaled, err)
	}
	for _, c := range []struct {
		rec  Record
		want string
	}{
		{decoded, `{"N":1}`},
		{Record{Op: OpPut, ID: "/a/unmarked", Raw: json.RawMessage(sloppy)}, `{"N":1}`},
		{Record{Op: OpPut, ID: "/a/marked", Raw: json.RawMessage(sloppy), verified: true}, sloppy},
	} {
		if err := st.Apply(c.rec); err != nil {
			t.Fatal(err)
		}
		if raw, _, err := st.Get(c.rec.ID); err != nil || string(raw) != c.want {
			t.Errorf("Apply(%+v) stored %s (%v), want %s", c.rec, raw, err, c.want)
		}
	}
}

// TestImportIsAllOrNothing: a document that does not parse — the walk's
// way or encoding/json's — or names a relative URI changes nothing, so
// recovery can fall back to an older snapshot.
func TestImportIsAllOrNothing(t *testing.T) {
	for _, doc := range []string{
		`{"/a/1":{"N":1},"/a/2":{"N":2`,       // cut short
		`{"/a/1":{"N":1},"/a/2":[1]}`,         // a payload that is not an object
		`{"/a/1":{"N":1},"relative":{"N":2}}`, // a relative URI, after a good entry
		`{ "/a/1": {"N":1}, "/a/2": nope }`,   // invalid, in the layout only encoding/json reads
	} {
		st := New()
		if err := st.Import([]byte(doc)); err == nil {
			t.Errorf("Import(%s) succeeded", doc)
		}
		if st.Len() != 0 {
			t.Errorf("Import(%s) failed and left %d resources behind", doc, st.Len())
		}
	}
}

// TestBenchmarkShapeNeedsNoFallback counts how often encoding/json would
// have to step in for a tree of the benchmark's read_tree resources (the
// shape bench/benchkit pushes, and persist's BenchmarkRecover replays):
// never — every payload passes the byte check canonicalize tries first,
// and the snapshot of the tree is a document the one-pass reader takes.
func TestBenchmarkShapeNeedsNoFallback(t *testing.T) {
	st := New()
	fallbacks := 0
	for f := 0; f < 10; f++ {
		for j := 0; j < 200; j++ {
			id := odata.ID(fmt.Sprintf("/redfish/v1/Fabrics/Bench%03d/Endpoints/E%03d", f, j))
			raw := json.RawMessage(fmt.Sprintf(
				`{"@odata.id":%q,"@odata.type":"#Endpoint.v1_8_0.Endpoint","Id":"r%d","Name":"bench fabric %d resource %d",`+
					`"EndpointProtocol":"CXL","ConnectedEntities":[{"EntityType":"Processor","EntityRole":"Initiator"}],`+
					`"Status":{"Health":"OK","State":"Enabled"},"Oem":{"Bench":{"Seq":0,"Fabric":%d,"Slot":%d}}}`,
				id, j, f, j, f, j))
			if !IsCanonical(raw) {
				fallbacks++
			}
			if err := st.Apply(Record{Op: OpPut, ID: id, Raw: raw}); err != nil {
				t.Fatal(err)
			}
		}
	}
	c, err := st.Cut()
	if err != nil {
		t.Fatal(err)
	}
	entries, ok := scanExport(c.Resources)
	if !ok {
		fallbacks++
	}
	if fallbacks != 0 || len(entries) != st.Len() {
		t.Fatalf("%d fallbacks to encoding/json, %d of %d entries read by the walk; want 0 and all", fallbacks, len(entries), st.Len())
	}
}
