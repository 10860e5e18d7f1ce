package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ofmf/internal/obsv"
	"ofmf/internal/odata"
	"ofmf/internal/store"
)

// pushByDecode is the subtree push as encoding/json reads it: the whole
// body decoded into a SubtreePayload, the Prefix checked, the resources
// handed to PutSubtreeCtx as a map. handleSubtreePush must answer every
// body exactly as this does (FuzzSubtreePush).
func pushByDecode(s *Service, w http.ResponseWriter, r *http.Request) {
	var payload SubtreePayload
	if !s.decode(w, r, &payload) {
		return
	}
	if payload.Prefix.IsZero() || !payload.Prefix.Under(RootURI) {
		s.error(w, r, http.StatusBadRequest, "Base.1.0.PropertyValueError", "Prefix must lie under the service root")
		return
	}
	if payload.Prefix.Under(SessionsURI) || SessionsURI.Under(payload.Prefix) {
		s.error(w, r, http.StatusBadRequest, "Base.1.0.PropertyValueError", "Prefix must not cover the sessions")
		return
	}
	resources := make(map[odata.ID]any, len(payload.Resources))
	for id, raw := range payload.Resources {
		resources[id] = raw
	}
	if err := s.store.PutSubtreeCtx(r.Context(), payload.Prefix, resources, payload.Keep...); err != nil {
		s.error(w, r, http.StatusBadRequest, "Base.1.0.PropertyValueError", err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// benchPush is the body the benchmark's read_tree set-up pushes for
// subtree i: n endpoints of the shape bench/benchkit writes, encoded by
// json.Marshal of a map, so Prefix, then Resources, ids ascending.
func benchPush(i, n int) []byte {
	prefix := fmt.Sprintf("/redfish/v1/Fabrics/Bench%03d", i)
	resources := make(map[string]json.RawMessage, n)
	for j := 0; j < n; j++ {
		uri := fmt.Sprintf("%s/Endpoints/E%03d", prefix, j)
		resources[uri] = json.RawMessage(fmt.Sprintf(
			`{"@odata.id":%q,"@odata.type":"#Endpoint.v1_8_0.Endpoint","Id":"r%d","Name":"bench fabric %d resource %d",`+
				`"EndpointProtocol":"CXL","ConnectedEntities":[{"EntityType":"Processor","EntityRole":"Initiator"}],`+
				`"Status":{"Health":"OK","State":"Enabled"},"Oem":{"Bench":{"Seq":0,"Fabric":%d,"Slot":%d}}}`,
			uri, j, i, j, i, j))
	}
	body, err := json.Marshal(map[string]any{"Prefix": prefix, "Resources": resources})
	if err != nil {
		panic(err)
	}
	return body
}

// remotePush is the body agent.Remote.PublishSubtree sends: a
// SubtreePayload through json.Marshal.
func remotePush(prefix odata.ID, keep []odata.ID, resources map[odata.ID]string) []byte {
	p := SubtreePayload{Prefix: prefix, Keep: keep, Resources: map[odata.ID]json.RawMessage{}}
	for id, raw := range resources {
		p.Resources[id] = json.RawMessage(raw)
	}
	body, err := json.Marshal(p)
	if err != nil {
		panic(err)
	}
	return body
}

func quietService() *Service {
	return New(Config{Logger: obsv.NewLogger(io.Discard, slog.LevelInfo)})
}

// pushRequest is a POST of body as a client sends it: Content-Length
// declared.
func pushRequest(body []byte) *http.Request {
	req := httptest.NewRequest(http.MethodPost, string(SubtreeOemURI), bytes.NewReader(body))
	req.ContentLength = int64(len(body))
	return req
}

// TestSubtreeEnvelope pins which bodies the hand walk reads: what
// json.Marshal writes for a SubtreePayload, and nothing else.
func TestSubtreeEnvelope(t *testing.T) {
	for _, tc := range []struct {
		body, prefix, keep, doc string
		ok                      bool
	}{
		{`{"Prefix":"/redfish/v1/F","Resources":{}}`, "/redfish/v1/F", "", `{}`, true},
		{`{"Prefix":"/redfish/v1/F","Keep":["/a","/b"],"Resources":{"x":1}}`, "/redfish/v1/F", "/a /b", `{"x":1}`, true},
		{`{"Prefix":"/redfish/v1/F","Keep":[],"Resources":null}`, "/redfish/v1/F", "", `null`, true},
		{`{"Prefix":"/redfish/v1/F","Resources":{}}` + "\n", "", "", "", false},
		{`{ "Prefix":"/redfish/v1/F","Resources":{}}`, "", "", "", false},
		{`{"Prefix":"\/redfish","Resources":{}}`, "", "", "", false},
		{`{"Prefix":"/é","Resources":{}}`, "", "", "", false},
		{`{"Prefix":"/a","Keep":["/a",],"Resources":{}}`, "", "", "", false},
		{`{"Prefix":"/a","Keep":[,"/a"],"Resources":{}}`, "", "", "", false},
		{`{"Prefix":"/a","Keep":["/a"`, "", "", "", false},
		{`{"Prefix":"/a","Keep":null,"Resources":{}}`, "", "", "", false},
		{`{"Resources":{},"Prefix":"/a"}`, "", "", "", false},
		{`{"prefix":"/a","Resources":{}}`, "", "", "", false},
		{`{"Prefix":"/a","Resources":`, "", "", "", false},
		{`{"Prefix":"/a"}`, "", "", "", false},
		{`{"Prefix":"/a`, "", "", "", false},
	} {
		prefix, keep, doc, ok := subtreeEnvelope([]byte(tc.body))
		var keeps []string
		for _, k := range keep {
			keeps = append(keeps, string(k))
		}
		if ok != tc.ok || string(prefix) != tc.prefix || strings.Join(keeps, " ") != tc.keep || string(doc) != tc.doc {
			t.Errorf("subtreeEnvelope(%s) = %q %q %q %v, want %q %q %q %v",
				tc.body, prefix, keeps, doc, ok, tc.prefix, tc.keep, tc.doc, tc.ok)
		}
	}
}

// FuzzSubtreePush holds the one-scan push to the decode path it replaces:
// for any body, handleSubtreePush and pushByDecode, each on its own
// service holding the same tree, answer with the same status, error code
// and message; and where they succeed they leave the same tree (the
// export, hence every payload and ETag), the same children index (the
// members of every ancestor of every id), the same NextID marks, and
// announce the same changes in the same order.
func FuzzSubtreePush(f *testing.F) {
	const fab = subtreeFab
	ep := func(n int) string { return fmt.Sprintf(`{"@odata.id":"%s/Endpoints/%d","Id":"%d"}`, fab, n, n) }
	for _, seed := range []string{
		string(benchPush(0, 3)),
		string(remotePush(fab, nil, map[odata.ID]string{fab: `{"Id":"F"}`, fab + "/Endpoints/1": ep(1), fab + "/Endpoints/7": ep(7)})),
		string(remotePush(fab, []odata.ID{fab + "/Zones", fab + "/Connections"}, map[odata.ID]string{fab + "/Endpoints/2": ep(2)})),
		string(remotePush(fab+"/Zones", []odata.ID{fab + "/Zones"}, map[odata.ID]string{fab + "/Zones/9": `{"Id":"9"}`})),
		string(remotePush(fab, nil, nil)),
		// Whitespace, in the envelope and in the document.
		`{"Prefix": "` + fab + `", "Resources": {"` + fab + `/Endpoints/1": ` + ep(1) + `}}`,
		`{"Prefix":"` + fab + `","Resources":{ "` + fab + `/Endpoints/1":` + ep(1) + `}}`,
		`{"Prefix":"` + fab + `","Resources":{"` + fab + `/Endpoints/1":{"Id": "1"}}}`,
		`{"Prefix":"` + fab + `","Resources":{"` + fab + `/Endpoints/1":{"Id":"1"}}}` + "\n",
		// Escaped and unsorted keys, envelope keys out of order or in
		// another case, duplicate ids.
		`{"Prefix":"` + fab + `","Resources":{"\/redfish\/v1\/Fabrics\/F\/Endpoints\/1":` + ep(1) + `}}`,
		`{"Prefix":"\/redfish\/v1\/Fabrics\/F","Resources":{}}`,
		`{"Prefix":"` + fab + `","Resources":{"` + fab + `/Endpoints/2":` + ep(2) + `,"` + fab + `/Endpoints/1":` + ep(1) + `}}`,
		`{"Resources":{"` + fab + `/Endpoints/1":` + ep(1) + `},"Prefix":"` + fab + `"}`,
		`{"prefix":"` + fab + `","resources":{"` + fab + `/Endpoints/1":` + ep(1) + `}}`,
		`{"Prefix":"` + fab + `","Resources":{"` + fab + `/Endpoints/1":{"Id":"a"},"` + fab + `/Endpoints/1":{"Id":"b"}}}`,
		`{"Prefix":"` + fab + `","Prefix":"/redfish/v1/Fabrics/G","Resources":{}}`,
		`{"Prefix":"` + fab + `","Resources":{},"Resources":{"` + fab + `/Endpoints/1":` + ep(1) + `}}`,
		`{"Prefix":"` + fab + `","Keep":["` + fab + `/Zones"],"Keep":[],"Resources":{}}`,
		// Payloads that are not canonical, or not objects.
		`{"Prefix":"` + fab + `","Resources":{"` + fab + `/Endpoints/1":{"Name":"<&>"}}}`,
		`{"Prefix":"` + fab + `","Resources":{"` + fab + `/Endpoints/1":{"N":1.0e0,"S":"A"}}}`,
		`{"Prefix":"` + fab + `","Resources":{"` + fab + `/Endpoints/1":[1],"` + fab + `/Endpoints/2":null}}`,
		`{"Prefix":"` + fab + `","Resources":{"` + fab + `/Endpoints/1":"x"}}`,
		`{"Prefix":"` + fab + `","Resources":[]}`,
		`{"Prefix":"` + fab + `","Resources":null}`,
		// Ids outside the prefix; prefixes the push may not take.
		`{"Prefix":"` + fab + `","Resources":{"/redfish/v1/Chassis/X":{},"` + fab + `/Endpoints/1":{},"/redfish/v1/Systems/Y":{}}}`,
		`{"Prefix":"` + fab + `","Resources":{"` + fab + `/Endpoints/1":[],"/redfish/v1/Z":{}}}`,
		`{"Prefix":"/redfish/v1/SessionService/Sessions","Resources":{}}`,
		`{"Prefix":"/redfish/v1/SessionService","Resources":{"/redfish/v1/SessionService/x":{}}}`,
		`{"Prefix":"/elsewhere","Resources":{}}`,
		`{"Prefix":"","Resources":{}}`,
		`{"Prefix":"/elsewhere","Resources":{"a":}}`,
		// Truncated and malformed bodies.
		string(benchPush(1, 2)[:150]),
		`{"Prefix":"` + fab + `","Resources":{"` + fab + `/Endpoints/1":{}}`,
		`{"Prefix":"` + fab + `","Resources":{"` + fab + `/Endpoints/1":{}}}}`,
		`{"Prefix":"` + fab + `","Resources":{"` + fab + `/Endpoints/1":{}},"X":1}`,
		`{"Prefix":"` + fab + `","Resources":"` + fab + `"}`,
		`{"Prefix":1,"Resources":{}}`,
		``, `null`, `{}`, `[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(samePush)
}

// TestSubtreePushAtDepthLimit: encoding/json's nesting limit counts from
// the body, one level above the Resources document, so a payload whose
// arrays nest 9 998 deep is refused by both paths, though the document
// alone would decode. (Bodies this size slow FuzzSubtreePush's mutator
// to a crawl, so they are not in its corpus.)
func TestSubtreePushAtDepthLimit(t *testing.T) {
	nested := strings.Repeat("[", 9998) + strings.Repeat("]", 9998)
	samePush(t, []byte(`{"Prefix":"`+subtreeFab+`","Resources":{"`+subtreeFab+`/Endpoints/1":{"x":`+nested+`}}}`))
}

// subtreeFab is the fabric the pushes of samePush's tree land in.
const subtreeFab = "/redfish/v1/Fabrics/F"

// samePush pushes body through handleSubtreePush and through pushByDecode,
// each on its own service holding the same tree, and fails t unless both
// answer and leave the tree alike (see FuzzSubtreePush).
func samePush(t *testing.T, body []byte) {
	const fab = subtreeFab
	type pushed struct {
		status  int
		reply   []byte
		changes []string
		svc     *Service
	}
	push := func(serve func(*Service, http.ResponseWriter, *http.Request)) pushed {
		svc := quietService()
		st := svc.Store()
		for _, id := range []odata.ID{fab, fab + "/Endpoints/1", fab + "/Endpoints/3", fab + "/Zones/1", "/redfish/v1/Chassis/X"} {
			if err := st.Put(id, map[string]any{"@odata.id": id, "Old": true}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Delete(fab + "/Endpoints/3"); err != nil {
			t.Fatal(err)
		}
		var p pushed
		st.Watch(func(c store.Change) {
			p.changes = append(p.changes, fmt.Sprintf("%v %s replayed=%v", c.Kind, c.ID, c.Replayed))
		})
		w := httptest.NewRecorder()
		serve(svc, w, pushRequest(body))
		p.status, p.reply, p.svc = w.Code, w.Body.Bytes(), svc
		return p
	}
	got := push(func(s *Service, w http.ResponseWriter, r *http.Request) { s.Handler().ServeHTTP(w, r) })
	defer got.svc.Close()
	want := push(pushByDecode)
	defer want.svc.Close()
	if got.status != want.status {
		t.Fatalf("%q: status %d, the decode path %d (%s)", body, got.status, want.status, want.reply)
	}
	if got.status != http.StatusNoContent {
		var g, w odata.ErrorEnvelope
		if err := json.Unmarshal(got.reply, &g); err != nil {
			t.Fatalf("%q: reply %q: %v", body, got.reply, err)
		}
		if err := json.Unmarshal(want.reply, &w); err != nil {
			t.Fatalf("%q: decode path reply %q: %v", body, want.reply, err)
		}
		if g.Error.Code != w.Error.Code || g.Error.Message != w.Error.Message {
			t.Fatalf("%q: error %s %q, the decode path %s %q", body, g.Error.Code, g.Error.Message, w.Error.Code, w.Error.Message)
		}
		return
	}
	gs, ws := got.svc.Store(), want.svc.Store()
	gdump, err := gs.Export()
	if err != nil {
		t.Fatal(err)
	}
	wdump, err := ws.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gdump, wdump) {
		t.Fatalf("%q: tree\n%s\nthe decode path's\n%s", body, gdump, wdump)
	}
	if !slices.Equal(got.changes, want.changes) {
		t.Fatalf("%q: changes %q, the decode path's %q", body, got.changes, want.changes)
	}
	parents := map[odata.ID]bool{}
	for _, id := range gs.IDs() {
		ge, _ := gs.Etag(id)
		we, _ := ws.Etag(id)
		if ge != we {
			t.Fatalf("%q: %s ETag %s, the decode path's %s", body, id, ge, we)
		}
		for p := id.Parent(); p != "/" && p != "." && p != ""; p = p.Parent() {
			parents[p] = true
		}
	}
	for p := range parents {
		if gn, wn := gs.NextID(p), ws.NextID(p); gn != wn {
			t.Fatalf("%q: NextID(%s) %s, the decode path's %s", body, p, gn, wn)
		}
		if !gs.IsCollection(p) {
			gs.RegisterCollection(p, "#C", "c")
			ws.RegisterCollection(p, "#C", "c")
		}
		gm, gerr := gs.Members(p)
		wm, werr := ws.Members(p)
		if !slices.Equal(gm, wm) || (gerr == nil) != (werr == nil) {
			t.Fatalf("%q: members of %s %v (%v), the decode path's %v (%v)", body, p, gm, gerr, wm, werr)
		}
	}
}

// TestSubtreePushAllocs is the exact-count gate on a subtree push through
// the whole Handler() stack, with the benchmark's read_tree body (200
// endpoints, about 78 KB, Content-Length declared). Measured over 100
// pushes, so that an allocation of the service's own goroutines moves
// no count: a first push of a new subtree 645 allocations — per
// resource its id, the copy of its payload and its entry, plus the
// children index and the change list (no ETag: the first reader of a
// resource hashes it, so a push that nobody reads hashes nothing); an
// identical re-push 220 — the middleware's 6, the body buffer, the 200
// ids and the entry and stale lists. The re-push copies no payload. (Decoding the body
// with encoding/json and handing PutSubtreeCtx a map costs about 1480
// and 1050.) The numbers are the gate, not a ceiling to grow into.
func TestSubtreePushAllocs(t *testing.T) {
	const runs = 100
	svc := quietService()
	defer svc.Close()
	h := svc.Handler()
	w := &headerWriter{h: http.Header{}}
	bodies := make([][]byte, runs+1) // AllocsPerRun warms up with one extra run
	for i := range bodies {
		bodies[i] = benchPush(i, 200)
	}
	reader := bytes.NewReader(nil)
	req := httptest.NewRequest(http.MethodPost, string(SubtreeOemURI), nil)
	req.Body = io.NopCloser(reader)
	serve := func(body []byte) {
		clear(w.h)
		w.status = 0
		reader.Reset(body)
		req.ContentLength = int64(len(body))
		h.ServeHTTP(w, req)
		if w.status != http.StatusNoContent {
			t.Fatalf("push = %d, want 204", w.status)
		}
	}
	n := 0
	first := testing.AllocsPerRun(runs, func() {
		serve(bodies[n])
		n++
	})
	again := testing.AllocsPerRun(runs, func() { serve(bodies[0]) })
	t.Logf("first push %v allocations, identical re-push %v", first, again)
	if raceDetector {
		return
	}
	if first != 645 {
		t.Errorf("first push = %v allocations, want 645", first)
	}
	if again != 220 {
		t.Errorf("identical re-push = %v allocations, want 220", again)
	}
}

// TestReadBodyCapsDeclaredLength: readBody allocates at most
// maxBodyPresize up front, whatever length the client declares. Sizing
// the buffer from Content-Length alone would let a client that sends the
// headers of a 4 MiB POST and then nothing hold 4 MiB per idle
// connection.
func TestReadBodyCapsDeclaredLength(t *testing.T) {
	const runs = 10
	var s Service
	reqs := make([]*http.Request, runs)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, string(SubtreeOemURI), strings.NewReader(`{}`))
		reqs[i].ContentLength = maxBodyBytes
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, req := range reqs {
		if body, ok := s.readBody(nil, req); !ok || string(body) != `{}` {
			t.Fatalf("readBody = %q, %v", body, ok)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 2*maxBodyPresize {
		t.Errorf("a 2-byte body declared as %d bytes allocated %d bytes", maxBodyBytes, per)
	}
}

// BenchmarkSubtreePush is the server's side of read_tree's set-up, one
// 200-resource push per op: first pushes of new subtrees, and identical
// re-pushes, through the handler and through the decode path.
func BenchmarkSubtreePush(b *testing.B) {
	paths := []struct {
		name  string
		serve func(*Service, http.ResponseWriter, *http.Request)
	}{
		{"scan", func(s *Service, w http.ResponseWriter, r *http.Request) { s.Handler().ServeHTTP(w, r) }},
		{"decode", pushByDecode},
	}
	const subtrees = 100
	bodies := make([][]byte, subtrees)
	for i := range bodies {
		bodies[i] = benchPush(i, 200)
	}
	for _, p := range paths {
		for _, again := range []bool{false, true} {
			name := p.name + "/first"
			if again {
				name = p.name + "/again"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var svc *Service
				w := &headerWriter{h: http.Header{}}
				for i := 0; i < b.N; i++ {
					if i%subtrees == 0 && (svc == nil || !again) {
						b.StopTimer()
						if svc != nil {
							svc.Close()
						}
						svc = quietService()
						if again {
							for _, body := range bodies {
								p.serve(svc, w, pushRequest(body))
							}
						}
						b.StartTimer()
					}
					p.serve(svc, w, pushRequest(bodies[i%subtrees]))
				}
				b.StopTimer()
				svc.Close()
			})
		}
	}
}
