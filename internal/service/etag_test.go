package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"ofmf/internal/odata"
	"ofmf/internal/store"
)

// TestEtagOnEveryPath: whichever way a resource entered the tree — Put,
// Patch, a subtree push (PutSubtreeDoc and PutSubtreeCut), Import, WAL
// replay at boot, or a leader's record applied on a replica — every way
// of reading its entity tag gives odata.EtagRaw of its bytes: View, Get,
// Etag, a PatchReturning reply, If-Match, the handler's ETag header and
// its 304. Each reader makes the first read of a resource of its own, so
// each is also the one that hashes it; then every reader reads every
// resource again.
func TestEtagOnEveryPath(t *testing.T) {
	ctx := context.Background()
	readers := []struct {
		name string
		read func(t *testing.T, svc *Service, id odata.ID, want string) string
	}{
		{"View", func(t *testing.T, svc *Service, id odata.ID, _ string) (tag string) {
			if err := svc.Store().View(id, func(_ json.RawMessage, etag string) { tag = etag }); err != nil {
				t.Fatal(err)
			}
			return tag
		}},
		{"Get", func(t *testing.T, svc *Service, id odata.ID, _ string) string {
			_, tag, err := svc.Store().Get(id)
			if err != nil {
				t.Fatal(err)
			}
			return tag
		}},
		{"Etag", func(t *testing.T, svc *Service, id odata.ID, _ string) string {
			tag, err := svc.Store().Etag(id)
			if err != nil {
				t.Fatal(err)
			}
			return tag
		}},
		{"IfMatch", func(t *testing.T, svc *Service, id odata.ID, want string) string {
			// A patch that changes nothing, conditioned on the tag: it
			// must match, and the reply carries the tag.
			var cur map[string]any
			if err := svc.Store().GetAs(id, &cur); err != nil {
				t.Fatal(err)
			}
			_, tag, err := svc.Store().PatchReturning(ctx, id, map[string]any{"Name": cur["Name"]}, want)
			if err != nil {
				t.Fatalf("If-Match %s: %v", want, err)
			}
			return tag
		}},
		{"PatchReply", func(t *testing.T, svc *Service, id odata.ID, _ string) string {
			raw, tag, err := svc.Store().PatchReturning(ctx, id, map[string]any{"Patched": true}, "")
			if err != nil {
				t.Fatal(err)
			}
			if want := odata.EtagRaw(raw); tag != want {
				t.Errorf("%s: PatchReturning replied %q for its bytes, want %q", id, tag, want)
			}
			return tag
		}},
		{"Header", func(t *testing.T, svc *Service, id odata.ID, _ string) string {
			rec := httptest.NewRecorder()
			svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, string(id), nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s = %d", id, rec.Code)
			}
			return rec.Header().Get("ETag")
		}},
		{"NotModified", func(t *testing.T, svc *Service, id odata.ID, want string) string {
			req := httptest.NewRequest(http.MethodGet, string(id), nil)
			req.Header.Set("If-None-Match", want)
			rec := httptest.NewRecorder()
			svc.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusNotModified {
				return fmt.Sprintf("status %d", rec.Code)
			}
			return want
		}},
	}

	dir := t.TempDir()
	payload := func(id odata.ID) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(`{"@odata.id":%q,"Name":"lazy %s"}`, id, id.Leaf()))
	}
	ids := func(path string) []odata.ID {
		var out []odata.ID
		for _, r := range readers {
			out = append(out, odata.ID("/redfish/v1/Fabrics/Lazy"+path).Append("Endpoints", r.name))
		}
		return out
	}
	doc := func(ids []odata.ID) []byte {
		m := make(map[odata.ID]json.RawMessage)
		for _, id := range ids {
			m[id] = payload(id)
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// WAL replay: written by one life, recovered by the next.
	first, srv := boot(t, dir, Config{})
	for _, id := range ids("Wal") {
		if err := first.Store().Put(id, payload(id)); err != nil {
			t.Fatal(err)
		}
	}
	kill(first, srv)
	svc, _ := boot(t, dir, Config{})
	st := svc.Store()

	paths := []struct {
		name    string
		install func(ids []odata.ID) error
	}{
		{"Wal", func([]odata.ID) error { return nil }},
		{"Put", func(ids []odata.ID) error {
			for _, id := range ids {
				if err := st.Put(id, payload(id)); err != nil {
					return err
				}
			}
			return nil
		}},
		{"Patch", func(ids []odata.ID) error {
			for _, id := range ids {
				if err := st.Put(id, map[string]any{"Name": "unpatched"}); err != nil {
					return err
				}
				if err := st.Patch(id, map[string]any{"@odata.id": id, "Name": "lazy " + id.Leaf()}, ""); err != nil {
					return err
				}
			}
			return nil
		}},
		{"PutSubtreeDoc", func(ids []odata.ID) error { return st.PutSubtreeDoc(ctx, ids[0].Parent().Parent(), doc(ids)) }},
		{"PutSubtreeCut", func(ids []odata.ID) error { return st.PutSubtreeCut(ctx, ids[0].Parent().Parent(), doc(ids)) }},
		{"Import", func(ids []odata.ID) error { return st.Import(doc(ids)) }},
		{"Apply", func(ids []odata.ID) error {
			for _, id := range ids {
				line, err := store.AppendRecord(nil, store.Record{Seq: 1, Op: store.OpPut, ID: id, Raw: payload(id)})
				if err != nil {
					return err
				}
				rec, ok := store.DecodeRecord(line)
				if !ok {
					return fmt.Errorf("DecodeRecord declined %s", line)
				}
				if err := st.Apply(rec); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	current := func(id odata.ID) string {
		var tag string
		if err := st.ViewRaw(id, func(raw json.RawMessage) { tag = odata.EtagRaw(raw) }); err != nil {
			t.Fatal(err)
		}
		return tag
	}
	for _, p := range paths {
		ids := ids(p.name)
		if err := p.install(ids); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for i, r := range readers {
			want := current(ids[i])
			if got := r.read(t, svc, ids[i], want); got != want && r.name != "PatchReply" {
				t.Errorf("%s, first read by %s: tag %q, want %q", p.name, r.name, got, want)
			}
		}
		for _, id := range ids {
			want := current(id)
			for _, r := range readers {
				if r.name == "PatchReply" {
					continue // it changes the bytes; its own check ran above
				}
				if got := r.read(t, svc, id, want); got != want {
					t.Errorf("%s, %s read by %s: tag %q, want %q", p.name, id, r.name, got, want)
				}
			}
		}
	}
}
