package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"ofmf/internal/odata"
)

// TestPutSubtreeDocCopiesOnlyChanges: the tree never keeps a reference to
// the document it was handed, copies a payload only when it changes the
// tree, and keeps the entry (bytes and entity tag) of one that does not.
func TestPutSubtreeDocCopiesOnlyChanges(t *testing.T) {
	ctx := context.Background()
	st := New()
	doc := []byte(`{"/f/a":{"N":1},"/f/b":{"N":2}}`)
	if err := st.PutSubtreeDoc(ctx, "/f", doc); err != nil {
		t.Fatal(err)
	}
	before := map[odata.ID]*entry{"/f/a": st.eng.entries["/f/a"], "/f/b": st.eng.entries["/f/b"]}
	for id, e := range before {
		if p := &e.raw[0]; p == &doc[bytes.Index(doc, []byte(id))+len(id)+2] {
			t.Fatalf("%s aliases the document", id)
		}
	}
	again := []byte(`{"/f/a":{"N":1},"/f/b":{"N":3}}`)
	if err := st.PutSubtreeDoc(ctx, "/f", again); err != nil {
		t.Fatal(err)
	}
	if st.eng.entries["/f/a"] != before["/f/a"] {
		t.Error("an unchanged payload was installed again")
	}
	if st.eng.entries["/f/b"] == before["/f/b"] {
		t.Error("a changed payload was not installed")
	}
	clear(doc)
	clear(again)
	if got, _, _ := st.Get("/f/b"); string(got) != `{"N":3}` {
		t.Errorf("/f/b = %s after the documents were overwritten", got)
	}
}

// TestPutSubtreeDocIsPutSubtree: for documents the walk reads and those
// it leaves to encoding/json, PutSubtreeDoc leaves the engine exactly as
// PutSubtreeCtx with the decoded map does — entries, entity tags,
// children index, NextID marks — and returns the same error.
func TestPutSubtreeDocIsPutSubtree(t *testing.T) {
	seed := func() *Store {
		st := New()
		for _, id := range []odata.ID{"/f", "/f/E/1", "/f/E/4", "/f/Z/1", "/g/1"} {
			if err := st.Put(id, map[string]any{"Id": string(id)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Delete("/f/E/4"); err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, tc := range []struct {
		doc  string
		keep []odata.ID
	}{
		{doc: `{"/f":{"Id":"/f"},"/f/E/2":{"N":2},"/f/E/3":{"N":3}}`},
		{doc: `{"/f/E/2":{"N":2}}`, keep: []odata.ID{"/f/Z"}},
		{doc: `{"/f/Z/2":{}}`, keep: []odata.ID{"/f"}},
		{doc: `{}`},
		{doc: `null`},
		{doc: `{"/f/E/3":{"N":3},"/f/E/2":{"N":2}}`},
		{doc: `{ "/f/E/2" : {"N": 2} }`},
		{doc: `{"\/f\/E\/2":{"N":2},"/f/E/2":{"N":5}}`},
		{doc: `{"/f/E/2":{"S":"<&>"},"/f/E/9":{"F":1.50}}`},
		{doc: `{"/f/E/2":{},"/g/2":{},"/a/1":{}}`},
		{doc: `{"/f/E/2":[],"/f/E/1":{},"/h":{}}`},
		{doc: `{"/f/E/2":null}`},
	} {
		viaDoc, viaMap := seed(), seed()
		docErr := viaDoc.PutSubtreeDoc(context.Background(), "/f", []byte(tc.doc), tc.keep...)
		var flat map[odata.ID]json.RawMessage
		if err := json.Unmarshal([]byte(tc.doc), &flat); err != nil {
			t.Fatal(err)
		}
		resources := make(map[odata.ID]any, len(flat))
		for id, raw := range flat {
			resources[id] = raw
		}
		mapErr := viaMap.PutSubtreeCtx(context.Background(), "/f", resources, tc.keep...)
		if (docErr == nil) != (mapErr == nil) || (docErr != nil && docErr.Error() != mapErr.Error()) {
			t.Errorf("%s: PutSubtreeDoc %v, PutSubtreeCtx %v", tc.doc, docErr, mapErr)
			continue
		}
		d, m := &viaDoc.eng, &viaMap.eng
		if !reflect.DeepEqual(d.entries, m.entries) || !reflect.DeepEqual(d.children, m.children) || !reflect.DeepEqual(d.hiwater, m.hiwater) {
			t.Errorf("%s: engines differ:\n doc %v %v %v\n map %v %v %v", tc.doc, d.entries, d.children, d.hiwater, m.entries, m.children, m.hiwater)
		}
	}
	if err := New().PutSubtreeDoc(context.Background(), "/f", []byte(`{"/f/1":{}`)); !errors.Is(err, ErrBadDocument) {
		t.Errorf("a document cut short: %v, want ErrBadDocument", err)
	}
}

// TestPutSubtreeCutCountsDepthFromDocument: a document holding a payload
// nested 9 999 deep is at encoding/json's depth limit on its own and one
// level past it as a member of an envelope. PutSubtreeDoc reads it as a
// member, as a push body holds it, and refuses it; PutSubtreeCut reads
// it on its own, as a Cut holds it, and installs the payload.
func TestPutSubtreeCutCountsDepthFromDocument(t *testing.T) {
	payload := strings.Repeat(`{"a":`, 9998) + `{}` + strings.Repeat("}", 9998)
	doc := []byte(`{"/f/deep":` + payload + `}`)
	if err := New().PutSubtreeDoc(context.Background(), "/f", doc); !errors.Is(err, ErrBadDocument) {
		t.Fatalf("PutSubtreeDoc: %v, want ErrBadDocument", err)
	}
	st := New()
	if err := st.PutSubtreeCut(context.Background(), "/f", doc); err != nil {
		t.Fatalf("PutSubtreeCut: %v", err)
	}
	if raw, _, err := st.Get("/f/deep"); err != nil || string(raw) != payload {
		t.Fatalf("stored %d bytes (%v), want the %d-byte payload", len(raw), err, len(payload))
	}
}
