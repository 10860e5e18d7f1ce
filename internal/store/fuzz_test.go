package store

import (
	"encoding/json"
	"testing"

	"ofmf/internal/odata"
)

// FuzzPatch exercises the deep-merge PATCH path with arbitrary JSON
// documents and patches: no panics, and the result must remain a valid
// JSON object that still satisfies the merge laws (idempotence).
func FuzzPatch(f *testing.F) {
	f.Add(`{"A":1,"B":{"C":"x"}}`, `{"B":{"C":"y"},"D":[1,2]}`)
	f.Add(`{"Status":{"State":"Enabled"}}`, `{"Status":{"Health":"OK"}}`)
	f.Add(`{"A":1}`, `{"A":null}`)
	f.Add(`{}`, `{"deep":{"deeper":{"deepest":true}}}`)
	f.Add(`{"x":[{"y":1}]}`, `{"x":[{"y":2},{"z":3}]}`)
	f.Fuzz(func(t *testing.T, docJSON, patchJSON string) {
		var doc, patch map[string]any
		if err := json.Unmarshal([]byte(docJSON), &doc); err != nil || doc == nil {
			return
		}
		if err := json.Unmarshal([]byte(patchJSON), &patch); err != nil || patch == nil {
			return
		}
		s := New()
		id := odata.ID("/fuzz/doc")
		if err := s.Put(id, doc); err != nil {
			return // non-object top levels rejected by design
		}
		if err := s.Patch(id, patch, ""); err != nil {
			t.Fatalf("patch failed: %v", err)
		}
		etag1, _ := s.Etag(id)
		// Idempotence: applying the same patch again changes nothing.
		if err := s.Patch(id, patch, ""); err != nil {
			t.Fatalf("re-patch failed: %v", err)
		}
		etag2, _ := s.Etag(id)
		if etag1 != etag2 {
			t.Fatalf("patch not idempotent: %s vs %s", etag1, etag2)
		}
		// The stored document is still valid JSON.
		raw, _, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("corrupt document: %v", err)
		}
	})
}

// FuzzPatchMergeEquivalence holds the byte merge to the map path it
// replaced: for any payload Put accepts and any patch that decodes,
// whatever the walk produces itself is byte-equal to decode, merge,
// marshal. (Where the walk declines, Patch takes the map path and there
// is nothing to compare.) The seeds are the shapes the walk has a
// special case for: member order, number spellings, escapes in strings
// and keys, duplicates, deletes at depth, objects over scalars and
// scalars over objects.
func FuzzPatchMergeEquivalence(f *testing.F) {
	f.Add(`{"Name":"n","Id":"1","Status":{"State":"Enabled","Health":"OK"}}`, `{"Status":{"Health":"Critical"},"Oem":{"Bench":{"Seq":1}}}`)
	f.Add(`{"b":2.50,"a":1e2,"c":-0,"d":12345678901234567890,"e":0.1}`, `{"a":null,"f":1.5,"g":-0.0,"h":1e21}`)
	f.Add(`{"s":"\u0041\/<>&\u2028","t":"é日本\ud800","k\u0041":1}`, `{"s":"x<y","u":"\u2029"}`)
	f.Add(`{"A":1,"A":{"B":2}}`, `{"A":{"B":null}}`)
	f.Add(`{"A":{"B":{"C":[1,{"z":1,"a":[]}],"D":null}}}`, `{"A":{"B":{"C":null,"E":{"F":null}}}}`)
	f.Add(`{"A":"scalar","B":{"x":1}}`, `{"A":{"n":null},"B":"scalar"}`)
	f.Add(`{"A":1e999}`, `{"A":null}`)
	f.Add(`{"":{"":{"":0}}}`, `{"":{"":{"":null}}}`)
	f.Fuzz(func(t *testing.T, docJSON, patchJSON string) {
		var patch map[string]any
		if err := json.Unmarshal([]byte(patchJSON), &patch); err != nil {
			return
		}
		s := New()
		id := odata.ID("/fuzz/doc")
		if err := s.Put(id, json.RawMessage(docJSON)); err != nil {
			return // not a JSON object
		}
		stored, _, _ := s.Get(id)
		got, ok := appendMerged(nil, stored, patch)
		if !ok {
			return
		}
		want, err := mergeViaMap(id, stored, patch)
		if err != nil {
			t.Fatalf("the walk merged %s into %s, the map path fails: %v", patchJSON, stored, err)
		}
		if string(got) != string(want) {
			t.Fatalf("patch %s of %s:\n got %s\nwant %s", patchJSON, stored, got, want)
		}
	})
}
