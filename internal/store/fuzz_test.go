package store

import (
	"bytes"
	"encoding/json"
	"strings"
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

// FuzzIsCanonical holds the byte check to what it stands in for: whatever
// IsCanonical accepts, json.Marshal of it as a json.RawMessage returns
// unchanged (so canonicalize may copy it), and so does every document
// scanExport accepts, payload by payload. The reverse is spot-checked
// where it matters for speed: what json.Marshal itself produced from a
// value is accepted. The seeds are one per rule of the scanner:
// whitespace, the escaped bytes, U+2028, number spellings, bad escapes,
// trailing bytes, nesting past the limit.
func FuzzIsCanonical(f *testing.F) {
	for _, seed := range []string{
		`{}`, `{"a":1}`, `{"a":{"b":[1,2.5,-0,1e9,1E-2,"x",true,false,null,{},[]]}}`,
		`{"a": 1}`, "{\"a\":1}\n", " {}", "{\"a\":\"tab\there\"}",
		`{"a":"<"}`, `{"a":">"}`, `{"a":"&"}`, `{"<":1}`, "{\"a\":\"\u2028\"}", "{\"a\":\"\u2029\"}", "{\"a\":\"\u2027\xe2\x80\"}",
		`{"a":"< \/\b\f\n\r\t\"\\"}`, `{"a":"\x"}`, `{"a":"\u12g4"}`, `{"a":"\u123"}`, `{"a":"\`,
		`{"a":01}`, `{"a":-}`, `{"a":1.}`, `{"a":.5}`, `{"a":1e}`, `{"a":1e+}`, `{"a":-0.0e-0}`, `{"a":+1}`,
		`{"a":1}x`, `{"a":1}}`, `{"a":1,}`, `{"a":[1,]}`, `{,}`, `{"a"}`, `{"a":}`, `{a:1}`, `[]`, `"s"`, `1`, `null`, ``, `{`, `{"a":[}`, `{"a":tru}`, `{"a":nulll}`,
		`{"a":1,"a":2}`, "{\"a\":\"\xff\xfe\"}", "{\"a\":\"\x7f\"}",
		`{"a":` + strings.Repeat("[", maxCanonicalDepth-1) + strings.Repeat("]", maxCanonicalDepth-1) + `}`,
		`{"a":` + strings.Repeat("[", maxCanonicalDepth) + strings.Repeat("]", maxCanonicalDepth) + `}`,
		`{"/redfish/v1/A":{"Name":"a"},"/redfish/v1/B":{"Name":"b"}}`, `{"/b":{},"/a":{}}`, `{"/a":{},"/a":{}}`, `{"\/a":{}}`, `{"/a":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		again, err := json.Marshal(json.RawMessage(b))
		if IsCanonical(b) {
			if err != nil || !bytes.Equal(again, b) {
				t.Fatalf("IsCanonical accepted %q, which json.Marshal turns into %q (%v)", b, again, err)
			}
		} else if err == nil && len(again) > 0 && again[0] == '{' && len(again) < 1<<10 && !IsCanonical(again) {
			// json.Marshal's own output is a fixed point; nesting deeper than
			// the scanner follows is the one thing it may decline there.
			if depth := bytes.Count(again, []byte("[")) + bytes.Count(again, []byte("{")); depth <= maxCanonicalDepth {
				t.Fatalf("IsCanonical declines %q, which json.Marshal produced from %q", again, b)
			}
		}
		if entries, ok := scanExport(b); ok {
			var doc map[string]json.RawMessage
			if err := json.Unmarshal(b, &doc); err != nil || len(doc) != len(entries) {
				t.Fatalf("scanExport read %d entries from %q, encoding/json %d (%v)", len(entries), b, len(doc), err)
			}
			for _, e := range entries {
				if want, err := canonicalize(doc[string(e.id)]); err != nil || !bytes.Equal(e.raw, want) {
					t.Fatalf("scanExport read %s as %q, the decode path as %q (%v)", e.id, e.raw, want, err)
				}
			}
		}
	})
}
