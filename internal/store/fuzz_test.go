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

// scannerSeeds are one input per rule of the canonical scanner:
// whitespace, the escaped bytes, U+2028, number spellings, bad escapes,
// trailing bytes, nesting past the limit, and documents of the export's
// shape.
var scannerSeeds = []string{
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
}

// FuzzIsCanonical holds the byte check to what it stands in for: whatever
// IsCanonical accepts, json.Marshal of it as a json.RawMessage returns
// unchanged (so canonicalize may copy it), and so does every document
// scanExport accepts, payload by payload. The reverse is spot-checked
// where it matters for speed: what json.Marshal itself produced from a
// value is accepted. The seeds are scannerSeeds, and strideSeeds of
// every byte scanString stops at and every escape it reads.
func FuzzIsCanonical(f *testing.F) {
	for _, seed := range scannerSeeds {
		f.Add([]byte(seed))
	}
	stops := []string{`\"`, `\\`, `\/`, `\n`, `\u00e9`, `\u12`, "\u2028", "\u2029", "\u2027", "\xe2\x80"}
	for c := range 256 {
		if stringStop[c] {
			stops = append(stops, string([]byte{byte(c)}))
		}
	}
	for _, seed := range strideSeeds(stops) {
		f.Add([]byte(`{"a":"` + seed + `"}`))
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

// strideSeeds puts each of stops at every offset 0–16 of a 24-byte
// string of plain letters (longer where a stop is), so that each falls
// at every place of an eight-byte step and across the boundary of the
// next.
func strideSeeds(stops []string) []string {
	var out []string
	for _, stop := range stops {
		for off := 0; off <= 16; off++ {
			s := strings.Repeat("a", off) + stop
			out = append(out, s+strings.Repeat("b", max(0, 24-len(s))))
		}
	}
	return out
}

// FuzzPlainString holds PlainString to the encoder it lets writers skip:
// s is plain exactly when json.Marshal writes it as s between quotes,
// and the string and []byte forms agree. The seeds put every byte
// PlainString stops at, and runes of each UTF-8 length, at every offset
// of an eight-byte step.
func FuzzPlainString(f *testing.F) {
	stops := []string{"é", "€", "😀", "\u2028", "\u2029", "\xe2\x80", "\xff", "\xc3"}
	for c := range 256 {
		if plainStop[c] && c < 0x80 {
			stops = append(stops, string([]byte{byte(c)}))
		}
	}
	f.Add("")
	f.Add("/redfish/v1/Fabrics/CXL/Endpoints/E001")
	for _, seed := range strideSeeds(stops) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		b, err := json.Marshal(s)
		want := err == nil && string(b) == `"`+s+`"`
		if got := PlainString(s); got != want {
			t.Fatalf("PlainString(%q) = %v, json.Marshal writes %s", s, got, b)
		}
		if got := PlainString([]byte(s)); got != want {
			t.Fatalf("PlainString([]byte(%q)) = %v, json.Marshal writes %s", s, got, b)
		}
	})
}

// FuzzValidDocument holds the snapshot check to json.Valid, which it
// stands in for: the same verdict on any input, whether the export walk
// or json.Valid gave it.
func FuzzValidDocument(f *testing.F) {
	for _, seed := range scannerSeeds {
		f.Add([]byte(seed))
	}
	for _, seed := range []string{
		`{"/a":{"N":1},"/b":{"N":[1,{"x":null}]}}`, `{"/a":{"N":1} }`, `{"/a":{"N":1},}`, `{"/a":{"N":1}}{}`,
		`{"/a":{"N":1},"/a":{"N":2}}`, `{"/a":{"N":"\u2028"}}`, `{"/a":{"N":1},"/b":{"N":}}`, "{\"/a\xff\":{}}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := ValidDocument(b), json.Valid(b); got != want {
			t.Fatalf("ValidDocument(%q) = %v, json.Valid %v", b, got, want)
		}
	})
}
