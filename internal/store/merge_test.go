package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ofmf/internal/odata"
)

// Pieces a careless but legal writer can put in a payload. Put compacts
// and HTML-escapes a json.RawMessage but keeps its member order, number
// spellings and string escapes, so all of these reach the tree as
// written; only a PATCH (decode, encode) normalises them.
var (
	mergeKeys    = []string{"Name", "Id", "@odata.id", "Status", "Oem", "Links", "Members@odata.count", "Zeta", "alpha", "é", "日本", "K y", "", "a.b", "~"}
	mergeStrings = []string{`"plain"`, `""`, `"é"`, `"日本語"`, `"\u0041BC"`, `"a\/b"`, `"tab\there"`, `"q\"uote"`, `"back\\slash"`, `"<script>"`, `"a&b"`,
		"\"\u2028\"", `"\u2029"`, `"😀"`, `"\ud83d\ude00"`, `"\u00e9"`, "\"del\x7f\"", `"\ud800"`}
	mergeNumbers = []string{"0", "-0", "7", "-12", "128", "999999999999999", "1000000000000000", "12345678901234567890", "9007199254740993", "2.50", "0.1", "1.0", "1e2", "1E+2", "1e-7", "1e21", "123456789.123456789", "-0.0", "5e-324", "1.7976931348623157e308"}
	// Keys the walk refuses (it falls back): escapes, and what
	// encoding/json would escape.
	mergeOddKeys = []string{`"a\u0041"`, `"x\"y"`, `"a<b"`, `"p&q"`, "\"\u2028\"", `"sl\/ash"`}
)

// randomDocText writes a random JSON object as text: members in random
// order, sometimes duplicated, values of every kind.
func randomDocText(rng *rand.Rand, depth int, odd bool) string {
	var b strings.Builder
	b.WriteByte('{')
	n := rng.Intn(7)
	if depth == 0 {
		n += 2
	}
	order := rng.Perm(len(mergeKeys))
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		switch {
		case odd && rng.Intn(12) == 0:
			b.WriteString(mergeOddKeys[rng.Intn(len(mergeOddKeys))])
		case odd && i > 0 && rng.Intn(12) == 0:
			key, _ := json.Marshal(mergeKeys[order[i-1]]) // a duplicate
			b.Write(key)
		default:
			key, _ := json.Marshal(mergeKeys[order[i]])
			b.Write(key)
		}
		b.WriteByte(':')
		b.WriteString(randomValueText(rng, depth+1, odd))
	}
	b.WriteByte('}')
	return b.String()
}

func randomValueText(rng *rand.Rand, depth int, odd bool) string {
	kind := rng.Intn(8)
	if depth > 4 && kind >= 6 {
		kind = rng.Intn(6)
	}
	switch kind {
	case 0, 1:
		return mergeStrings[rng.Intn(len(mergeStrings))]
	case 2, 3:
		return mergeNumbers[rng.Intn(len(mergeNumbers))]
	case 4:
		return []string{"true", "false", "null"}[rng.Intn(3)]
	case 5, 6:
		return randomDocText(rng, depth, odd)
	default:
		var b strings.Builder
		b.WriteByte('[')
		for i, n := 0, rng.Intn(4); i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(randomValueText(rng, depth+1, odd))
		}
		b.WriteByte(']')
		return b.String()
	}
}

// randomPatch builds a patch aimed at doc: mostly doc's own keys (so
// members are replaced, deleted and merged into), some new ones.
func randomPatch(rng *rand.Rand, doc map[string]any, depth int, odd bool) map[string]any {
	patch := map[string]any{}
	var keys []string
	for k := range doc {
		keys = append(keys, k)
	}
	for i, n := 0, rng.Intn(4); i < n || (depth == 0 && len(patch) == 0); i++ {
		var k string
		if len(keys) > 0 && rng.Intn(3) > 0 {
			k = keys[rng.Intn(len(keys))]
		} else if k = mergeKeys[rng.Intn(len(mergeKeys))]; odd && rng.Intn(4) == 0 {
			// Keys that are stored escaped: later patches fall back.
			k = []string{"x<y", "new\"key", "\xff", "\u2028"}[rng.Intn(4)]
		}
		sub, _ := doc[k].(map[string]any)
		switch rng.Intn(10) {
		case 0, 1:
			patch[k] = nil
		case 2, 3:
			if depth < 4 {
				patch[k] = randomPatch(rng, sub, depth+1, odd) // merges where doc[k] is an object, replaces elsewhere
				continue
			}
			fallthrough
		case 4:
			var s string
			_ = json.Unmarshal([]byte(mergeStrings[rng.Intn(len(mergeStrings)-1)]), &s)
			patch[k] = s
		case 5:
			var f float64
			_ = json.Unmarshal([]byte(mergeNumbers[rng.Intn(len(mergeNumbers))]), &f)
			patch[k] = f
		case 6:
			patch[k] = rng.Intn(2) == 0
		case 7:
			patch[k] = []any{"a<b", float64(rng.Intn(9)), nil, map[string]any{"z": nil, "a": 1.5}}
		case 8:
			// Go values a caller inside the process may pass.
			patch[k] = []any{rng.Intn(1 << 20), odata.StatusOK(), []string{"x", "y"}, json.RawMessage(`{"b":1,"a":2.0}`), map[string]any(nil)}[rng.Intn(5)]
		default:
			patch[k] = "invalid \xff utf8"
		}
	}
	return patch
}

// TestPatchMergeEquivalence is the property behind the byte merge: for
// seeded random stored payloads (members in any order, numbers float64
// would respell or mangle, escaped and unicode strings and keys,
// duplicate keys, nested objects and arrays) and random patches (null
// deletes at every level, objects merging into objects and replacing
// scalars, new keys, arrays, values that are not decoded JSON), Patch
// stores exactly the bytes, and so the entity tag, that decoding the
// payload, merging the map and marshalling it gives. The walk must also
// have done the work itself nearly every time: a fallback is equal by
// construction and would prove nothing.
func TestPatchMergeEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		spliced, total := 0, 0
		for i := 0; i < 200; i++ {
			odd := i%10 == 9
			id := odata.ID(fmt.Sprintf("/redfish/v1/Things/%d", i))
			text := randomDocText(rng, 0, odd)
			if err := s.Put(id, json.RawMessage(text)); err != nil {
				t.Fatalf("seed %d: put %s: %v", seed, text, err)
			}
			// A run of patches: the first meets the payload as written,
			// the rest what earlier patches left.
			for j := 0; j < 3; j++ {
				before, _, err := s.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				var doc map[string]any
				if err := json.Unmarshal(before, &doc); err != nil {
					t.Fatalf("seed %d: stored %s: %v", seed, before, err)
				}
				patch := randomPatch(rng, doc, 0, odd)
				want, wantErr := mergeViaMap(id, before, patch)
				got, gotTag, err := s.PatchReturning(context.Background(), id, patch, "")
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("seed %d: patch %v of %s: error %v, reference %v", seed, patch, before, err, wantErr)
				}
				if err != nil {
					continue
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d: patch %v of\n     %s\n got %s\nwant %s", seed, patch, before, got, want)
				}
				stored, tag, _ := s.Get(id)
				if !bytes.Equal(stored, want) || tag != odata.EtagRaw(want) || gotTag != tag {
					t.Fatalf("seed %d: stored %s tag %s, returned tag %s; want %s tag %s", seed, stored, tag, gotTag, want, odata.EtagRaw(want))
				}
				if !odd {
					total++
					if _, ok := appendMerged(nil, before, patch); ok {
						spliced++
					}
				}
			}
		}
		// Only the odd payloads (escaped and duplicate keys) fall back.
		if spliced != total {
			t.Errorf("seed %d: the walk handled %d of %d ordinary patches itself, want all", seed, spliced, total)
		}
	}
}

// TestPatchMergeFallsBack pins what the walk hands to the map path, and
// that it handles the ordinary cases itself.
func TestPatchMergeFallsBack(t *testing.T) {
	patch := map[string]any{"A": map[string]any{"B": nil, "C": 1.0}}
	for doc, wantOK := range map[string]bool{
		`{"A":{"B":1},"Z":"é"}`:   true,
		`{"Z":2.50,"A":"\u0041"}`: true, // order, number and escape are normalised, not refused
		`{}`:                      true,
		`{"A":1,"A":2}`:           false, // duplicate key
		`{"A\u0041":1}`:           false, // escaped key
		`{"Q":{"x<y":1}}`:         false, // a key the encoder would escape, at any depth
		`{"A" :1}`:                false, // whitespace: not a stored payload
		`{"Q":1e999}`:             false, // encoding/json refuses the number
		`{"A":1e999}`:             false, // ... also where the patch replaces it
		`{"A":{"B":1e999}}`:       false, // ... or deletes it
		`{"Q":[1,]}`:              false,
		`{"Q":tru}`:               false,
		`{"Q":01}`:                false,
		`["A"]`:                   false,
		strings.Repeat(`{"Q":`, 40) + `1` + strings.Repeat(`}`, 40): false, // deeper than maxMergeDepth
	} {
		_, ok := appendMerged(nil, []byte(doc), patch)
		if ok != wantOK {
			t.Errorf("appendMerged(%s) handled = %v, want %v", doc, ok, wantOK)
		}
	}
	if _, ok := appendMerged(nil, []byte(`{"A":1}`), map[string]any{"A": make(chan int)}); ok {
		t.Error("a patch value encoding/json cannot marshal was handled")
	}
}

// TestField reads top-level members of stored payloads as encoding/json
// would: the last of a repeated key, nested objects by a second call,
// nil for what is absent or not an object, and no allocation.
func TestField(t *testing.T) {
	raw := []byte(`{"A":1,"B":{"C":"x","D":[1,{"E":2}]},"A":3,"F":null}`)
	for _, tc := range []struct {
		got  []byte
		want string
	}{
		{Field(raw, "A"), "3"},
		{Field(raw, "B"), `{"C":"x","D":[1,{"E":2}]}`},
		{Field(Field(raw, "B"), "C"), `"x"`},
		{Field(Field(raw, "B"), "E"), ""},
		{Field(raw, "F"), "null"},
		{Field(raw, "G"), ""},
		{Field(Field(raw, "A"), "A"), ""},
		{Field(nil, "A"), ""},
		{Field([]byte(`{}`), "A"), ""},
	} {
		if string(tc.got) != tc.want {
			t.Errorf("got %q, want %q", tc.got, tc.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { Field(Field(raw, "B"), "C") }); n != 0 {
		t.Errorf("Field allocates %v times", n)
	}
}
