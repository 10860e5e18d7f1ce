package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"ofmf/internal/odata"
)

// This file is the PATCH merge on bytes. Patch used to decode the stored
// payload into a map, merge the patch into it and marshal the map again
// (mergeViaMap, kept as the fallback and as the tests' reference). The
// result of that is fully determined by encoding/json: objects come out
// with their keys sorted, numbers as a float64 prints, strings in the
// encoder's escaping. appendMerged produces the same bytes in one walk
// over the stored payload, which canonicalize guarantees is compact,
// valid json.Marshal output:
//
//   - an object's members are split, sorted by key if they are not
//     already (a payload marshalled from a struct is in field order) and
//     merge-joined with the patch's sorted keys;
//   - a scalar that provably survives decode-and-encode unchanged — a
//     string with nothing the encoder escapes, an integer of at most 15
//     digits, a literal — is copied; any other scalar goes through
//     encoding/json by itself, which is the map path applied to that one
//     value;
//   - a value the patch supplies is marshalled by encoding/json, with
//     fast paths for the plainest strings, integers and booleans.
//
// Whatever the walk does not recognise — an escaped or duplicate key,
// whitespace, nesting past maxMergeDepth, a scalar or patch value
// encoding/json refuses — makes it report false, and the caller takes the
// map path, which then decides (or fails) exactly as before.
// TestPatchMergeEquivalence and FuzzPatchMergeEquivalence hold the two
// paths byte-equal.

// maxMergeDepth bounds the walk's recursion. Redfish payloads nest a
// handful of levels; the map path gives up at encoding/json's 10000.
const maxMergeDepth = 32

// mergeBufs holds the buffers patches are merged into. The merged bytes
// are compared with the stored ones and copied out only when they
// differ, so a patch that changes nothing allocates nothing.
var mergeBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024) // most payloads fit; the rest grow it once
	return &b
}}

// mergeViaMap is the reference merge of patch into id's payload doc:
// decode, merge, marshal.
func mergeViaMap(id odata.ID, doc []byte, patch map[string]any) (json.RawMessage, error) {
	var current map[string]any
	if err := json.Unmarshal(doc, &current); err != nil {
		return nil, fmt.Errorf("store: corrupt entry %s: %w", id, err)
	}
	merge(current, patch)
	return canonicalize(current)
}

// merge applies Redfish PATCH semantics: objects merge recursively, null
// deletes, everything else replaces.
func merge(dst, patch map[string]any) {
	for k, v := range patch {
		if v == nil {
			delete(dst, k)
			continue
		}
		pv, pok := v.(map[string]any)
		dv, dok := dst[k].(map[string]any)
		if pok && dok {
			merge(dv, pv)
			continue
		}
		dst[k] = v
	}
}

// member is one member of a stored object: the bytes between the key's
// quotes and the bytes of the value.
type member struct{ key, val []byte }

// appendMerged appends to dst what mergeViaMap(doc, patch) returns, or
// reports false (having appended whatever it had).
func appendMerged(dst, doc []byte, patch map[string]any) ([]byte, bool) {
	return appendObject(dst, doc, patch, 0)
}

// appendObject appends the object obj with patch (possibly nil) merged
// into it.
func appendObject(dst, obj []byte, patch map[string]any, depth int) ([]byte, bool) {
	if depth > maxMergeDepth {
		return dst, false
	}
	var memberSpace [16]member
	members, ok := splitObject(obj, memberSpace[:0])
	if !ok {
		return dst, false
	}
	byKey := func(a, b member) int { return bytes.Compare(a.key, b.key) }
	if !slices.IsSortedFunc(members, byKey) {
		slices.SortFunc(members, byKey)
	}
	for i := 1; i < len(members); i++ {
		if bytes.Equal(members[i-1].key, members[i].key) {
			return dst, false
		}
	}
	var keySpace [8]string
	keys := keySpace[:0]
	for k := range patch {
		keys = append(keys, k)
	}
	slices.Sort(keys)

	dst = append(dst, '{')
	open := len(dst)
	for i, j := 0, 0; i < len(members) || j < len(keys); {
		// Next in key order: a stored member, a patch entry, or both.
		var m *member // nil when the patch brings a new key
		var v any
		patched := true
		switch {
		case j == len(keys) || (i < len(members) && string(members[i].key) < keys[j]):
			m, patched = &members[i], false
			i++
		case i == len(members) || string(members[i].key) > keys[j]:
			v = patch[keys[j]]
			j++
		default:
			m, v = &members[i], patch[keys[j]]
			i++
			j++
		}
		sub, isObject := v.(map[string]any)
		merges := isObject && m != nil && m.val[0] == '{'
		if m != nil && patched && !merges {
			// The stored value is dropped or replaced. The map path
			// decoded it first all the same, and failed on one it could
			// not (a number float64 does not hold): check it likewise,
			// into dst's spare room.
			if _, ok := appendCanonical(dst, m.val, depth+1); !ok {
				return dst, false
			}
		}
		if patched && v == nil {
			continue // null deletes the member, if there is one
		}
		if len(dst) > open {
			dst = append(dst, ',')
		}
		if m != nil {
			dst = append(append(append(dst, '"'), m.key...), '"')
		} else if dst, ok = appendPatchValue(dst, keys[j-1]); !ok {
			return dst, false
		}
		dst = append(dst, ':')
		switch {
		case !patched:
			dst, ok = appendCanonical(dst, m.val, depth+1)
		case merges:
			dst, ok = appendObject(dst, m.val, sub, depth+1)
		default:
			dst, ok = appendPatchValue(dst, v)
		}
		if !ok {
			return dst, false
		}
	}
	return append(dst, '}'), true
}

// splitObject appends obj's members to members. Keys must be plain (see
// PlainString): their bytes are then the decoded key, so they sort and
// compare as the map path's keys do.
func splitObject(obj []byte, members []member) ([]member, bool) {
	if len(obj) < 2 || obj[0] != '{' || obj[len(obj)-1] != '}' {
		return nil, false
	}
	if len(obj) == 2 {
		return members, true
	}
	for i := 1; ; {
		if i >= len(obj) || obj[i] != '"' {
			return nil, false
		}
		keyEnd, ok := skipValue(obj, i)
		if !ok || keyEnd >= len(obj) || obj[keyEnd] != ':' || !PlainString(obj[i+1:keyEnd-1]) {
			return nil, false
		}
		valEnd, ok := skipValue(obj, keyEnd+1)
		if !ok || valEnd >= len(obj) {
			return nil, false
		}
		members = append(members, member{key: obj[i+1 : keyEnd-1], val: obj[keyEnd+1 : valEnd]})
		switch {
		case obj[valEnd] == ',':
			i = valEnd + 1
		case valEnd == len(obj)-1:
			return members, true
		default:
			return nil, false
		}
	}
}

// Field returns the bytes of the value the stored payload raw holds under
// key at its top level (the last one if repeated, as encoding/json
// reads it), or nil. It allocates nothing for an object of up to 32
// members: a projection reads the few properties it keeps without
// decoding the rest.
func Field(raw []byte, key string) []byte {
	var buf [32]member
	members, _ := splitObject(raw, buf[:0])
	for i := len(members) - 1; i >= 0; i-- {
		if string(members[i].key) == key {
			return members[i].val
		}
	}
	return nil
}

// skipValue returns the index just past the value that starts at b[i].
// It finds the value's end, no more: the value itself is checked when
// appendObject hands it to appendCanonical, kept or not.
func skipValue(b []byte, i int) (int, bool) {
	if i >= len(b) {
		return 0, false
	}
	switch b[i] {
	case '"':
		for j := i + 1; j < len(b); j++ {
			switch b[j] {
			case '\\':
				j++
			case '"':
				return j + 1, true
			}
		}
		return 0, false
	case '{', '[':
		for depth, j := 0, i; j < len(b); j++ {
			switch b[j] {
			case '"':
				end, ok := skipValue(b, j)
				if !ok {
					return 0, false
				}
				j = end - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return j + 1, true
				}
			}
		}
		return 0, false
	default:
		j := i
		for j < len(b) && b[j] != ',' && b[j] != '}' && b[j] != ']' {
			j++
		}
		return j, j > i
	}
}

// appendCanonical appends the stored value v as the map path would
// re-encode it.
func appendCanonical(dst, v []byte, depth int) ([]byte, bool) {
	if depth > maxMergeDepth || len(v) == 0 {
		return dst, false
	}
	switch v[0] {
	case '{':
		return appendObject(dst, v, nil, depth)
	case '[':
		if v[len(v)-1] != ']' {
			return dst, false
		}
		dst = append(dst, '[')
		for i := 1; i < len(v)-1; {
			end, ok := skipValue(v, i)
			if !ok || end >= len(v) {
				return dst, false
			}
			if dst, ok = appendCanonical(dst, v[i:end], depth+1); !ok {
				return dst, false
			}
			if end < len(v)-1 {
				if v[end] != ',' || end+1 == len(v)-1 {
					return dst, false
				}
				dst = append(dst, ',')
			}
			i = end + 1
		}
		return append(dst, ']'), true
	case '"':
		if len(v) >= 2 && v[len(v)-1] == '"' && PlainString(v[1:len(v)-1]) {
			return append(dst, v...), true
		}
	case 't', 'f', 'n':
		switch string(v) {
		case "true", "false", "null":
			return append(dst, v...), true
		}
		return dst, false
	default:
		if plainInteger(v) {
			return append(dst, v...), true
		}
	}
	// An escaped string, a fraction, an exponent, a long integer: let
	// encoding/json decode and encode this one scalar.
	var scalar any
	if err := json.Unmarshal(v, &scalar); err != nil {
		return dst, false
	}
	return appendPatchValue(dst, scalar)
}

// appendPatchValue appends v as json.Marshal encodes it.
func appendPatchValue(dst []byte, v any) ([]byte, bool) {
	switch x := v.(type) {
	case string:
		if PlainString(x) {
			return append(append(append(dst, '"'), x...), '"'), true
		}
	case bool:
		return strconv.AppendBool(dst, x), true
	case float64:
		// Integers below 1e15 print as their digits; -0 prints "-0".
		if x == math.Trunc(x) && math.Abs(x) < 1e15 && (x != 0 || !math.Signbit(x)) {
			return strconv.AppendInt(dst, int64(x), 10), true
		}
	}
	b, err := json.Marshal(v)
	if err != nil {
		return dst, false
	}
	return append(dst, b...), true
}

// PlainString reports whether s, the inside of a string literal or a Go
// string, is its own JSON encoding and its own decoding, so that a
// writer may put it between quotes as it is: valid UTF-8
// holding nothing encoding/json escapes (quotes, backslashes, controls,
// <, >, &, U+2028, U+2029). Like scanString it steps eight bytes at a
// time over plain ASCII. An ASCII byte plainStop marks makes it false;
// a non-ASCII one starts a rune, which is decoded.
func PlainString[S string | []byte](s S) bool {
	for i := 0; ; {
		for ; i+8 <= len(s); i += 8 {
			w := s[i : i+8]
			if plainStop[w[0]] || plainStop[w[1]] || plainStop[w[2]] || plainStop[w[3]] ||
				plainStop[w[4]] || plainStop[w[5]] || plainStop[w[6]] || plainStop[w[7]] {
				break
			}
		}
		for i < len(s) && !plainStop[s[i]] {
			i++
		}
		if i >= len(s) {
			return true
		}
		if s[i] < utf8.RuneSelf {
			return false // a control byte, or one of " \ < > &
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
			return false
		}
		i += size
	}
}

// plainStop marks the bytes PlainString has to look at: the ASCII bytes
// encoding/json escapes, and every byte of a multi-byte UTF-8 sequence.
var plainStop = func() (t [256]bool) {
	for c := 0; c < 0x20; c++ {
		t[c] = true
	}
	for c := utf8.RuneSelf; c < 256; c++ {
		t[c] = true
	}
	for _, c := range []byte{'"', '\\', '<', '>', '&'} {
		t[c] = true
	}
	return t
}()

// plainInteger reports whether v is a JSON integer that float64 holds
// exactly and prints back digit for digit: at most 15 digits, no
// fraction, no exponent.
func plainInteger(v []byte) bool {
	digits := v
	if len(digits) > 0 && digits[0] == '-' {
		digits = digits[1:]
	}
	if len(digits) == 0 || len(digits) > 15 || (digits[0] == '0' && len(digits) > 1) {
		return false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}
