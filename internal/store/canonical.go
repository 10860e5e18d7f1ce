package store

import "bytes"

// This file is the check that lets bytes cross the disk boundary
// verified instead of re-encoded. json.Marshal of a json.RawMessage does
// three things to it: refuse it unless encoding/json's scanner calls it
// valid, drop the whitespace between its tokens, and escape <, >, & and
// U+2028/U+2029. Bytes that are valid, compact and free of those five
// come back unchanged, and one walk can tell. The walk runs on every
// replayed record, snapshot load, subtree push, replica bootstrap and WAL
// append, and most of what it reads is the inside of strings, so it
// crosses them eight bytes a step until a word holds a byte it must look
// at (stringStop).

// maxCanonicalDepth bounds the nesting the walk follows. Redfish payloads
// nest a handful of levels; deeper input is left to encoding/json.
const maxCanonicalDepth = 64

// IsCanonical reports whether raw is a JSON object that
// json.Marshal(json.RawMessage(raw)) returns byte for byte. It answers
// false for anything it is unsure of; true is a proof.
func IsCanonical(raw []byte) bool {
	end, ok := scanCanonical(raw, 0)
	return ok && end == len(raw)
}

// scanCanonical walks the canonical JSON object that starts at b[i] and
// returns the index just past it.
func scanCanonical(b []byte, i int) (end int, ok bool) {
	if i >= len(b) || b[i] != '{' {
		return 0, false
	}
	return scanValue(b, i, 0)
}

// scanValue walks the value that starts at b[i]: valid by encoding/json's
// grammar (numbers without leading zeros, the eight one-letter escapes
// and \uXXXX, no control bytes in strings; UTF-8 is not checked there
// either), no whitespace, none of the bytes the encoder escapes.
func scanValue(b []byte, i, depth int) (end int, ok bool) {
	if i >= len(b) || depth > maxCanonicalDepth {
		return 0, false
	}
	switch c := b[i]; {
	case c == '{' || c == '[':
		closer := c + 2 // '}' is '{'+2, ']' is '['+2
		if i+1 < len(b) && b[i+1] == closer {
			return i + 2, true
		}
		for {
			i++ // past the bracket, or the comma
			if c == '{' {
				if i, ok = scanString(b, i); !ok || i >= len(b) || b[i] != ':' {
					return 0, false
				}
				i++
			}
			if i, ok = scanValue(b, i, depth+1); !ok || i >= len(b) {
				return 0, false
			}
			if b[i] == closer {
				return i + 1, true
			}
			if b[i] != ',' {
				return 0, false
			}
		}
	case c == '"':
		return scanString(b, i)
	case c == '-' || (c >= '0' && c <= '9'):
		return scanNumber(b, i)
	case bytes.HasPrefix(b[i:], []byte("true")), bytes.HasPrefix(b[i:], []byte("null")):
		return i + 4, true
	case bytes.HasPrefix(b[i:], []byte("false")):
		return i + 5, true
	}
	return 0, false
}

// stringStop marks the bytes of a string literal scanString has to look
// at: its closing quote, a backslash, what the grammar forbids, what the
// encoder escapes, and the lead byte of U+2028/U+2029. It runs over the
// rest.
var stringStop = func() (t [256]bool) {
	for c := 0; c < 0x20; c++ {
		t[c] = true
	}
	for _, c := range []byte{'"', '\\', '<', '>', '&', 0xE2} {
		t[c] = true
	}
	return t
}()

// scanString walks the string literal that starts at b[i]. It steps
// eight bytes at a time while none of them is a stop byte, then byte by
// byte to the stop byte, which it looks at, and then steps by eight
// again: Redfish strings are mostly long runs of plain ASCII. The loops
// are written out here and in PlainString rather than shared: a call
// per string cost the walk of a read_tree payload about 15 %.
func scanString(b []byte, i int) (int, bool) {
	if i >= len(b) || b[i] != '"' {
		return 0, false
	}
	for i++; ; i++ {
		for ; i+8 <= len(b); i += 8 {
			w := b[i : i+8 : i+8]
			if stringStop[w[0]] || stringStop[w[1]] || stringStop[w[2]] || stringStop[w[3]] ||
				stringStop[w[4]] || stringStop[w[5]] || stringStop[w[6]] || stringStop[w[7]] {
				break
			}
		}
		for i < len(b) && !stringStop[b[i]] {
			i++
		}
		if i >= len(b) {
			return 0, false
		}
		switch c := b[i]; c {
		case '"':
			return i + 1, true
		case '\\':
			i++
			if i >= len(b) {
				return 0, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
					return 0, false
				}
				i += 4
			default:
				return 0, false
			}
		case 0xE2:
			if i+2 < len(b) && b[i+1] == 0x80 && b[i+2]&^1 == 0xA8 {
				return 0, false // U+2028, U+2029
			}
		default:
			return 0, false // a control byte, or one of < > &
		}
	}
}

// scanNumber walks the number that starts at b[i]:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func scanNumber(b []byte, i int) (int, bool) {
	digits := func() bool {
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return 0, false
		}
	}
	return i, true
}

func isHex(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
