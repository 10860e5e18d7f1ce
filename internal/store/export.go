package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"

	"ofmf/internal/odata"
)

// This file is the tree as one document, out and in: {"uri":payload,…},
// keys ascending. Stored payloads are canonical bytes (see canonicalize),
// so writing the document is concatenation and reading it back is one
// walk that checks each payload is still canonical; the tree copies
// those that change it. encoding/json only sees a document that walk
// does not recognise.

// exportEntry is one resource of the document.
type exportEntry struct {
	id  odata.ID
	raw json.RawMessage
}

func byID(a, b exportEntry) int { return strings.Compare(string(a.id), string(b.id)) }

func entryCmp(e exportEntry, id odata.ID) int { return strings.Compare(string(e.id), string(id)) }

// Cut is a consistent cut of the tree: the document — compact, keyed by
// URI in ascending order — with the commit sequence number of the last
// mutation it contains, and the NextID high-water marks the document does
// not imply. Those are the marks of parents whose highest numeric child
// was deleted; without them a tree rebuilt from the document would mint a
// deleted id again. Replay.HiWater puts them back.
type Cut struct {
	Resources []byte
	Seq       uint64
	HiWater   map[odata.ID]int // nil when the document implies every mark
}

// HiWater returns the NextID marks the tree does not imply, as Cut
// reports them. Marks only rise, so a replica handed an older document
// with these marks, then the log from that document's Seq on, ends with
// exactly this tree's marks.
func (s *Store) HiWater() map[odata.ID]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng.unimplied()
}

// Cut takes the tree's Cut. Because mutations hold the write lock while
// sequence numbers are assigned and records are handed to the backend,
// holding the read lock makes it an exact cut of the log: every record
// with Seq <= Cut.Seq is reflected in the document, none with a greater
// Seq is. The lock is held only while the entries and marks are listed —
// an installed entry's payload is never modified, only replaced by a new
// entry, so the ids are sorted and the document is put together after
// writers are let back in. The sort moves an id and an entry pointer,
// not the payload's slice header as well.
func (s *Store) Cut() (Cut, error) {
	var c Cut
	s.mu.RLock()
	entries := make([]touch, 0, len(s.eng.entries))
	size := 2
	for id, e := range s.eng.entries {
		entries = append(entries, touch{id, e})
		size += len(id) + len(e.raw) + len(`"":,`)
	}
	c.Seq = s.seq.Load()
	c.HiWater = s.eng.unimplied()
	s.mu.RUnlock()

	slices.SortFunc(entries, func(a, b touch) int { return strings.Compare(string(a.id), string(b.id)) })
	data := append(make([]byte, 0, size), '{')
	for i, t := range entries {
		if i > 0 {
			data = append(data, ',')
		}
		if PlainString(string(t.id)) {
			data = append(append(append(data, '"'), t.id...), '"')
		} else {
			data, _ = appendPatchValue(data, string(t.id)) // as encoding/json quotes it
		}
		data = append(append(data, ':'), t.e.raw...)
	}
	c.Resources = append(data, '}')
	return c, nil
}

// Export serializes the whole tree (resources only; collections are
// declared by the service) to indented JSON keyed by URI: the Cut
// document, laid out for people (ofmfctl dump).
func (s *Store) Export() ([]byte, error) {
	c, err := s.Cut()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := json.Indent(&out, c.Resources, "", "  "); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// Import loads a document produced by Export or Cut (its Resources),
// replacing any entries at the same ids: a fold of the document alone (see Replay), so
// the children index, collection caches and NextID high-water marks are
// rebuilt exactly as live mutations would have built them (recovery
// depends on this; import_test.go pins each piece), and the changes
// it emits are marked Replayed, in ascending id order. The whole
// document is checked first: one that does not parse changes nothing.
func (s *Store) Import(data []byte) error {
	r := s.Replay()
	err := r.Import(data)
	r.Finish()
	return err
}

// ValidDocument reports whether data is valid JSON, as json.Valid does,
// at the cost of one walk for the document Cut writes: that walk, the
// one Import reads it by, vouches for the document without collecting
// its entries, and json.Valid decides whatever it declines.
func ValidDocument(data []byte) bool {
	return walkExport(data, nil) || json.Valid(data)
}

// scanExport splits the document Cut writes into its entries, each
// payload verified canonical as its end is found, and aliasing data. It
// reports false for anything else — whitespace, escaped or unordered
// keys, a payload scanCanonical does not vouch for — and encoding/json
// then decides (decodeExport, decodeMember).
func scanExport(data []byte) ([]exportEntry, bool) {
	var entries []exportEntry
	if !walkExport(data, &entries) {
		return nil, false
	}
	return entries, true
}

// walkExport is scanExport's walk. It appends the entries to *dst, or,
// with dst nil, only checks the document and allocates nothing.
func walkExport(data []byte, dst *[]exportEntry) bool {
	if len(data) < 2 || data[0] != '{' {
		return false
	}
	if len(data) == 2 {
		return data[1] == '}'
	}
	var prev []byte // the last key, ids ascending
	for i := 1; ; {
		if i >= len(data) || data[i] != '"' {
			return false
		}
		n := bytes.IndexByte(data[i+1:], '"')
		if n < 0 || !PlainString(data[i+1:i+1+n]) {
			return false
		}
		key := data[i+1 : i+1+n]
		if prev != nil && string(key) <= string(prev) {
			return false
		}
		prev = key
		if i += n + 2; i >= len(data) || data[i] != ':' {
			return false
		}
		end, ok := scanCanonical(data, i+1)
		if !ok || end >= len(data) {
			return false
		}
		if dst != nil {
			*dst = append(*dst, exportEntry{odata.ID(key), data[i+1 : end : end]})
		}
		switch data[end] {
		case ',':
			i = end + 1
		case '}':
			return end+1 == len(data)
		default:
			return false
		}
	}
}

// decodeExport is the encoding/json reading of an export document: any
// layout, any key escaping, the last of duplicate keys. Its payloads are
// copies, not yet canonical.
func decodeExport(data []byte) ([]exportEntry, error) {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	return sortedEntries(doc), nil
}

// decodeMember is decodeExport of a document that is a member of an
// envelope, as an agent push's Resources is, read
// the way encoding/json reads it there: nesting counts from the
// envelope, so a document one level short of encoding/json's depth
// limit on its own is refused, as its envelope would be.
func decodeMember(data []byte) ([]exportEntry, error) {
	var docs []map[string]json.RawMessage
	if err := json.Unmarshal(slices.Concat([]byte("["), data, []byte("]")), &docs); err != nil {
		return nil, err
	}
	if len(docs) != 1 {
		return nil, errors.New("not one JSON value")
	}
	return sortedEntries(docs[0]), nil
}

func sortedEntries(doc map[string]json.RawMessage) []exportEntry {
	entries := make([]exportEntry, 0, len(doc))
	for uri, raw := range doc {
		entries = append(entries, exportEntry{odata.ID(uri), raw})
	}
	slices.SortFunc(entries, byID)
	return entries
}
