package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"ofmf/internal/odata"
)

// This file is the tree as one document, out and in: {"uri":payload,…},
// keys ascending. Stored payloads are canonical bytes (see canonicalize),
// so writing the document is concatenation and reading it back is one
// walk that checks each payload is still canonical and copies it into
// the tree; encoding/json only sees a document that walk does not
// recognise.

// exportEntry is one resource of the document.
type exportEntry struct {
	id  odata.ID
	raw json.RawMessage
}

func byID(a, b exportEntry) int { return strings.Compare(string(a.id), string(b.id)) }

// Snapshot returns a consistent export of the tree — compact, keyed by
// URI in ascending order — together with the commit sequence number of
// the last mutation it contains. Because mutations hold the write lock
// while sequence numbers are assigned and records are handed to the
// backend, holding the read lock makes the pair an exact cut of the log:
// every record with Seq <= seq is reflected in the export, none with
// Seq > seq is. The lock is held only while the entries are listed — a
// stored payload is never modified, only replaced, so the document is
// put together after writers are let back in. The persistence layer
// builds its compacted snapshots from it.
func (s *Store) Snapshot() (data []byte, seq uint64, err error) {
	s.mu.RLock()
	entries := make([]exportEntry, 0, len(s.eng.entries))
	size := 2
	for id, e := range s.eng.entries {
		entries = append(entries, exportEntry{id, e.raw})
		size += len(id) + len(e.raw) + len(`"":,`)
	}
	seq = s.seq.Load()
	s.mu.RUnlock()

	slices.SortFunc(entries, byID)
	data = append(make([]byte, 0, size), '{')
	for i, e := range entries {
		if i > 0 {
			data = append(data, ',')
		}
		if plainString(string(e.id)) {
			data = append(append(append(data, '"'), e.id...), '"')
		} else {
			data, _ = appendPatchValue(data, string(e.id)) // as encoding/json quotes it
		}
		data = append(append(data, ':'), e.raw...)
	}
	return append(data, '}'), seq, nil
}

// Export serializes the whole tree (resources only; collections are
// declared by the service) to indented JSON keyed by URI: the Snapshot
// document, laid out for people (ofmfctl dump).
func (s *Store) Export() ([]byte, error) {
	data, _, err := s.Snapshot()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := json.Indent(&out, data, "", "  "); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// Import loads a document produced by Snapshot or Export, replacing any
// entries at the same ids, in ascending id order (deterministic order
// keeps replayed logs byte-stable across boots). Each resource goes in
// the way a Put does, so the children index, collection caches, and
// NextID high-water marks are rebuilt exactly as live mutations would
// have built them (recovery depends on this; see
// TestImportRebuildsDerivedState), and the changes it emits are marked
// Replayed. The whole document is checked first: one that does not parse
// changes nothing.
func (s *Store) Import(data []byte) error {
	entries, ok := scanExport(data)
	if !ok {
		var err error
		if entries, err = decodeExport(data); err != nil {
			return err
		}
	}
	for _, e := range entries {
		if !strings.HasPrefix(string(e.id), "/") {
			return fmt.Errorf("store: import: non-absolute uri %q", e.id)
		}
	}
	for _, e := range entries {
		if err := s.putRaw(context.Background(), e.id, e.raw, true); err != nil {
			return fmt.Errorf("store: import %s: %w", e.id, err)
		}
	}
	return nil
}

// scanExport splits the document Snapshot writes into entries the tree
// can keep (each payload verified canonical and copied out of data). It
// reports false for anything else — whitespace, escaped or unordered
// keys, a payload scanCanonical does not vouch for — and decodeExport
// then decides.
func scanExport(data []byte) ([]exportEntry, bool) {
	if len(data) < 2 || data[0] != '{' {
		return nil, false
	}
	if len(data) == 2 {
		return nil, data[1] == '}'
	}
	var entries []exportEntry
	for i := 1; ; {
		if i >= len(data) || data[i] != '"' {
			return nil, false
		}
		n := bytes.IndexByte(data[i+1:], '"')
		if n < 0 || !plainString(data[i+1:i+1+n]) {
			return nil, false
		}
		id := odata.ID(data[i+1 : i+1+n])
		if len(entries) > 0 && id <= entries[len(entries)-1].id {
			return nil, false
		}
		if i += n + 2; i >= len(data) || data[i] != ':' {
			return nil, false
		}
		end, ok := scanCanonical(data, i+1)
		if !ok || end >= len(data) {
			return nil, false
		}
		entries = append(entries, exportEntry{id, bytes.Clone(data[i+1 : end])})
		switch data[end] {
		case ',':
			i = end + 1
		case '}':
			return entries, end+1 == len(data)
		default:
			return nil, false
		}
	}
}

// decodeExport is the encoding/json reading of an export document: any
// layout, any key escaping, payloads canonicalized one by one.
func decodeExport(data []byte) ([]exportEntry, error) {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("store: import: %w", err)
	}
	entries := make([]exportEntry, 0, len(doc))
	for uri, v := range doc {
		raw, err := canonicalize(v)
		if err != nil {
			return nil, fmt.Errorf("store: import %s: %w", uri, err)
		}
		entries = append(entries, exportEntry{odata.ID(uri), raw})
	}
	slices.SortFunc(entries, byID)
	return entries, nil
}
