package store

import (
	"bytes"
	"encoding/json"
	"sort"
	"strconv"
	"sync/atomic"

	"ofmf/internal/odata"
)

// entry is one stored resource: its canonical bytes and, once a reader
// has asked for it, their entity tag. tag is nil until then. The first
// reader hashes raw and stores the tag, holding the store's lock (the
// read lock will do); readers that race there compute the same tag, so
// whichever store lands is right. While a fold runs, tag also holds
// the fold's marks (see Replay), which no reader sees: the fold holds
// the write lock.
type entry struct {
	raw json.RawMessage
	tag atomic.Pointer[string]
}

// etag returns the entry's entity tag, odata.EtagRaw(raw), hashing it on
// the first call. Callers hold the store's lock.
func (e *entry) etag() string {
	if t := e.tag.Load(); t != nil {
		return *t
	}
	t := odata.EtagRaw(e.raw)
	e.tag.Store(&t)
	return t
}

type collectionMeta struct {
	odataType string
	name      string
}

// collCache is the memoized rendering of one registered collection: its
// sorted member list, the serialized payload bytes, and the payload's
// entity tag. A cache value is immutable once published — invalidation
// replaces the map entry, never mutates it — so readers may use a value
// after the store's lock is released.
type collCache struct {
	members []odata.ID
	payload []byte
	etag    string
}

// engine is the pure in-memory resource tree: the entry map, the
// parent→children path index, registered collections with their memoized
// renderings, and the per-collection numeric high-water marks. It knows
// nothing about locking, watchers, metrics, or durability — the Store
// owns all of those and calls in while holding its lock. Keeping the
// engine free of cross-cutting concerns is what lets the persistence
// layer replay a log through exactly the code paths live mutations take.
type engine struct {
	entries     map[odata.ID]*entry
	collections map[odata.ID]collectionMeta
	children    map[odata.ID]map[odata.ID]struct{}
	collCache   map[odata.ID]*collCache
	// hiwater tracks, per parent, the largest numeric child name ever
	// linked, making NextID O(1) amortized. It never decreases, so ids
	// are not reused after deletion (which also prevents a deleted
	// resource's URI from aliasing a new one).
	hiwater map[odata.ID]int
	// live is the sum of the stored payloads' lengths. It changes only
	// under the store's write lock (set, remove, Replay.Finish) and is
	// read without it: the durability layer paces compaction by it.
	live atomic.Int64
}

func newEngine() engine {
	return engine{
		entries:     make(map[odata.ID]*entry),
		collections: make(map[odata.ID]collectionMeta),
		children:    make(map[odata.ID]map[odata.ID]struct{}),
		collCache:   make(map[odata.ID]*collCache),
		hiwater:     make(map[odata.ID]int),
	}
}

// put installs raw at id, creating or replacing the entry, and reports
// the change kind and whether anything actually changed. Rewriting
// identical content is a no-op (the existing entry, and its entity tag
// if a reader has asked for it, are kept).
func (e *engine) put(id odata.ID, raw json.RawMessage) (ChangeKind, bool) {
	if old := e.entries[id]; old != nil && bytes.Equal(old.raw, raw) {
		return Updated, false
	}
	return e.set(id, raw), true
}

// set installs raw at id as a new entry, whatever the id held before.
// The entry's entity tag waits for its first reader.
func (e *engine) set(id odata.ID, raw json.RawMessage) ChangeKind {
	old, existed := e.entries[id]
	e.entries[id] = &entry{raw: raw}
	e.link(id)
	if existed {
		e.live.Add(int64(len(raw) - len(old.raw)))
		return Updated
	}
	e.live.Add(int64(len(raw)))
	e.invalidateCollection(id.Parent())
	return Added
}

// remove deletes the entry at id, unlinking it from the path index and
// invalidating the parent collection. It reports whether an entry
// existed.
func (e *engine) remove(id odata.ID) bool {
	old, ok := e.entries[id]
	if !ok {
		return false
	}
	e.live.Add(-int64(len(old.raw)))
	delete(e.entries, id)
	e.unlink(id)
	e.invalidateCollection(id.Parent())
	return true
}

// link records id under every ancestor so the children index forms a
// complete path tree: subtree walks reach every stored entry from any
// prefix. It also advances the parent's numeric high-water mark.
func (e *engine) link(id odata.ID) {
	for id != "/" && id != "" {
		parent := id.Parent()
		kids, ok := e.children[parent]
		if !ok {
			kids = make(map[odata.ID]struct{})
			e.children[parent] = kids
		}
		if _, ok := kids[id]; ok {
			// Already linked; ancestors must be linked too.
			return
		}
		kids[id] = struct{}{}
		e.mark(parent, id.Leaf())
		id = parent
	}
}

// raise advances the high-water marks exactly as linking id would,
// without linking it: a replayed put that a later record of the same
// replay deletes is never linked, yet the id it named is spent.
func (e *engine) raise(id odata.ID) {
	for id != "/" && id != "" {
		parent := id.Parent()
		e.mark(parent, id.Leaf())
		id = parent
	}
}

// mark advances parent's high-water mark past leaf, if numeric.
func (e *engine) mark(parent odata.ID, leaf string) {
	if leaf != "" && leaf[0] >= '0' && leaf[0] <= '9' {
		if n, err := strconv.Atoi(leaf); err == nil && n > e.hiwater[parent] {
			e.hiwater[parent] = n
		}
	}
}

// unimplied returns the high-water marks the children index does not
// imply: those of parents whose highest numeric child was deleted. A tree
// rebuilt from the entries alone derives every other mark itself (see
// link), so these are what a snapshot must carry for NextID to go on
// where it left off. It returns nil when there are none.
func (e *engine) unimplied() map[odata.ID]int {
	var out map[odata.ID]int
	for parent, n := range e.hiwater {
		if _, ok := e.children[parent][parent.Append(strconv.Itoa(n))]; ok {
			continue
		}
		if out == nil {
			out = make(map[odata.ID]int)
		}
		out[parent] = n
	}
	return out
}

// unlink removes id from its parent's child set, then prunes newly empty
// interior path nodes up the ancestor chain. A node survives while it is
// itself a stored entry or still has descendants.
func (e *engine) unlink(id odata.ID) {
	for id != "/" && id != "" {
		if _, isEntry := e.entries[id]; isEntry {
			return
		}
		if len(e.children[id]) > 0 {
			return
		}
		parent := id.Parent()
		kids, ok := e.children[parent]
		if !ok {
			return
		}
		delete(kids, id)
		if len(kids) == 0 {
			delete(e.children, parent)
		}
		id = parent
	}
}

// invalidateCollection drops the memoized payload of the collection at id
// (if any) after a membership change. Callers hold the store's write
// lock, so a reader can never observe a cache inconsistent with the
// entry map.
func (e *engine) invalidateCollection(id odata.ID) {
	if len(e.collCache) != 0 {
		delete(e.collCache, id)
	}
}

// descendants appends to out every stored entry id equal to or under
// prefix, walking only the prefix's subtree via the children index.
func (e *engine) descendants(prefix odata.ID, out []odata.ID) []odata.ID {
	if _, ok := e.entries[prefix]; ok {
		out = append(out, prefix)
	}
	for kid := range e.children[prefix] {
		out = e.descendants(kid, out)
	}
	return out
}

// members returns the sorted direct members of the collection at id.
func (e *engine) members(id odata.ID) []odata.ID {
	kids := e.children[id]
	members := make([]odata.ID, 0, len(kids))
	for k := range kids {
		if _, ok := e.entries[k]; ok {
			members = append(members, k)
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	return members
}

// nextID returns the next unused positive integer name for a direct
// child of the collection. Allocation is monotonic from the high-water
// mark, so released names are never reused.
func (e *engine) nextID(collection odata.ID) string {
	kids := e.children[collection]
	for i := e.hiwater[collection] + 1; ; i++ {
		name := strconv.Itoa(i)
		if _, ok := kids[collection.Append(name)]; !ok {
			return name
		}
	}
}
