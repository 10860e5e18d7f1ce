package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"ofmf/internal/odata"
)

// Replay folds history into the tree: the WAL tail a boot reads, the
// snapshot under it, one record from a leader's stream. Every record is
// checked where it sits, as Add describes, but each id's state is
// installed once, when Finish runs: it is linked into or out of the
// children index, its collection is invalidated and its change is
// announced once, however many records came before its last. Nothing is
// hashed: an installed entry's entity tag waits for its first reader. A
// put a later record supersedes costs the copy of its bytes and nothing
// else.
//
// What the fold leaves equals what applying the records one at a time
// would: the same entries and entity tags, the same children index and
// collection members, and the same NextID high-water marks, which every
// replayed put advances even when a later delete supersedes it (ids are
// not reused after deletion). Watchers receive one Replayed change per
// id whose final state differs from its state before the fold — Added,
// Updated or Removed — in the commit order of that id's last record. An
// id that ends with the bytes it had keeps its entry and entity tag and
// is not announced.
//
// Store.Replay takes the store's write lock and Finish releases it, so
// no reader sees a state between the two. Call Add, Import and HiWater
// on the goroutine that called Store.Replay, touch the store in no other
// way until Finish, and always call Finish, after an error too: the
// records added before it stay, as they did when replay was record by
// record.
type Replay struct {
	s *Store
	// order holds every record that changed a pending entry, in commit
	// order; Finish reads it backwards, so the first time it meets an
	// entry is at that id's last record.
	order []touch
	// olds holds the entries the fold displaced, those the tree held
	// before it, in the order the fold first touched them.
	olds []touch
}

// touch is an id and an entry of it: in a fold, the pending one a
// record changed, or the one a pending entry displaced; in a Cut, the
// one the tree holds.
type touch struct {
	id odata.ID
	e  *entry
}

// While a fold runs, the entries it has touched are pending: installed
// in the entry map, which no reader can see until Finish, with raw nil
// for a deleted id. Their tag pointer holds one of the marks below
// instead of an entity tag, and says where the entry is:
// pendingTag for one of an id the tree did not hold, displacedTag for
// one whose old entry is in olds. Finish's walk back marks each with the
// change it makes (addedTag, updatedTag, removedTag), or with goneTag
// when it leaves the map unannounced, and then clears the tag of the
// ones that stay, for their first reader to hash. A mark is told by its
// address, never by the string it points to.
var (
	pendingTag   = new(string)
	displacedTag = new(string)
	addedTag     = new(string)
	updatedTag   = new(string)
	removedTag   = new(string)
	goneTag      = new(string)
)

func (e *entry) pending() bool {
	t := e.tag.Load()
	return t == pendingTag || t == displacedTag
}

// Replay begins a fold of history into the tree; see Replay.
func (s *Store) Replay() *Replay {
	s.lock()
	return &Replay{s: s}
}

// Apply replays one log record: the one-record fold, which a replica
// runs for every record its leader ships. A delete of an id that is
// already absent is not an error — the record merely re-asserts an
// absence the snapshot already reflects.
func (s *Store) Apply(rec Record) error {
	r := s.Replay()
	err := r.Add(rec)
	r.Finish()
	return err
}

// Add folds one log record in. A put DecodeRecord verified is copied as
// it is; any other is canonicalized as Put would, and an error doing so
// (or an unknown op) is returned for this record, with the fold as it
// was before it.
func (r *Replay) Add(rec Record) error {
	switch rec.Op {
	case OpPut:
		r.s.countOp("put")
		if rec.verified {
			r.put(rec.ID, rec.Raw, false)
			return nil
		}
		raw, err := canonicalize(rec.Raw)
		if err != nil {
			return err
		}
		r.put(rec.ID, raw, true)
		return nil
	case OpDelete:
		r.s.countOp("delete")
		r.delete(rec.ID)
		return nil
	default:
		return fmt.Errorf("store: apply: unknown record op %q", rec.Op)
	}
}

// Import folds in a document Export or Cut (its Resources) produced,
// replacing any entries at the same ids. The whole document is checked
// first: one that does not parse, or names a relative URI, changes
// nothing. A payload that leaves its entry as it was is not copied.
func (r *Replay) Import(data []byte) error {
	entries, verified := scanExport(data)
	if !verified {
		var err error
		if entries, err = decodeExport(data); err != nil {
			return fmt.Errorf("store: import: %w", err)
		}
	}
	for i, e := range entries {
		if !strings.HasPrefix(string(e.id), "/") {
			return fmt.Errorf("store: import: non-absolute uri %q", e.id)
		}
		if !verified {
			raw, err := canonicalize(e.raw)
			if err != nil {
				return fmt.Errorf("store: import %s: %w", e.id, err)
			}
			entries[i].raw = raw
		}
	}
	for _, e := range entries {
		r.s.countOp("put")
		r.put(e.id, e.raw, !verified)
	}
	return nil
}

// HiWater raises the NextID high-water marks to at least marks, those a
// snapshot carries beside its resources (see Cut).
func (r *Replay) HiWater(marks map[odata.ID]int) {
	for parent, n := range marks {
		if n > r.s.eng.hiwater[parent] {
			r.s.eng.hiwater[parent] = n
		}
	}
}

// put folds in raw at id; owned says raw is the tree's to keep, else it
// is copied.
func (r *Replay) put(id odata.ID, raw json.RawMessage, owned bool) {
	e := &r.s.eng
	cur := e.entries[id]
	switch {
	case cur == nil:
		cur = r.pend(id, nil)
	case !cur.pending():
		if bytes.Equal(cur.raw, raw) {
			return // what the tree holds already
		}
		cur = r.pend(id, cur)
	}
	if !owned {
		raw = bytes.Clone(raw)
	}
	cur.raw = raw
	r.order = append(r.order, touch{id, cur})
}

// delete folds in the deletion of id.
func (r *Replay) delete(id odata.ID) {
	cur := r.s.eng.entries[id]
	switch {
	case cur == nil:
		return // absent before the fold and since
	case !cur.pending():
		cur = r.pend(id, cur)
	}
	cur.raw = nil
	r.order = append(r.order, touch{id, cur})
}

// pend installs a pending entry at id in place of old, which may be nil.
func (r *Replay) pend(id odata.ID, old *entry) *entry {
	p, mark := &entry{}, pendingTag
	if old != nil {
		r.olds = append(r.olds, touch{id, old})
		mark = displacedTag
	}
	p.tag.Store(mark)
	r.s.eng.entries[id] = p
	return p
}

// Finish installs each folded id's final state, releases the store's
// lock and announces the changes. It returns how many ids the fold
// changed: one Replayed change each.
func (r *Replay) Finish() int {
	s, e := r.s, &r.s.eng
	var live int64 // what the fold adds to the live payload bytes
	for _, d := range r.olds {
		if cur := e.entries[d.id]; cur.raw != nil && bytes.Equal(cur.raw, d.e.raw) {
			cur.tag.Store(goneTag)
			e.entries[d.id] = d.e // back where it started: entity tag and all
			continue
		}
		live -= int64(len(d.e.raw))
	}
	// Walk back: the first time the walk meets a pending entry is at its
	// id's last record. The ids whose state moved gather at the tail of
	// order, in commit order.
	w := len(r.order)
	for i := len(r.order) - 1; i >= 0; i-- {
		t := r.order[i]
		if !t.e.pending() {
			continue // finished at a later record, or restored
		}
		was := t.e.tag.Load() == displacedTag
		switch {
		case t.e.raw != nil && was:
			t.e.tag.Store(updatedTag)
		case t.e.raw != nil:
			t.e.tag.Store(addedTag)
		case was:
			t.e.tag.Store(removedTag)
			delete(e.entries, t.id)
		default:
			t.e.tag.Store(goneTag)
			delete(e.entries, t.id)
			e.raise(t.id) // never linked, yet a put spent the id
			continue
		}
		w--
		r.order[w] = t
	}
	// The entry map is final, so the index can follow it: unlink prunes
	// a path node only once nothing stored is left at or under it.
	changed := r.order[w:]
	kinds := make([]ChangeKind, len(changed))
	for i, t := range changed {
		switch t.e.tag.Load() {
		case addedTag:
			kinds[i] = Added
			e.link(t.id)
			e.invalidateCollection(t.id.Parent())
		case updatedTag:
			kinds[i] = Updated
		case removedTag:
			kinds[i] = Removed
			e.unlink(t.id)
			e.invalidateCollection(t.id.Parent())
		}
		if t.e.raw != nil {
			t.e.tag.Store(nil) // hashed by its first reader
			live += int64(len(t.e.raw))
		}
	}
	e.live.Add(live)
	seq := s.mutSeq.Add(uint64(len(changed))) - uint64(len(changed))
	r.order, r.olds = nil, nil
	s.mu.Unlock()
	ws := s.watching()
	for i, t := range changed {
		c := Change{Kind: kinds[i], ID: t.id, Seq: seq + uint64(i) + 1, Ctx: context.Background(), Replayed: true}
		for _, w := range ws {
			w(c)
		}
	}
	return len(changed)
}
