// Package store implements the OFMF's central resource repository: a
// concurrent, URI-keyed tree of Redfish resources with collections, entity
// tags, deep-merge PATCH semantics, subtree aggregation for Agents, change
// notification hooks, and JSON import/export.
//
// Resources are stored as canonical JSON so the repository is agnostic to
// the Go schema types; handlers and agents exchange typed structs which
// are marshaled at the boundary.
//
// The package is layered: engine.go holds the pure in-memory engine
// (entry map, children index, collection cache, ETags); this file owns
// locking, change notification, and the public API; record.go defines
// the mutation-log seam — every committed mutation reduces to canonical
// put/delete Records stamped with a global commit sequence and handed to
// an optional Backend. With no backend attached (the zero-config
// default) the seam costs one nil check per mutation and nothing on
// reads. The file-based write-ahead-log backend lives in the
// store/persist subpackage. replay.go is the way back in: boot recovery,
// snapshot import and a replica's stream fold history into the tree,
// installing each id's final state once.
//
// One lock domain: the tree sits behind one read-write lock. A mutation
// — one resource or a whole restore at the service root — applies, is
// stamped and is handed to the backend under the write lock, so readers
// observe all of it or none of it and the log is the commit order
// (DESIGN §8 records why the lock is not split).
package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ofmf/internal/obsv"
	"ofmf/internal/odata"
)

// Sentinel errors returned by store operations.
var (
	ErrNotFound      = errors.New("store: resource not found")
	ErrExists        = errors.New("store: resource already exists")
	ErrNotCollection = errors.New("store: not a collection")
	ErrEtagMismatch  = errors.New("store: etag mismatch")
	ErrBadPayload    = errors.New("store: payload not a JSON object")
	ErrBadDocument   = errors.New("store: resources document does not parse")
)

// ChangeKind identifies the kind of mutation a change event describes.
type ChangeKind int

// Change kinds.
const (
	Added ChangeKind = iota
	Updated
	Removed
)

// String returns the change kind's Redfish event type name.
func (k ChangeKind) String() string {
	switch k {
	case Added:
		return "ResourceAdded"
	case Updated:
		return "ResourceUpdated"
	case Removed:
		return "ResourceRemoved"
	default:
		return fmt.Sprintf("ChangeKind(%d)", int(k))
	}
}

// Change describes one mutation of the tree. Ctx is the request
// context the mutation was performed under (context.Background() for
// mutations with no originating request); watchers that fan the change
// out over further HTTP edges use it to keep event delivery in the
// originating trace. Watchers must not use Ctx for cancellation — it
// may already be done by the time an asynchronous consumer runs.
//
// Seq is the store's mutation sequence number, assigned while the
// store's write lock is held. Unlike the WAL commit sequence it
// always advances, backend or not. Because notification runs after the
// lock is released, two watchers can observe changes to the same URI in
// either order — but their Seq values always reflect commit order, so a
// watcher keeping derived per-URI state could discard the stale one.
// Projection needs no such gate: it re-reads the member instead.
//
// Commit is the WAL commit sequence of the record that logged the
// change. It is 0 when no backend logged the change, and on a Replayed
// change.
// Unlike Seq it survives a restart and is the same on a leader and its
// replicas; the service uses it as the EventId.
//
// Replayed marks a change that re-states history rather than making it:
// a WAL record or snapshot entry applied at recovery, a leader's record
// applied on a replica. Watchers that keep derived state need these like
// any other change; watchers that announce changes to the outside (the
// service's event publisher) skip them — a restart is not 27 000
// resource events.
type Change struct {
	Kind     ChangeKind
	ID       odata.ID
	Seq      uint64
	Commit   uint64
	Ctx      context.Context
	Replayed bool
}

// Watcher receives change notifications. Watchers are invoked synchronously
// after the store's lock is released; implementations that do slow work
// must enqueue internally.
type Watcher func(Change)

// Store is a concurrent Redfish resource tree: one engine behind one
// read-write lock, plus the optional durability backend every committed
// mutation is logged to.
type Store struct {
	// mu guards eng and backend. Write-lock it through lock(), which
	// reports the wait to the observer.
	mu  sync.RWMutex
	eng engine

	// seq is the global commit sequence number of the last mutation
	// record handed to the backend. It is assigned under mu's write
	// lock, so the backend's log is gap-free and Seq-ascending. It
	// advances only while a backend is attached.
	seq atomic.Uint64

	// mutSeq numbers every committed mutation for change notification
	// (see Change.Seq). Assigned under the write lock like seq, but
	// independent of it: mutSeq advances with no backend attached and is
	// not persisted.
	mutSeq atomic.Uint64

	// epoch is the replication leadership term stamped into committed
	// records (see SetEpoch); 0 when the store is not replicated.
	epoch atomic.Uint64

	// backend is written under the write lock (AttachBackend/Close) and
	// read under it by every mutation.
	backend Backend

	watchMu  sync.RWMutex
	watchers []Watcher

	// observer is atomic so hot read paths never contend on a lock for
	// it.
	observer atomic.Pointer[Observer]
}

// Observer is what the store reports about itself; any field may be
// nil. Op receives one operation by kind: "get", "view", "etag", "put",
// "put_subtree", "create", "patch", "delete", "delete_subtree",
// "members", "collection" (cache miss, payload built) or
// "collection_cached" (served from the memoized payload). LockWait
// receives the time one write-lock acquisition spent waiting — the
// store's contention number; the read path is not timed, which would put
// a clock read on the zero-alloc GET path. Both must be fast and must
// not call back into the store. Tracer records mutation spans, which
// only start when the mutation's context already carries a trace (see
// Tracer.StartIfTraced), so recovery replay and background writes never
// mint orphan traces.
type Observer struct {
	Op       func(op string)
	LockWait func(wait time.Duration)
	Tracer   *obsv.Tracer
}

// OpNames lists every op string Observer.Op can receive, so observers
// can pre-resolve per-op state (label sets, counters) instead of
// allocating on the hot path.
var OpNames = []string{
	"get", "view", "etag", "put", "put_subtree", "create", "patch",
	"delete", "delete_subtree", "members", "collection", "collection_cached",
}

// SetObserver installs the observer, replacing any previous one; nil
// removes it.
func (s *Store) SetObserver(o *Observer) { s.observer.Store(o) }

// traceStart opens a mutation span when ctx belongs to a trace and a
// tracer is installed; it returns nil (a no-op span) otherwise.
func (s *Store) traceStart(ctx context.Context, name string) *obsv.Span {
	o := s.observer.Load()
	if o == nil || o.Tracer == nil {
		return nil
	}
	_, sp := o.Tracer.StartIfTraced(ctx, name)
	return sp
}

func (s *Store) countOp(op string) {
	if o := s.observer.Load(); o != nil && o.Op != nil {
		o.Op(op)
	}
}

// lock takes the write lock, reporting the wait to the observer. Every
// write-lock acquisition goes through it, so Observer.LockWait sees all
// of the store's writer contention.
func (s *Store) lock() {
	if o := s.observer.Load(); o != nil && o.LockWait != nil {
		start := time.Now()
		s.mu.Lock()
		o.LockWait(time.Since(start))
		return
	}
	s.mu.Lock()
}

// New creates an empty store with no backend: purely in-memory.
func New() *Store {
	return &Store{eng: newEngine()}
}

// Watch registers a change watcher. All subsequent mutations are reported.
func (s *Store) Watch(w Watcher) {
	s.watchMu.Lock()
	s.watchers = append(s.watchers, w)
	s.watchMu.Unlock()
}

// Projection returns the watcher that keeps a projection of coll's
// members current: it is the one way derived state follows the tree.
// For every change to a direct member of coll — live, replayed at
// recovery or applied from a leader — it takes mu, reads the member's
// current bytes (nil once it is gone) and hands them to apply. It
// neither gates on Change.Seq nor remembers deleted members:
// notifications for one member may arrive out of order, but each reads,
// under mu, a state at least as new as its own change, so whichever
// takes mu last applies the final state.
//
// apply gets the stored bytes themselves, not a copy: the store
// replaces a payload, never modifies it, so apply may keep them but must
// not modify them. It runs after the store's read lock is released, so
// it may read the store again: a nested read lock would deadlock behind
// a queued writer.
func (s *Store) Projection(coll odata.ID, mu sync.Locker, apply func(id odata.ID, raw json.RawMessage)) Watcher {
	return s.Projector(mu, func(c odata.ID) func(odata.ID, json.RawMessage) {
		if c == coll {
			return apply
		}
		return nil
	})
}

// Projector is Projection over any number of collections: route names
// the apply of the collection a change's id is a direct member of (nil:
// none). It runs on every change, before mu is taken, so it must be
// cheap and must not block.
func (s *Store) Projector(mu sync.Locker, route func(coll odata.ID) func(id odata.ID, raw json.RawMessage)) Watcher {
	return func(c Change) {
		i := strings.LastIndexByte(string(c.ID), '/')
		apply := route(c.ID[:max(i, 0)])
		if apply == nil || i == len(c.ID)-1 {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		var raw json.RawMessage
		s.mu.RLock()
		if e := s.eng.entries[c.ID]; e != nil {
			raw = e.raw
		}
		s.mu.RUnlock()
		apply(c.ID, raw)
	}
}

// Seed hands apply every direct member of coll with its stored bytes, as
// a projection's watcher would on a change to each: a projection that
// starts after they were stored begins from them. The caller holds mu.
func (s *Store) Seed(coll odata.ID, apply func(id odata.ID, raw json.RawMessage)) {
	s.mu.RLock()
	ids := s.eng.members(coll)
	raws := make([]json.RawMessage, len(ids))
	for i, id := range ids {
		raws[i] = s.eng.entries[id].raw
	}
	s.mu.RUnlock()
	for i, id := range ids {
		apply(id, raws[i])
	}
}

// watching returns the registered watchers.
func (s *Store) watching() []Watcher {
	s.watchMu.RLock()
	defer s.watchMu.RUnlock()
	return s.watchers
}

func (s *Store) notify(changes ...Change) {
	ws := s.watching()
	for _, c := range changes {
		for _, w := range ws {
			w(c)
		}
	}
}

// canonicalize is the one way payload bytes enter the tree: Put,
// PutSubtree, Patch and Replay.Add of an unverified record call it.
// Readers that check the same thing as they parse skip it: Import and
// PutSubtreeDoc (see scanExport), and Replay.Add of a record
// DecodeRecord verified (see Record). The invariant readers rely on follows:
// every stored payload is the output of json.Marshal — compact,
// HTML-escaped, valid — and therefore a fixed point of it (marshalling a
// stored payload as a json.RawMessage yields the same bytes). The
// service's $expand splices stored payloads into its reply unencoded on
// that ground; TestStoredPayloadsAreCanonical pins it.
//
// Raw bytes that already are that fixed point (see IsCanonical) — what a
// WAL record, a snapshot, a leader's stream or an agent's push normally
// carries — are copied, never aliased; anything else is marshalled.
func canonicalize(v any) (json.RawMessage, error) {
	if raw, ok := v.(json.RawMessage); ok && IsCanonical(raw) {
		return bytes.Clone(raw), nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("store: marshal: %w", err)
	}
	if len(b) == 0 || b[0] != '{' {
		return nil, ErrBadPayload
	}
	return b, nil
}

// Put creates or replaces the resource at id with the JSON serialization of
// v, which must marshal to a JSON object. Rewriting identical content does
// not notify watchers (the existing entry, and its ETag, are kept).
func (s *Store) Put(id odata.ID, v any) error {
	return s.PutCtx(context.Background(), id, v)
}

// PutCtx is Put carrying the originating request context: when ctx
// belongs to a trace the mutation is recorded as a store.put span (with
// a wal.commit child for the durability wait), and the emitted Change
// carries ctx so downstream event delivery stays in the same trace.
// When ctx belongs to a unit of work (see Deferred) the mutation is
// applied and logged on return but its durability wait is the unit's.
func (s *Store) PutCtx(ctx context.Context, id odata.ID, v any) error {
	raw, err := canonicalize(v)
	if err != nil {
		return err
	}
	s.countOp("put")
	sp := s.traceStart(ctx, "store.put")
	s.lock()
	kind, changed := s.eng.put(id, raw)
	var wait func() error
	var cs, commit uint64
	if changed {
		cs = s.mutSeq.Add(1)
		batch := []Record{{Op: OpPut, ID: id, Raw: raw}}
		wait = s.commitLocked(batch)
		commit = batch[0].Seq
	}
	s.mu.Unlock()
	if !changed {
		sp.End()
		return nil
	}
	werr := settle(ctx, sp, wait)
	sp.EndErr(werr)
	s.notify(Change{Kind: kind, ID: id, Seq: cs, Commit: commit, Ctx: ctx})
	return werr
}

// Create stores v at id and fails with ErrExists if the id is taken.
func (s *Store) Create(id odata.ID, v any) error {
	return s.CreateCtx(context.Background(), id, v)
}

// CreateCtx is Create carrying the originating request context; see
// PutCtx for the tracing and change-attribution semantics.
func (s *Store) CreateCtx(ctx context.Context, id odata.ID, v any) error {
	s.countOp("create")
	sp := s.traceStart(ctx, "store.create")
	raw, err := canonicalize(v)
	if err != nil {
		sp.EndErr(err)
		return err
	}
	s.lock()
	if _, ok := s.eng.entries[id]; ok {
		s.mu.Unlock()
		err := fmt.Errorf("%w: %s", ErrExists, id)
		sp.EndErr(err)
		return err
	}
	s.eng.put(id, raw)
	cs := s.mutSeq.Add(1)
	batch := []Record{{Op: OpPut, ID: id, Raw: raw}}
	wait := s.commitLocked(batch)
	s.mu.Unlock()

	werr := settle(ctx, sp, wait)
	sp.EndErr(werr)
	s.notify(Change{Kind: Added, ID: id, Seq: cs, Commit: batch[0].Seq, Ctx: ctx})
	return werr
}

// Get returns a copy of the raw JSON and the entity tag of the resource at
// id. The returned slice is never aliased to store internals.
func (s *Store) Get(id odata.ID) (json.RawMessage, string, error) {
	s.countOp("get")
	s.mu.RLock()
	e, ok := s.eng.entries[id]
	var etag string
	if ok {
		etag = e.etag()
	}
	s.mu.RUnlock()
	if !ok {
		return nil, "", fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	out := make(json.RawMessage, len(e.raw))
	copy(out, e.raw)
	return out, etag, nil
}

// View invokes fn with the raw JSON of the resource at id without
// copying. fn runs under the store's read lock and must not
// retain or mutate the slice. It is the zero-copy alternative to Get
// for hot read paths (see BenchmarkAblationStoreRead).
func (s *Store) View(id odata.ID, fn func(raw json.RawMessage, etag string)) error {
	s.countOp("view")
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.eng.entries[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	fn(e.raw, e.etag())
	return nil
}

// ViewRaw is View for a reader that has no use for the entity tag, such
// as a splice of the payload into a larger reply: it never hashes.
func (s *Store) ViewRaw(id odata.ID, fn func(raw json.RawMessage)) error {
	s.countOp("view")
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.eng.entries[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	fn(e.raw)
	return nil
}

// GetAs decodes the resource at id into out. It decodes the stored
// bytes, which are never modified, only replaced, and does not hash
// them.
func (s *Store) GetAs(id odata.ID, out any) error {
	s.countOp("get")
	s.mu.RLock()
	e, ok := s.eng.entries[id]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return json.Unmarshal(e.raw, out)
}

// Etag returns the entity tag of the resource at id.
func (s *Store) Etag(id odata.ID) (string, error) {
	s.countOp("etag")
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.eng.entries[id]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return e.etag(), nil
}

// Exists reports whether a resource (not a collection) is stored at id.
func (s *Store) Exists(id odata.ID) bool {
	s.mu.RLock()
	_, ok := s.eng.entries[id]
	s.mu.RUnlock()
	return ok
}

// Patch deep-merges patch into the resource at id. Nested objects are
// merged recursively; arrays and scalars are replaced; explicit JSON nulls
// delete the member, per Redfish PATCH semantics. If ifMatch is non-empty
// it must equal the current entity tag.
//
// The mutation is logged as the put of its merged post-state, so replay
// needs no knowledge of merge semantics.
func (s *Store) Patch(id odata.ID, patch map[string]any, ifMatch string) error {
	return s.PatchCtx(context.Background(), id, patch, ifMatch)
}

// PatchCtx is Patch carrying the originating request context; see
// PutCtx for the tracing and change-attribution semantics.
func (s *Store) PatchCtx(ctx context.Context, id odata.ID, patch map[string]any, ifMatch string) error {
	_, _, err := s.PatchReturning(ctx, id, patch, ifMatch)
	return err
}

// PatchReturning is PatchCtx that also returns the resource as the patch
// left it — the stored bytes themselves, which the caller must not
// modify, and their entity tag — so a PATCH reply needs no second
// lookup. On a durability error the tree already holds the returned
// state (see Backend).
func (s *Store) PatchReturning(ctx context.Context, id odata.ID, patch map[string]any, ifMatch string) (json.RawMessage, string, error) {
	s.countOp("patch")
	sp := s.traceStart(ctx, "store.patch")
	s.lock()
	e, ok := s.eng.entries[id]
	if !ok {
		s.mu.Unlock()
		err := fmt.Errorf("%w: %s", ErrNotFound, id)
		sp.EndErr(err)
		return nil, "", err
	}
	if ifMatch != "" && ifMatch != e.etag() {
		s.mu.Unlock()
		err := fmt.Errorf("%w: %s", ErrEtagMismatch, id)
		sp.EndErr(err)
		return nil, "", err
	}
	// Merge on the stored bytes into a pooled buffer; a patch that
	// changes nothing ends here without having allocated.
	buf := mergeBufs.Get().(*[]byte)
	defer mergeBufs.Put(buf)
	merged, spliced := appendMerged((*buf)[:0], e.raw, patch)
	if spliced {
		*buf = merged
	} else {
		var err error
		if merged, err = mergeViaMap(id, e.raw, patch); err != nil {
			s.mu.Unlock()
			sp.EndErr(err)
			return nil, "", err
		}
	}
	if bytes.Equal(merged, e.raw) {
		etag := e.etag()
		s.mu.Unlock()
		sp.End()
		return e.raw, etag, nil
	}
	raw := json.RawMessage(merged)
	if spliced {
		raw = bytes.Clone(merged) // out of the pooled buffer, at its exact size
	}
	s.eng.put(id, raw)
	etag := s.eng.entries[id].etag() // the reply carries it: hashed now
	cs := s.mutSeq.Add(1)
	batch := []Record{{Op: OpPut, ID: id, Raw: raw}}
	wait := s.commitLocked(batch)
	s.mu.Unlock()

	werr := settle(ctx, sp, wait)
	sp.EndErr(werr)
	s.notify(Change{Kind: Updated, ID: id, Seq: cs, Commit: batch[0].Seq, Ctx: ctx})
	return raw, etag, werr
}

// Delete removes the resource at id.
func (s *Store) Delete(id odata.ID) error {
	return s.DeleteCtx(context.Background(), id)
}

// DeleteCtx is Delete carrying the originating request context; see
// PutCtx for the tracing and change-attribution semantics.
func (s *Store) DeleteCtx(ctx context.Context, id odata.ID) error {
	s.countOp("delete")
	sp := s.traceStart(ctx, "store.delete")
	s.lock()
	if !s.eng.remove(id) {
		s.mu.Unlock()
		err := fmt.Errorf("%w: %s", ErrNotFound, id)
		sp.EndErr(err)
		return err
	}
	cs := s.mutSeq.Add(1)
	batch := []Record{{Op: OpDelete, ID: id}}
	wait := s.commitLocked(batch)
	s.mu.Unlock()

	werr := settle(ctx, sp, wait)
	sp.EndErr(werr)
	s.notify(Change{Kind: Removed, ID: id, Seq: cs, Commit: batch[0].Seq, Ctx: ctx})
	return werr
}

// RegisterCollection declares a collection at id with the given
// @odata.type and display name. Collection payloads are synthesized from
// the direct children present in the store and memoized until the
// membership changes. Registrations are service configuration, not tree
// state: they are not logged or exported, and the service re-declares
// them at every boot before recovery runs.
func (s *Store) RegisterCollection(id odata.ID, odataType, name string) {
	s.lock()
	s.eng.collections[id] = collectionMeta{odataType: odataType, name: name}
	s.eng.invalidateCollection(id)
	s.mu.Unlock()
}

// IsCollection reports whether id names a registered collection.
func (s *Store) IsCollection(id odata.ID) bool {
	s.mu.RLock()
	_, ok := s.eng.collections[id]
	s.mu.RUnlock()
	return ok
}

// collectionFor returns the collection's metadata and memoized rendering,
// building and publishing the cache on a miss. hit reports whether the
// rendering was served from the cache. The returned collCache is
// immutable; callers may use it after the lock is released.
func (s *Store) collectionFor(id odata.ID) (collectionMeta, *collCache, bool, error) {
	s.mu.RLock()
	meta, ok := s.eng.collections[id]
	c := s.eng.collCache[id]
	s.mu.RUnlock()
	if !ok {
		return collectionMeta{}, nil, false, fmt.Errorf("%w: %s", ErrNotCollection, id)
	}
	if c != nil {
		return meta, c, true, nil
	}
	s.lock()
	defer s.mu.Unlock()
	if c = s.eng.collCache[id]; c != nil {
		return meta, c, true, nil
	}
	members := s.eng.members(id)
	payload, err := json.Marshal(odata.Collection{
		ODataID:   id,
		ODataType: meta.odataType,
		Name:      meta.name,
		Count:     len(members),
		Members:   odata.RefSlice(members),
	})
	if err != nil {
		return meta, nil, false, fmt.Errorf("store: collection %s: %w", id, err)
	}
	c = &collCache{members: members, payload: payload, etag: odata.EtagRaw(payload)}
	s.eng.collCache[id] = c
	return meta, c, false, nil
}

func (s *Store) countCollection(hit bool) {
	if hit {
		s.countOp("collection_cached")
	} else {
		s.countOp("collection")
	}
}

// Collection synthesizes the collection payload at id from its current
// members, serving the memoized member list when it is still valid.
func (s *Store) Collection(id odata.ID) (odata.Collection, error) {
	meta, c, hit, err := s.collectionFor(id)
	if err != nil {
		return odata.Collection{}, err
	}
	s.countCollection(hit)
	return odata.Collection{
		ODataID:   id,
		ODataType: meta.odataType,
		Name:      meta.name,
		Count:     len(c.members),
		Members:   odata.RefSlice(c.members),
	}, nil
}

// CollectionView invokes fn with the memoized serialized payload and
// entity tag of the collection at id, building them on first use. The
// payload is immutable shared state: fn must not modify it, but may
// retain it (an invalidation publishes a fresh slice rather than
// mutating). This is the zero-copy fast path collection GETs are served
// from.
func (s *Store) CollectionView(id odata.ID, fn func(payload []byte, etag string)) error {
	_, c, hit, err := s.collectionFor(id)
	if err != nil {
		return err
	}
	s.countCollection(hit)
	fn(c.payload, c.etag)
	return nil
}

// Members returns the sorted direct members of the collection at id.
func (s *Store) Members(id odata.ID) ([]odata.ID, error) {
	_, c, _, err := s.collectionFor(id)
	if err != nil {
		return nil, err
	}
	s.countOp("members")
	out := make([]odata.ID, len(c.members))
	copy(out, c.members)
	return out, nil
}

// NextID returns the next unused positive integer name for a direct child
// of the collection, as a string. Allocation is monotonic: a per-
// collection high-water mark makes it O(1) amortized, and names are not
// reused after deletion, so a released URI can never alias a later
// resource.
func (s *Store) NextID(collection odata.ID) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng.nextID(collection)
}

// IDs returns every stored resource identifier, sorted.
func (s *Store) IDs() []odata.ID {
	s.mu.RLock()
	ids := make([]odata.ID, 0, len(s.eng.entries))
	for id := range s.eng.entries {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Len returns the number of stored resources.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.eng.entries)
}

// LiveBytes returns the total length of the stored payloads: what a
// snapshot of the tree holds, less its URIs and punctuation. It reads
// no lock.
func (s *Store) LiveBytes() int64 { return s.eng.live.Load() }

// PutSubtree atomically installs a set of resources, all of which must lie
// under prefix. It is the aggregation primitive used when an Agent
// publishes or refreshes its resource subtree: existing resources under
// prefix that are absent from resources are removed, except those under a
// keep prefix — these are owned by another writer (the OFMF stores the
// Zone and Connection resources it creates on the agent's behalf) and
// survive refreshes untouched.
//
// The whole refresh is logged as one batch — the deletions and puts it
// actually performed, in that order — so a replayed log reproduces the
// refresh exactly without knowing the keep semantics.
//
// Whatever the prefix — an agent's subtree or the service root (the
// admin restore path) — the refresh happens under one hold of the write
// lock, so concurrent readers see the whole replacement or none of it.
func (s *Store) PutSubtree(prefix odata.ID, resources map[odata.ID]any, keep ...odata.ID) error {
	return s.PutSubtreeCtx(context.Background(), prefix, resources, keep...)
}

// PutSubtreeCtx is PutSubtree carrying the originating request context;
// see PutCtx for the tracing and change-attribution semantics.
func (s *Store) PutSubtreeCtx(ctx context.Context, prefix odata.ID, resources map[odata.ID]any, keep ...odata.ID) error {
	s.countOp("put_subtree")
	sp := s.traceStart(ctx, "store.put_subtree")
	entries := make([]exportEntry, 0, len(resources))
	for id := range resources {
		entries = append(entries, exportEntry{id: id})
	}
	slices.SortFunc(entries, byID)
	for i, e := range entries {
		raw, err := subtreeEntry(prefix, e.id, resources[e.id])
		if err != nil {
			sp.EndErr(err)
			return err
		}
		entries[i].raw = raw
	}
	return s.putSubtree(ctx, sp, prefix, entries, true, keep)
}

// PutSubtreeDoc is PutSubtreeCtx with the resources as one document,
// {"uri":payload,…}: the form Cut writes, and the Resources member of an
// agent's push. The document is read the way
// a snapshot file is (see scanExport): the payloads of a compact
// document with ids ascending are verified canonical where they lie, and
// only those that change the tree are copied into it — the tree never
// keeps a reference to doc. Anything else is decoded by encoding/json
// (see decodeMember), and a document that does not parse as an object
// fails with ErrBadDocument, the tree unchanged.
func (s *Store) PutSubtreeDoc(ctx context.Context, prefix odata.ID, doc []byte, keep ...odata.ID) error {
	return s.putSubtreeDoc(ctx, prefix, doc, decodeMember, keep)
}

// PutSubtreeCut is PutSubtreeDoc of a document that stands on its own,
// as Cut writes it, rather than as a member of a request body: a
// document encoding/json reads on its own is read, however deep its
// envelope would have nested it. A replica installs its leader's
// snapshot with it, so every tree the leader can hold crosses.
func (s *Store) PutSubtreeCut(ctx context.Context, prefix odata.ID, doc []byte) error {
	return s.putSubtreeDoc(ctx, prefix, doc, decodeExport, nil)
}

// putSubtreeDoc is PutSubtreeDoc with decode as the encoding/json
// reading of a document the walk declines.
func (s *Store) putSubtreeDoc(ctx context.Context, prefix odata.ID, doc []byte, decode func([]byte) ([]exportEntry, error), keep []odata.ID) error {
	s.countOp("put_subtree")
	sp := s.traceStart(ctx, "store.put_subtree")
	entries, verified := scanExport(doc)
	var err error
	if !verified {
		if entries, err = decode(doc); err != nil {
			err = fmt.Errorf("%w: %w", ErrBadDocument, err)
			sp.EndErr(err)
			return err
		}
	}
	for i, e := range entries {
		if !verified {
			entries[i].raw, err = subtreeEntry(prefix, e.id, e.raw)
		} else if !e.id.Under(prefix) {
			err = outsideSubtree(e.id, prefix)
		}
		if err != nil {
			sp.EndErr(err)
			return err
		}
	}
	return s.putSubtree(ctx, sp, prefix, entries, !verified, keep)
}

// subtreeEntry is the check each resource of a subtree refresh passes,
// in ascending id order, so the first bad one is reported whichever
// form the resources came in: it must lie under prefix and canonicalize.
func subtreeEntry(prefix, id odata.ID, v any) (json.RawMessage, error) {
	if !id.Under(prefix) {
		return nil, outsideSubtree(id, prefix)
	}
	raw, err := canonicalize(v)
	if err != nil {
		return nil, fmt.Errorf("store: subtree %s: %w", id, err)
	}
	return raw, nil
}

func outsideSubtree(id, prefix odata.ID) error {
	return fmt.Errorf("store: %s outside subtree %s", id, prefix)
}

// putSubtree installs entries (ids ascending and unique, payloads
// canonical) as prefix's subtree, ending sp: the one locked install of
// PutSubtreeCtx and PutSubtreeDoc. A payload that changes the tree is
// copied into it unless owned says it is the tree's to keep.
func (s *Store) putSubtree(ctx context.Context, sp *obsv.Span, prefix odata.ID, entries []exportEntry, owned bool, keep []odata.ID) error {
	kept := func(id odata.ID) bool {
		for _, k := range keep {
			if id.Under(k) {
				return true
			}
		}
		return false
	}
	var changes []Change
	var batch []Record
	s.lock()
	logging := s.backend != nil
	// Remove stale descendants, walking only the prefix's subtree via the
	// children index — the rest of the store is never touched — and
	// looking each up among the sorted entries. A kept prefix keeps its
	// whole subtree: the refresh is a pure upsert (an agent publishing
	// only what an op touched) and walks nothing.
	if !kept(prefix) {
		stale := s.eng.descendants(prefix, make([]odata.ID, 0, len(entries)))
		n := 0
		for _, id := range stale {
			if _, named := slices.BinarySearchFunc(entries, id, entryCmp); !named && !kept(id) {
				stale[n] = id
				n++
			}
		}
		stale = stale[:n]
		slices.Sort(stale)
		for _, id := range stale {
			s.eng.remove(id)
			changes = append(changes, Change{Kind: Removed, ID: id, Seq: s.mutSeq.Add(1), Ctx: ctx})
			if logging {
				batch = append(batch, Record{Op: OpDelete, ID: id})
			}
		}
	}
	for _, e := range entries {
		if cur := s.eng.entries[e.id]; cur != nil && bytes.Equal(cur.raw, e.raw) {
			continue
		}
		raw := e.raw
		if !owned {
			raw = bytes.Clone(raw)
		}
		kind := s.eng.set(e.id, raw)
		changes = append(changes, Change{Kind: kind, ID: e.id, Seq: s.mutSeq.Add(1), Ctx: ctx})
		if logging {
			batch = append(batch, Record{Op: OpPut, ID: e.id, Raw: raw})
		}
	}
	wait := s.commitLocked(batch)
	s.mu.Unlock()
	for i := range batch { // logged in step with changes
		changes[i].Commit = batch[i].Seq
	}

	werr := settle(ctx, sp, wait)
	sp.EndErr(werr)
	slices.SortFunc(changes, func(a, b Change) int { return strings.Compare(string(a.ID), string(b.ID)) })
	s.notify(changes...)
	return werr
}

// DeleteSubtree removes every resource under prefix (inclusive) and
// returns how many were removed. Like PutSubtree it walks only the
// affected subtree via the children index. A non-nil error means the
// in-memory removal happened but its log records did not reach durable
// storage, same as every other mutation.
func (s *Store) DeleteSubtree(prefix odata.ID) (int, error) {
	return s.DeleteSubtreeCtx(context.Background(), prefix)
}

// DeleteSubtreeCtx is DeleteSubtree carrying the originating request
// context; see PutCtx for the tracing and change-attribution semantics.
func (s *Store) DeleteSubtreeCtx(ctx context.Context, prefix odata.ID) (int, error) {
	s.countOp("delete_subtree")
	sp := s.traceStart(ctx, "store.delete_subtree")
	s.lock()
	ids := s.eng.descendants(prefix, nil)
	changes := make([]Change, 0, len(ids))
	var batch []Record
	logging := s.backend != nil
	for _, id := range ids {
		s.eng.remove(id)
		changes = append(changes, Change{Kind: Removed, ID: id, Seq: s.mutSeq.Add(1), Ctx: ctx})
		if logging {
			batch = append(batch, Record{Op: OpDelete, ID: id})
		}
	}
	wait := s.commitLocked(batch)
	s.mu.Unlock()
	for i := range batch { // logged in step with changes
		changes[i].Commit = batch[i].Seq
	}
	werr := settle(ctx, sp, wait)
	sp.EndErr(werr)
	sort.Slice(changes, func(i, j int) bool { return changes[i].ID < changes[j].ID })
	s.notify(changes...)
	return len(changes), werr
}
