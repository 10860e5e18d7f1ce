package service

import (
	"strings"
	"sync"

	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/store"
)

// hostIndex maps agent callback URLs (AggregationSource.HostName) to
// source URIs, so registration dedup is one map lookup instead of a
// decode of every member of the AggregationSources collection — the
// scan that made mass fleet registration O(n²) and, worse, ran outside
// the allocation lock, letting two concurrent registrations of the same
// HostName both miss and mint duplicate sources.
//
// The index is fed by the store's change stream. Notifications for one
// URI can arrive out of order across goroutines (the store releases its
// lock before notifying), so every application is gated on
// Change.Seq: a change older than what the index already reflects for
// that URI is discarded, and deletions leave a tombstone so a late
// pre-delete upsert cannot resurrect the mapping.
type hostIndex struct {
	st *store.Store

	mu     sync.Mutex
	byHost map[string]odata.ID
	byURI  map[odata.ID]hostEntry
	// tombs records the deletion seq of evicted URIs; an upsert must
	// carry a newer seq to re-admit the URI (delete-then-recreate).
	tombs map[odata.ID]uint64
	// lastSeq is the highest change seq observed; tombstones are
	// garbage-collected once the stream has moved tombRetainSeqs past
	// them (see gcTombsLocked).
	lastSeq uint64
	// sweepAfter throttles GC sweeps: no sweep before lastSeq passes it.
	sweepAfter uint64
}

// Tombstone GC tuning. A tombstone only matters while an out-of-order
// pre-delete notification for its URI can still arrive; notifications
// trail their mutation by goroutine-scheduling delays, not by thousands
// of commits, so once the stream has advanced tombRetainSeqs past a
// deletion its tombstone is dead weight. Sweeps are amortized: only
// when the map has at least tombSweepLen entries, and at most once per
// tombSweepEvery observed seqs — delete/recreate churn therefore holds
// the map near tombRetainSeqs entries instead of growing it forever.
const (
	tombRetainSeqs = 1024
	tombSweepLen   = 256
	tombSweepEvery = 64
)

// gcTombsLocked drops tombstones the change stream has long passed.
// Caller holds x.mu.
func (x *hostIndex) gcTombsLocked() {
	if len(x.tombs) < tombSweepLen || x.lastSeq < x.sweepAfter {
		return
	}
	for id, seq := range x.tombs {
		if seq+tombRetainSeqs <= x.lastSeq {
			delete(x.tombs, id)
		}
	}
	x.sweepAfter = x.lastSeq + tombSweepEvery
}

// hostEntry is the index's view of one aggregation source.
type hostEntry struct {
	host string
	seq  uint64
}

func newHostIndex(st *store.Store) *hostIndex {
	return &hostIndex{
		st:     st,
		byHost: make(map[string]odata.ID),
		byURI:  make(map[odata.ID]hostEntry),
		tombs:  make(map[odata.ID]uint64),
	}
}

// lookup returns the source URI registered for the callback URL, if any.
func (x *hostIndex) lookup(host string) (odata.ID, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	uri, ok := x.byHost[host]
	return uri, ok
}

// onChange keeps the index current from the store's change stream. It
// is registered before the service tree is bootstrapped, so it also
// observes WAL recovery replay — the index never needs a store scan.
func (x *hostIndex) onChange(c store.Change) {
	id := string(c.ID)
	if !strings.HasPrefix(id, aggSourcesPrefix) {
		return
	}
	if rest := id[len(aggSourcesPrefix):]; rest == "" || strings.Contains(rest, "/") {
		return
	}
	if c.Kind == store.Removed {
		x.mu.Lock()
		if c.Seq > x.lastSeq {
			x.lastSeq = c.Seq
		}
		if e, ok := x.byURI[c.ID]; ok && c.Seq > e.seq {
			if x.byHost[e.host] == c.ID {
				delete(x.byHost, e.host)
			}
			delete(x.byURI, c.ID)
			x.tombs[c.ID] = c.Seq
		} else if !ok && c.Seq > x.tombs[c.ID] {
			x.tombs[c.ID] = c.Seq
		}
		x.gcTombsLocked()
		x.mu.Unlock()
		return
	}
	// The read can observe a state newer than this change; that is safe
	// because the newer mutation's own (higher-seq) notification will
	// re-apply it, and the seq gate keeps this one from clobbering it.
	var src redfish.AggregationSource
	if err := x.st.GetAs(c.ID, &src); err != nil {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if c.Seq > x.lastSeq {
		x.lastSeq = c.Seq
	}
	if e, ok := x.byURI[c.ID]; ok {
		if c.Seq <= e.seq {
			return // stale reordered notification
		}
		if e.host != src.HostName && x.byHost[e.host] == c.ID {
			delete(x.byHost, e.host)
		}
	} else if c.Seq <= x.tombs[c.ID] {
		return // pre-delete notification arriving after the delete
	} else {
		delete(x.tombs, c.ID)
	}
	x.byURI[c.ID] = hostEntry{host: src.HostName, seq: c.Seq}
	if src.HostName != "" {
		x.byHost[src.HostName] = c.ID
	}
}
