package service

import (
	"encoding/json"
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
// The index is a store.Projection of the collection: each change
// re-reads the source's current state under mu, so out-of-order
// notifications converge on the tree with no sequence gate and no
// record of deleted sources.
type hostIndex struct {
	onChange store.Watcher

	mu     sync.Mutex
	byHost map[string]odata.ID
	byURI  map[odata.ID]string // source URI → its HostName
}

func newHostIndex(st *store.Store) *hostIndex {
	x := &hostIndex{
		byHost: make(map[string]odata.ID),
		byURI:  make(map[odata.ID]string),
	}
	// Watching from the very first mutation (before bootstrap), the
	// index also covers sources re-created by WAL recovery replay and
	// never needs to scan the collection.
	x.onChange = st.Projection(AggregationSourcesURI, &x.mu, x.apply)
	st.Watch(x.onChange)
	return x
}

// lookup returns the source URI registered for the callback URL, if any.
func (x *hostIndex) lookup(host string) (odata.ID, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	uri, ok := x.byHost[host]
	return uri, ok
}

// apply brings the index to the source's stored state (raw nil: gone).
// Caller holds x.mu.
func (x *hostIndex) apply(id odata.ID, raw json.RawMessage) {
	if host, ok := x.byURI[id]; ok && x.byHost[host] == id {
		delete(x.byHost, host)
	}
	delete(x.byURI, id)
	var src redfish.AggregationSource
	if raw == nil || json.Unmarshal(raw, &src) != nil {
		return
	}
	x.byURI[id] = src.HostName
	if src.HostName != "" {
		x.byHost[src.HostName] = id
	}
}
