package service

import (
	"fmt"
	"testing"
	"time"

	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/store"
	"ofmf/internal/store/storetest"
)

// quietNode boots a service that publishes no change events, so the
// conformance writes deliver nothing anywhere.
func quietNode(t *testing.T, registry func(*Service) any) storetest.Node {
	off := false
	svc := New(Config{ChangeEvents: &off})
	t.Cleanup(svc.Close)
	return storetest.Node{Store: svc.Store(), Registry: func() any { return registry(svc) }}
}

func mustPut(t *testing.T, st *store.Store, id odata.ID, v any) {
	t.Helper()
	if err := st.Put(id, v); err != nil {
		t.Fatal(err)
	}
}

func mustPatch(t *testing.T, st *store.Store, id odata.ID, patch map[string]any) {
	t.Helper()
	if err := st.Patch(id, patch, ""); err != nil {
		t.Fatal(err)
	}
}

func mustDelete(t *testing.T, st *store.Store, id odata.ID) {
	t.Helper()
	if err := st.Delete(id); err != nil {
		t.Fatal(err)
	}
}

// busRegistry is the bus as the Subscriptions projection built it: each
// subscription's destination, context and filter.
func busRegistry(svc *Service) any {
	out := make(map[string]string)
	for _, id := range svc.Bus().Subscriptions() {
		if sub := svc.Bus().Lookup(id); sub != nil {
			out[id] = fmt.Sprintf("%s %q %+v", sub.Destination(), sub.Context, sub.Filter)
		}
	}
	return out
}

func TestSubscriptionsProjectionConforms(t *testing.T) {
	sub := func(n string) odata.ID { return SubscriptionsURI.Append(n) }
	storetest.RunProjection(t, storetest.Projected{
		Boot: func(t *testing.T) storetest.Node { return quietNode(t, busRegistry) },
		Write: func(t *testing.T, st *store.Store) {
			mustPut(t, st, sub("1"), map[string]any{"Destination": "http://127.0.0.1:1/a", "EventTypes": []string{"Alert"}})
			mustPut(t, st, sub("2"), map[string]any{"Destination": "http://127.0.0.1:1/b", "Context": "c"})
			mustPut(t, st, sub("3"), map[string]any{"Destination": "http://127.0.0.1:1/c"})
			mustPut(t, st, sub("4"), map[string]any{"Destination": "ftp://127.0.0.1/d"})
			mustPatch(t, st, sub("2"), map[string]any{"EventTypes": []string{"StatusChange"}, "SubordinateResources": true,
				"OriginResources": []any{map[string]any{"@odata.id": "/redfish/v1/Fabrics"}}})
			mustPatch(t, st, sub("1"), map[string]any{"Status": map[string]any{"Health": "Warning"}})
			mustDelete(t, st, sub("3"))
		},
		Member:   sub("1"),
		Recreate: map[string]any{"Destination": "http://127.0.0.1:1/e"},
	})
}

// sourceView is one entry of the AggregationSources projection, less
// what does not come from the tree (when it was first seen, its
// deadline).
type sourceView struct {
	Host         string
	Beat         time.Time
	Level        int
	Local        bool
	Claims, Held []odata.ID
}

// sourcesRegistry is the AggregationSources projection: its entries, its
// host index and the forwarding it installed.
func sourcesRegistry(svc *Service) any {
	w := svc.liveness
	w.mu.Lock()
	defer w.mu.Unlock()
	entries := make(map[odata.ID]sourceView)
	for id, e := range w.sources {
		entries[id] = sourceView{e.host, e.lastBeat, e.level, e.local, e.claims, e.held}
	}
	svc.mu.RLock()
	defer svc.mu.RUnlock()
	forward := make(map[odata.ID]string)
	for prefix, h := range svc.handlers {
		if rh, ok := h.(*remoteHandler); ok {
			forward[prefix] = rh.url
		}
	}
	return fmt.Sprintf("%+v\n%v\n%v", entries, w.byHost, forward)
}

func TestAggregationSourcesProjectionConforms(t *testing.T) {
	src := func(n string) odata.ID { return AggregationSourcesURI.Append(n) }
	source := func(host, beat string, claims ...odata.ID) redfish.AggregationSource {
		s := redfish.AggregationSource{HostName: host, Status: odata.StatusOK(),
			Links: redfish.AggSourceLinks{ResourcesAccessed: odata.RefSlice(claims)}}
		if beat != "" {
			s.Oem.OFMF = &redfish.AgentDescriptor{LastHeartbeat: beat}
		}
		return s
	}
	fab := func(n string) odata.ID { return FabricsURI.Append(n) }
	storetest.RunProjection(t, storetest.Projected{
		Boot: func(t *testing.T) storetest.Node { return quietNode(t, sourcesRegistry) },
		Write: func(t *testing.T, st *store.Store) {
			mustPut(t, st, src("1"), source("http://127.0.0.1:1", "2026-01-01T00:00:00Z", fab("A")))
			mustPut(t, st, src("2"), source("", "", fab("L")))
			mustPut(t, st, src("3"), source("http://127.0.0.1:3", "2026-01-01T00:00:00Z", fab("C"), fab("C2")))
			mustPut(t, st, src("4"), source("http://127.0.0.1:4", "", fab("D")))
			// Claims registration refuses are stored but never forwarded.
			mustPut(t, st, src("5"), source("http://127.0.0.1:5", "", SystemsURI, odata.ID("/redfish/v1/Fabrics/../Systems/x")))
			mustPatch(t, st, src("3"), map[string]any{"Oem": map[string]any{"OFMF": map[string]any{"LastHeartbeat": "2026-01-01T00:01:00Z"}}})
			mustPatch(t, st, src("3"), map[string]any{"Status": map[string]any{"Health": "Warning"},
				"Links": map[string]any{"ResourcesAccessed": []any{map[string]any{"@odata.id": string(fab("C"))}}}})
			mustDelete(t, st, src("4"))
		},
		Member:   src("1"),
		Recreate: source("http://127.0.0.1:9", "2026-01-02T00:00:00Z", fab("Z")),
	})
}
