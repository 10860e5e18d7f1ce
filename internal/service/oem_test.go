package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ofmf/internal/events"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
)

func TestSubtreePushEndpoint(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	fab := FabricsURI.Append("X")
	payload := SubtreePayload{
		Prefix: fab,
		Resources: map[odata.ID]json.RawMessage{
			fab:                       json.RawMessage(`{"Name":"X","FabricType":"CXL"}`),
			fab.Append("Endpoints/E"): json.RawMessage(`{"Name":"E"}`),
		},
	}
	resp, body := doJSON(t, http.MethodPost, srv.URL+string(SubtreeOemURI), payload, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("push = %d: %s", resp.StatusCode, body)
	}
	resp, _ = doJSON(t, http.MethodGet, srv.URL+string(fab.Append("Endpoints/E")), nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pushed resource GET = %d", resp.StatusCode)
	}
	// A second push without the endpoint removes it.
	payload.Resources = map[odata.ID]json.RawMessage{fab: json.RawMessage(`{"Name":"X"}`)}
	resp, _ = doJSON(t, http.MethodPost, srv.URL+string(SubtreeOemURI), payload, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("refresh = %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodGet, srv.URL+string(fab.Append("Endpoints/E")), nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("stale resource GET = %d", resp.StatusCode)
	}
}

func TestSubtreePushValidation(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	// Prefix outside the service root.
	resp, _ := doJSON(t, http.MethodPost, srv.URL+string(SubtreeOemURI),
		SubtreePayload{Prefix: "/elsewhere"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad prefix = %d", resp.StatusCode)
	}
	// GET not allowed.
	resp, _ = doJSON(t, http.MethodGet, srv.URL+string(SubtreeOemURI), nil, nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET = %d", resp.StatusCode)
	}
}

func TestEventPushEndpoint(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	before := svc.Bus().Stats().Published
	resp, _ := doJSON(t, http.MethodPost, srv.URL+string(EventsOemURI),
		redfish.EventRecord{EventType: redfish.EventAlert, EventID: "x", Message: "m"}, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("push = %d", resp.StatusCode)
	}
	if after := svc.Bus().Stats().Published; after != before+1 {
		t.Errorf("published %d -> %d", before, after)
	}
}

func TestCollectionsPushEndpoint(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	coll := FabricsURI.Append("Y", "Endpoints")
	resp, _ := doJSON(t, http.MethodPost, srv.URL+string(CollectionsOemURI),
		CollectionsPayload{coll: {redfish.TypeEndpointCollection, "Endpoints"}}, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("push = %d", resp.StatusCode)
	}
	if !svc.Store().IsCollection(coll) {
		t.Error("collection not registered")
	}
	resp, _ = doJSON(t, http.MethodGet, srv.URL+string(coll), nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("collection GET = %d", resp.StatusCode)
	}
	// Outside the root rejected.
	resp, _ = doJSON(t, http.MethodPost, srv.URL+string(CollectionsOemURI),
		CollectionsPayload{"/elsewhere": {"t", "n"}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad collection = %d", resp.StatusCode)
	}
}

func TestSubscriptionHealthDegrades(t *testing.T) {
	svc, srv := newTestServer(t, Config{Events: eventsFastRetry()})
	// Subscribe a destination that refuses everything.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusBadGateway)
	}))
	defer dead.Close()
	resp, body := doJSON(t, http.MethodPost, srv.URL+string(SubscriptionsURI),
		redfish.EventDestination{Destination: dead.URL}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("subscribe = %d: %s", resp.StatusCode, body)
	}
	var sub redfish.EventDestination
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	// Publish enough events to exhaust retries three times.
	for i := 0; i < 3; i++ {
		svc.Bus().Publish(events.Record(redfish.EventAlert, "x", "m", ""))
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		var got redfish.EventDestination
		if err := svc.Store().GetAs(sub.ODataID, &got); err != nil {
			t.Fatal(err)
		}
		if got.Status.Health == odata.HealthCritical {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health = %s, want Critical", got.Status.Health)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func eventsFastRetry() events.Config {
	return events.Config{RetryAttempts: 1, RetryInterval: time.Millisecond}
}

func TestMessageRegistryServed(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	resp, body := doJSON(t, http.MethodGet, srv.URL+string(RegistriesURI.Append("OFMF.1.0")), nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var reg redfish.MessageRegistry
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.RegistryPrefix != "OFMF" || reg.RegistryVersion != "1.0" {
		t.Errorf("registry = %+v", reg)
	}
	for _, msg := range []string{"SystemComposed", "OutOfMemory", "FabricLinkDown", "MemoryHotAdded"} {
		if _, ok := reg.Messages[msg]; !ok {
			t.Errorf("missing message %s", msg)
		}
	}
	// The collection lists it.
	resp, body = doJSON(t, http.MethodGet, srv.URL+string(RegistriesURI), nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("collection = %d", resp.StatusCode)
	}
	var coll odata.Collection
	if err := json.Unmarshal(body, &coll); err != nil {
		t.Fatal(err)
	}
	if coll.Count != 1 {
		t.Errorf("registries = %d", coll.Count)
	}
}

func TestCollectionPaging(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	for i := 0; i < 5; i++ {
		id := SystemsURI.Append(string(rune('A' + i)))
		if err := svc.Store().Put(id, redfish.ComputerSystem{
			Resource: odata.NewResource(id, redfish.TypeComputerSystem, id.Leaf()),
			Status:   odata.StatusOK(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	resp, body := doJSON(t, http.MethodGet, srv.URL+string(SystemsURI)+"?$skip=1&$top=2", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var page struct {
		Count    int `json:"Members@odata.count"`
		Members  []odata.Ref
		NextLink string `json:"Members@odata.nextLink"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if page.Count != 5 {
		t.Errorf("count = %d, want total", page.Count)
	}
	if len(page.Members) != 2 || page.Members[0].ODataID != SystemsURI.Append("B") {
		t.Errorf("members = %v", page.Members)
	}
	if page.NextLink == "" {
		t.Fatal("missing nextLink")
	}
	// Follow the continuation to exhaustion.
	resp, body = doJSON(t, http.MethodGet, srv.URL+page.NextLink, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("next page = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Members) != 2 || page.Members[0].ODataID != SystemsURI.Append("D") {
		t.Errorf("page 2 members = %v", page.Members)
	}
	// Over-skip yields an empty page, no error.
	resp, body = doJSON(t, http.MethodGet, srv.URL+string(SystemsURI)+"?$skip=99", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("overskip = %d", resp.StatusCode)
	}
	var over struct {
		Members []odata.Ref
	}
	if err := json.Unmarshal(body, &over); err != nil {
		t.Fatal(err)
	}
	if len(over.Members) != 0 {
		t.Errorf("overskip members = %v", over.Members)
	}
}

func TestExpandCollection(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	for _, n := range []string{"A", "B"} {
		id := SystemsURI.Append(n)
		if err := svc.Store().Put(id, redfish.ComputerSystem{
			Resource:   odata.NewResource(id, redfish.TypeComputerSystem, n),
			SystemType: redfish.SystemTypePhysical,
			Status:     odata.StatusOK(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	resp, body := doJSON(t, http.MethodGet, srv.URL+string(SystemsURI)+"?$expand=.", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Count   int              `json:"Members@odata.count"`
		Members []map[string]any `json:"Members"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 2 || len(out.Members) != 2 {
		t.Fatalf("expanded = %+v", out)
	}
	if out.Members[0]["SystemType"] != "Physical" {
		t.Errorf("member not inlined: %v", out.Members[0])
	}
	// Unexpanded still returns references.
	resp, body = doJSON(t, http.MethodGet, srv.URL+string(SystemsURI), nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatal("plain GET failed")
	}
	var plain odata.Collection
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	if len(plain.Members) != 2 || plain.Members[0].ODataID == "" {
		t.Errorf("plain members = %+v", plain.Members)
	}
}

// TestExpandCollectionPaged walks ?$expand=.&$top=2 to exhaustion by
// following Members@odata.nextLink alone: every page must stay expanded,
// report the collection total, and the walk must visit every member once.
func TestExpandCollectionPaged(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	want := []string{"A", "B", "C", "D", "E"}
	for _, n := range want {
		id := SystemsURI.Append(n)
		if err := svc.Store().Put(id, redfish.ComputerSystem{
			Resource:   odata.NewResource(id, redfish.TypeComputerSystem, n),
			SystemType: redfish.SystemTypePhysical,
			Status:     odata.StatusOK(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	next := string(SystemsURI) + "?$expand=.&$top=2"
	for pages := 0; next != ""; pages++ {
		if pages == len(want) {
			t.Fatalf("walk did not end after %d pages; next = %q", pages, next)
		}
		resp, body := doJSON(t, http.MethodGet, srv.URL+next, nil, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", next, resp.StatusCode, body)
		}
		var page struct {
			Count    int              `json:"Members@odata.count"`
			Members  []map[string]any `json:"Members"`
			NextLink string           `json:"Members@odata.nextLink"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatal(err)
		}
		if page.Count != len(want) {
			t.Errorf("GET %s: count = %d, want the collection total %d", next, page.Count, len(want))
		}
		for _, m := range page.Members {
			if m["SystemType"] != "Physical" {
				t.Fatalf("GET %s: member not inlined: %v", next, m)
			}
			got = append(got, m["Name"].(string))
		}
		next = page.NextLink
	}
	if len(got) != len(want) {
		t.Fatalf("walk visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk visited %v, want %v", got, want)
		}
	}
}

func TestAdminTreeDumpRestore(t *testing.T) {
	_, srvA := newTestServer(t, Config{})
	check := func(resp *http.Response, body []byte, want int, what string) {
		t.Helper()
		if resp.StatusCode != want {
			t.Fatalf("%s = %d: %s", what, resp.StatusCode, body)
		}
	}

	// Seed A with an extra resource beyond the bootstrap tree, dump it.
	extra := SystemsURI.Append("Imported1")
	resp, body := doJSON(t, http.MethodPost, srvA.URL+string(SubtreeOemURI), SubtreePayload{
		Prefix:    extra,
		Resources: map[odata.ID]json.RawMessage{extra: json.RawMessage(`{"Name":"Imported1"}`)},
	}, nil)
	check(resp, body, http.StatusNoContent, "seed push")
	resp, dump := doJSON(t, http.MethodGet, srvA.URL+string(AdminTreeOemURI), nil, nil)
	check(resp, dump, http.StatusOK, "dump")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("dump content-type = %q", ct)
	}

	// Restore into a second deployment: the extra resource must appear
	// there and the restored store must stay coherent. Restore has
	// replace semantics, so a resource that exists only in B must vanish.
	_, srvB := newTestServer(t, Config{})
	stale := SystemsURI.Append("StaleB")
	resp, body = doJSON(t, http.MethodPost, srvB.URL+string(SubtreeOemURI), SubtreePayload{
		Prefix:    stale,
		Resources: map[odata.ID]json.RawMessage{stale: json.RawMessage(`{"Name":"StaleB"}`)},
	}, nil)
	check(resp, body, http.StatusNoContent, "seed B")
	req, err := http.NewRequest(http.MethodPost, srvB.URL+string(AdminTreeOemURI), bytes.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	restoreResp, err := (&http.Client{}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	restoreResp.Body.Close()
	if restoreResp.StatusCode != http.StatusNoContent {
		t.Fatalf("restore = %d", restoreResp.StatusCode)
	}
	resp, body = doJSON(t, http.MethodGet, srvB.URL+string(extra), nil, nil)
	check(resp, body, http.StatusOK, "restored resource")
	resp, body = doJSON(t, http.MethodGet, srvB.URL+string(stale), nil, nil)
	check(resp, body, http.StatusNotFound, "stale resource after replace-restore")

	// Bad payloads and methods are rejected cleanly, leaving the tree
	// untouched — restore is all-or-nothing.
	resp, body = doJSON(t, http.MethodPost, srvB.URL+string(AdminTreeOemURI), "not a tree", nil)
	check(resp, body, http.StatusBadRequest, "restore of non-object")
	resp, body = doJSON(t, http.MethodPost, srvB.URL+string(AdminTreeOemURI),
		map[string]any{"/redfish/v1/Systems/Orphan": map[string]any{"Name": "Orphan"}}, nil)
	check(resp, body, http.StatusBadRequest, "restore without service root")
	resp, body = doJSON(t, http.MethodGet, srvB.URL+string(extra), nil, nil)
	check(resp, body, http.StatusOK, "tree intact after rejected restore")
	resp, body = doJSON(t, http.MethodDelete, srvB.URL+string(AdminTreeOemURI), nil, nil)
	check(resp, body, http.StatusMethodNotAllowed, "delete")
}
