package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/sessions"
	"ofmf/internal/store"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, srv
}

func doJSON(t *testing.T, method, url string, body any, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestServiceRootGet(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	resp, body := doJSON(t, http.MethodGet, srv.URL+"/redfish/v1", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var root redfish.Root
	if err := json.Unmarshal(body, &root); err != nil {
		t.Fatal(err)
	}
	if root.RedfishVersion != "1.15.0" {
		t.Errorf("version = %s", root.RedfishVersion)
	}
	if root.Fabrics == nil || root.Fabrics.ODataID != FabricsURI {
		t.Errorf("fabrics link = %v", root.Fabrics)
	}
	if resp.Header.Get("ETag") == "" {
		t.Error("missing ETag header")
	}
}

func TestVersionsEndpoint(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	resp, body := doJSON(t, http.MethodGet, srv.URL+"/redfish", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var m map[string]string
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m["v1"] != "/redfish/v1/" {
		t.Errorf("versions = %v", m)
	}
}

func TestCollectionsBootstrap(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	for _, uri := range []odata.ID{SystemsURI, ChassisURI, FabricsURI, SubscriptionsURI, TasksURI, SessionsURI, ResourceBlocksURI} {
		resp, body := doJSON(t, http.MethodGet, srv.URL+string(uri), nil, nil)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d: %s", uri, resp.StatusCode, body)
			continue
		}
		var coll odata.Collection
		if err := json.Unmarshal(body, &coll); err != nil {
			t.Errorf("GET %s: %v", uri, err)
		}
		if coll.Count != 0 {
			t.Errorf("GET %s: count = %d", uri, coll.Count)
		}
	}
}

func TestNotFound(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	resp, body := doJSON(t, http.MethodGet, srv.URL+"/redfish/v1/Systems/Nope", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var env odata.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "Base.1.0.ResourceMissingAtURI" {
		t.Errorf("code = %s", env.Error.Code)
	}
}

func TestEtagConditionalGet(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	id := SystemsURI.Append("S1")
	if err := svc.Store().Put(id, redfish.ComputerSystem{
		Resource:   odata.NewResource(id, redfish.TypeComputerSystem, "S1"),
		SystemType: redfish.SystemTypePhysical,
		Status:     odata.StatusOK(),
	}); err != nil {
		t.Fatal(err)
	}
	resp, _ := doJSON(t, http.MethodGet, srv.URL+string(id), nil, nil)
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no etag")
	}
	resp, _ = doJSON(t, http.MethodGet, srv.URL+string(id), nil, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("status = %d, want 304", resp.StatusCode)
	}
}

func TestCollectionConditionalGet(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	put := func(name string) {
		id := SystemsURI.Append(name)
		if err := svc.Store().Put(id, redfish.ComputerSystem{
			Resource:   odata.NewResource(id, redfish.TypeComputerSystem, name),
			SystemType: redfish.SystemTypePhysical,
			Status:     odata.StatusOK(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	put("S1")

	resp, _ := doJSON(t, http.MethodGet, srv.URL+string(SystemsURI), nil, nil)
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no collection etag")
	}
	resp, body := doJSON(t, http.MethodGet, srv.URL+string(SystemsURI), nil, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("status = %d, want 304", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Errorf("304 carried a body: %q", body)
	}

	// Membership change must rotate the collection ETag.
	put("S2")
	resp, body = doJSON(t, http.MethodGet, srv.URL+string(SystemsURI), nil, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after member add = %d, want 200", resp.StatusCode)
	}
	if newTag := resp.Header.Get("ETag"); newTag == "" || newTag == etag {
		t.Errorf("etag did not rotate: %q", newTag)
	}
	var coll odata.Collection
	if err := json.Unmarshal(body, &coll); err != nil {
		t.Fatal(err)
	}
	if coll.Count != 2 || len(coll.Members) != 2 {
		t.Errorf("count = %d, members = %d", coll.Count, len(coll.Members))
	}
}

func TestSessionLoginFlow(t *testing.T) {
	creds := sessions.StaticCredentials(map[string]string{"admin": "pw"})
	_, srv := newTestServer(t, Config{Credentials: creds})

	// Unauthenticated request to a protected resource is rejected.
	resp, _ := doJSON(t, http.MethodGet, srv.URL+string(SystemsURI), nil, nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated status = %d", resp.StatusCode)
	}

	// Service root remains reachable.
	resp, _ = doJSON(t, http.MethodGet, srv.URL+string(RootURI), nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("root status = %d", resp.StatusCode)
	}

	// Bad credentials rejected.
	resp, _ = doJSON(t, http.MethodPost, srv.URL+string(SessionsURI),
		map[string]string{"UserName": "admin", "Password": "wrong"}, nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad login status = %d", resp.StatusCode)
	}

	// Good credentials produce a token.
	resp, body := doJSON(t, http.MethodPost, srv.URL+string(SessionsURI),
		map[string]string{"UserName": "admin", "Password": "pw"}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("login status = %d: %s", resp.StatusCode, body)
	}
	token := resp.Header.Get("X-Auth-Token")
	if token == "" {
		t.Fatal("no token issued")
	}
	loc := resp.Header.Get("Location")
	if loc == "" {
		t.Fatal("no Location header")
	}

	// Token grants access.
	resp, _ = doJSON(t, http.MethodGet, srv.URL+string(SystemsURI), nil, map[string]string{"X-Auth-Token": token})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated status = %d", resp.StatusCode)
	}

	// Logout; token stops working.
	resp, _ = doJSON(t, http.MethodDelete, srv.URL+loc, nil, map[string]string{"X-Auth-Token": token})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("logout status = %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodGet, srv.URL+string(SystemsURI), nil, map[string]string{"X-Auth-Token": token})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("post-logout status = %d", resp.StatusCode)
	}
}

func TestSubscriptionLifecycleAndDelivery(t *testing.T) {
	var mu sync.Mutex
	var received []redfish.Event
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ev redfish.Event
		_ = json.NewDecoder(r.Body).Decode(&ev)
		mu.Lock()
		received = append(received, ev)
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer sink.Close()

	svc, srv := newTestServer(t, Config{DirectWrites: true})
	resp, body := doJSON(t, http.MethodPost, srv.URL+string(SubscriptionsURI), redfish.EventDestination{
		Destination: sink.URL,
		EventTypes:  []string{redfish.EventResourceAdded},
		Context:     "test-sub",
	}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("subscribe status = %d: %s", resp.StatusCode, body)
	}
	loc := resp.Header.Get("Location")

	// A store mutation produces a ResourceAdded event delivered to the sink.
	id := SystemsURI.Append("S1")
	if err := svc.Store().Put(id, redfish.ComputerSystem{
		Resource: odata.NewResource(id, redfish.TypeComputerSystem, "S1"),
		Status:   odata.StatusOK(),
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(received)
		mu.Unlock()
		if n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no event delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	ev := received[0]
	mu.Unlock()
	if ev.Context != "test-sub" {
		t.Errorf("context = %q", ev.Context)
	}
	if ev.Events[0].EventType != redfish.EventResourceAdded {
		t.Errorf("event type = %s", ev.Events[0].EventType)
	}
	if ev.Events[0].OriginOfCondition.ODataID != id {
		t.Errorf("origin = %v", ev.Events[0].OriginOfCondition)
	}

	// Deleting the subscription stops delivery.
	resp, _ = doJSON(t, http.MethodDelete, srv.URL+loc, nil, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("unsubscribe status = %d", resp.StatusCode)
	}
	if got := len(svc.Bus().Subscriptions()); got != 0 {
		t.Errorf("subscriptions remaining = %d", got)
	}
}

func TestSubscriptionRequiresDestination(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	resp, _ := doJSON(t, http.MethodPost, srv.URL+string(SubscriptionsURI), map[string]string{}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

// brokenLog is a durability backend whose every append fails its wait.
type brokenLog struct{}

func (brokenLog) Append([]store.Record) func() error {
	return func() error { return errors.New("disk full") }
}
func (brokenLog) Close() error { return nil }

// TestSubscriptionNotLeakedOnStoreFailure: a subscription whose resource
// could not be stored is answered with an error, so it must not stay on
// the bus — nobody could see it or delete it, and it would be delivered
// to for as long as the service runs. A refused destination never
// reaches the bus at all.
func TestSubscriptionNotLeakedOnStoreFailure(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	svc.Store().AttachBackend(brokenLog{}, 0)
	resp, body := doJSON(t, http.MethodPost, srv.URL+string(SubscriptionsURI),
		redfish.EventDestination{Destination: "http://receiver.example/events"}, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("subscribe over a failing store = %d, want 500: %s", resp.StatusCode, body)
	}
	if ids := svc.Bus().Subscriptions(); len(ids) != 0 {
		t.Errorf("bus still holds subscriptions %v after the POST failed", ids)
	}
	resp, _ = doJSON(t, http.MethodPost, srv.URL+string(SubscriptionsURI),
		redfish.EventDestination{Destination: "receiver.example:8080"}, nil)
	if resp.StatusCode != http.StatusBadRequest || len(svc.Bus().Subscriptions()) != 0 {
		t.Errorf("bad destination = %d with %d subscriptions, want 400 and none", resp.StatusCode, len(svc.Bus().Subscriptions()))
	}
}

// fakeHandler records forwarded fabric operations.
type fakeHandler struct {
	mu      sync.Mutex
	created []string
	deleted []string
	patched []odata.ID
	fail    bool
}

func (f *fakeHandler) CreateConnection(_ context.Context, c *redfish.Connection) error {
	if f.fail {
		return errors.New("no path between endpoints")
	}
	f.mu.Lock()
	f.created = append(f.created, "conn:"+string(c.ODataID))
	f.mu.Unlock()
	c.Desc = "established by agent"
	return nil
}

func (f *fakeHandler) DeleteConnection(_ context.Context, id odata.ID) error {
	if f.fail {
		return errors.New("busy")
	}
	f.mu.Lock()
	f.deleted = append(f.deleted, "conn:"+string(id))
	f.mu.Unlock()
	return nil
}

func (f *fakeHandler) CreateZone(_ context.Context, z *redfish.Zone) error {
	if f.fail {
		return errors.New("zone limit reached")
	}
	f.mu.Lock()
	f.created = append(f.created, "zone:"+string(z.ODataID))
	f.mu.Unlock()
	return nil
}

func (f *fakeHandler) DeleteZone(_ context.Context, id odata.ID) error {
	f.mu.Lock()
	f.deleted = append(f.deleted, "zone:"+string(id))
	f.mu.Unlock()
	return nil
}

func (f *fakeHandler) Patch(_ context.Context, id odata.ID, patch map[string]any) error {
	if f.fail {
		return errors.New("unsupported property")
	}
	f.mu.Lock()
	f.patched = append(f.patched, id)
	f.mu.Unlock()
	return nil
}

func setupFabric(t *testing.T, svc *Service, name string) odata.ID {
	t.Helper()
	fab := FabricsURI.Append(name)
	if err := svc.Store().Put(fab, redfish.Fabric{
		Resource:    odata.NewResource(fab, redfish.TypeFabric, name),
		FabricType:  redfish.ProtocolCXL,
		Status:      odata.StatusOK(),
		Zones:       redfish.Ref(fab.Append("Zones")),
		Connections: redfish.Ref(fab.Append("Connections")),
	}); err != nil {
		t.Fatal(err)
	}
	svc.Store().RegisterCollection(fab.Append("Zones"), redfish.TypeZoneCollection, "Zones")
	svc.Store().RegisterCollection(fab.Append("Connections"), redfish.TypeConnectionCollection, "Connections")
	return fab
}

func TestZoneForwardedToAgent(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	fab := setupFabric(t, svc, "CXL")
	h := &fakeHandler{}
	if err := svc.RegisterFabricHandler(fab, h); err != nil {
		t.Fatal(err)
	}

	resp, body := doJSON(t, http.MethodPost, srv.URL+string(fab.Append("Zones")), redfish.Zone{}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var zone redfish.Zone
	if err := json.Unmarshal(body, &zone); err != nil {
		t.Fatal(err)
	}
	if zone.ZoneType != redfish.ZoneTypeZoneOfEndpoints {
		t.Errorf("zone type = %s", zone.ZoneType)
	}
	h.mu.Lock()
	created := len(h.created)
	h.mu.Unlock()
	if created != 1 {
		t.Errorf("agent saw %d creates", created)
	}

	// Delete forwards too.
	resp, _ = doJSON(t, http.MethodDelete, srv.URL+string(zone.ODataID), nil, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	h.mu.Lock()
	deleted := len(h.deleted)
	h.mu.Unlock()
	if deleted != 1 {
		t.Errorf("agent saw %d deletes", deleted)
	}
}

func TestConnectionAgentRejection(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	fab := setupFabric(t, svc, "CXL")
	if err := svc.RegisterFabricHandler(fab, &fakeHandler{fail: true}); err != nil {
		t.Fatal(err)
	}

	resp, body := doJSON(t, http.MethodPost, srv.URL+string(fab.Append("Connections")), redfish.Connection{}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	// Nothing stored on rejection.
	members, err := svc.Store().Members(fab.Append("Connections"))
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 0 {
		t.Errorf("rejected connection was stored: %v", members)
	}
}

func TestConnectionAgentMutatesPayload(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	fab := setupFabric(t, svc, "CXL")
	if err := svc.RegisterFabricHandler(fab, &fakeHandler{}); err != nil {
		t.Fatal(err)
	}

	resp, body := doJSON(t, http.MethodPost, srv.URL+string(fab.Append("Connections")), redfish.Connection{ConnectionType: "Memory"}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var conn redfish.Connection
	if err := json.Unmarshal(body, &conn); err != nil {
		t.Fatal(err)
	}
	if conn.Desc != "established by agent" {
		t.Errorf("agent mutation lost: %+v", conn)
	}
}

func TestPatchForwardedToAgent(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	fab := setupFabric(t, svc, "CXL")
	h := &fakeHandler{}
	if err := svc.RegisterFabricHandler(fab, h); err != nil {
		t.Fatal(err)
	}
	port := fab.Append("Switches/SW1/Ports/P1")
	if err := svc.Store().Put(port, redfish.Port{
		Resource: odata.NewResource(port, redfish.TypePort, "P1"),
		Status:   odata.StatusOK(),
	}); err != nil {
		t.Fatal(err)
	}
	resp, _ := doJSON(t, http.MethodPatch, srv.URL+string(port), map[string]any{"LinkState": "Disabled"}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.patched) != 1 || h.patched[0] != port {
		t.Errorf("patched = %v", h.patched)
	}
}

func TestDirectWritesGate(t *testing.T) {
	// Without DirectWrites, generic mutation is rejected.
	svc, srv := newTestServer(t, Config{})
	id := SystemsURI.Append("S1")
	if err := svc.Store().Put(id, redfish.ComputerSystem{
		Resource: odata.NewResource(id, redfish.TypeComputerSystem, "S1"),
		Status:   odata.StatusOK(),
	}); err != nil {
		t.Fatal(err)
	}
	resp, _ := doJSON(t, http.MethodPatch, srv.URL+string(id), map[string]any{"HostName": "x"}, nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("patch status = %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodDelete, srv.URL+string(id), nil, nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("delete status = %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodPost, srv.URL+string(SystemsURI), map[string]any{"Name": "S2"}, nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("post status = %d", resp.StatusCode)
	}
}

func TestDirectWritesCRUD(t *testing.T) {
	_, srv := newTestServer(t, Config{DirectWrites: true})
	// Create.
	resp, body := doJSON(t, http.MethodPost, srv.URL+string(SystemsURI), map[string]any{"Name": "S"}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post = %d: %s", resp.StatusCode, body)
	}
	loc := resp.Header.Get("Location")
	if loc == "" {
		t.Fatal("no Location")
	}
	// Patch with stale If-Match fails.
	resp, _ = doJSON(t, http.MethodPatch, srv.URL+loc, map[string]any{"Name": "S2"}, map[string]string{"If-Match": `"stale"`})
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Errorf("stale patch = %d", resp.StatusCode)
	}
	// Patch with correct etag succeeds.
	resp, _ = doJSON(t, http.MethodGet, srv.URL+loc, nil, nil)
	etag := resp.Header.Get("ETag")
	resp, body = doJSON(t, http.MethodPatch, srv.URL+loc, map[string]any{"Name": "S2"}, map[string]string{"If-Match": etag})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch = %d: %s", resp.StatusCode, body)
	}
	var got map[string]any
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got["Name"] != "S2" {
		t.Errorf("patched Name = %v", got["Name"])
	}
	// Delete.
	resp, _ = doJSON(t, http.MethodDelete, srv.URL+loc, nil, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("delete = %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodGet, srv.URL+loc, nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("get after delete = %d", resp.StatusCode)
	}
}

func TestAggregationSourceRegistrationAndRemoval(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	fab := FabricsURI.Append("NVMe")
	// Register the agent, claiming the NVMe fabric subtree.
	src := redfish.AggregationSource{
		HostName: "http://127.0.0.1:9001",
		Oem:      redfish.AggSourceOem{OFMF: &redfish.AgentDescriptor{Technology: redfish.ProtocolNVMeOF}},
		Links:    redfish.AggSourceLinks{ResourcesAccessed: []odata.Ref{odata.NewRef(fab)}},
	}
	resp, body := doJSON(t, http.MethodPost, srv.URL+string(AggregationSourcesURI), src, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register = %d: %s", resp.StatusCode, body)
	}
	loc := resp.Header.Get("Location")

	// Agent publishes its subtree (in-process path).
	err := svc.Store().PutSubtree(fab, map[odata.ID]any{
		fab: redfish.Fabric{
			Resource:   odata.NewResource(fab, redfish.TypeFabric, "NVMe"),
			FabricType: redfish.ProtocolNVMeOF,
			Status:     odata.StatusOK(),
		},
		fab.Append("Endpoints/E1"): redfish.Endpoint{
			Resource:         odata.NewResource(fab.Append("Endpoints/E1"), redfish.TypeEndpoint, "E1"),
			EndpointProtocol: redfish.ProtocolNVMeOF,
			Status:           odata.StatusOK(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = doJSON(t, http.MethodGet, srv.URL+string(fab.Append("Endpoints/E1")), nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregated resource not served: %d", resp.StatusCode)
	}

	// Deleting the aggregation source drops the subtree.
	resp, _ = doJSON(t, http.MethodDelete, srv.URL+loc, nil, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("deregister = %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodGet, srv.URL+string(fab), nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("subtree survived deregistration: %d", resp.StatusCode)
	}
}

func TestTaskMirroredIntoTree(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	task := svc.Tasks().Start("compose system")
	resp, body := doJSON(t, http.MethodGet, srv.URL+string(task.URI()), nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var rt redfish.Task
	if err := json.Unmarshal(body, &rt); err != nil {
		t.Fatal(err)
	}
	if rt.TaskState != redfish.TaskRunning {
		t.Errorf("state = %s", rt.TaskState)
	}
	if err := task.Complete("ok"); err != nil {
		t.Fatal(err)
	}
	_, body = doJSON(t, http.MethodGet, srv.URL+string(task.URI()), nil, nil)
	if err := json.Unmarshal(body, &rt); err != nil {
		t.Fatal(err)
	}
	if rt.TaskState != redfish.TaskCompleted {
		t.Errorf("state = %s", rt.TaskState)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	req, _ := http.NewRequest("PUT", srv.URL+string(RootURI), bytes.NewReader([]byte("{}")))
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestCollectionMutationRejected(t *testing.T) {
	_, srv := newTestServer(t, Config{DirectWrites: true})
	resp, _ := doJSON(t, http.MethodPatch, srv.URL+string(SystemsURI), map[string]any{"Name": "x"}, nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("patch collection = %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodDelete, srv.URL+string(SystemsURI), nil, nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("delete collection = %d", resp.StatusCode)
	}
}

func TestMalformedJSON(t *testing.T) {
	_, srv := newTestServer(t, Config{DirectWrites: true})
	req, _ := http.NewRequest(http.MethodPost, srv.URL+string(SystemsURI), bytes.NewReader([]byte("{not json")))
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestTrailingSlashEquivalent(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	resp, _ := doJSON(t, http.MethodGet, srv.URL+"/redfish/v1/", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestConcurrentClients(t *testing.T) {
	svc, srv := newTestServer(t, Config{DirectWrites: true})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, _ := doJSON(t, http.MethodPost, srv.URL+string(ChassisURI), map[string]any{"Name": fmt.Sprintf("c%d-%d", g, i)}, nil)
				if resp.StatusCode != http.StatusCreated {
					t.Errorf("post = %d", resp.StatusCode)
					return
				}
				resp, _ = doJSON(t, http.MethodGet, srv.URL+string(ChassisURI), nil, nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("get = %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	members, err := svc.Store().Members(ChassisURI)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 160 {
		t.Errorf("members = %d, want 160", len(members))
	}
}
