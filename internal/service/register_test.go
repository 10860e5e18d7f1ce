package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/store"
)

// TestRegisterConcurrentSameHost is the regression test for the
// registration race: the HostName dedup lookup used to run outside
// allocMu, so concurrent registrations of one HostName could both miss
// the existing source and mint duplicates. 100 goroutines registering
// the same callback URL must converge on exactly one source.
func TestRegisterConcurrentSameHost(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()

	const goroutines = 100
	const host = "http://agent-1.example:9000"
	uris := make([]string, goroutines)
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			src, _, err := svc.RegisterAggregationSource(context.Background(),
				redfish.AggregationSource{HostName: host})
			if err != nil {
				t.Errorf("register %d: %v", i, err)
				return
			}
			uris[i] = string(src.ODataID)
		}(i)
	}
	start.Done()
	wg.Wait()

	members, err := svc.Store().Members(AggregationSourcesURI)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 {
		t.Fatalf("want exactly 1 aggregation source, got %d: %v", len(members), members)
	}
	for i, uri := range uris {
		if uri != string(members[0]) {
			t.Fatalf("goroutine %d got URI %q, want %q", i, uri, members[0])
		}
	}
	var stored redfish.AggregationSource
	if err := svc.Store().GetAs(members[0], &stored); err != nil {
		t.Fatal(err)
	}
	if stored.HostName != host {
		t.Fatalf("stored HostName = %q, want %q", stored.HostName, host)
	}
}

// TestRegisterManyHostsConcurrent checks that distinct hosts never
// collide on allocated ids and each maps to its own source.
func TestRegisterManyHostsConcurrent(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()

	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			host := fmt.Sprintf("http://agent-%d.example:9000", i)
			// Register twice: the second must revive, not duplicate.
			if _, created, err := svc.RegisterAggregationSource(context.Background(),
				redfish.AggregationSource{HostName: host}); err != nil || !created {
				t.Errorf("host %d first register: created=%v err=%v", i, created, err)
			}
			if _, created, err := svc.RegisterAggregationSource(context.Background(),
				redfish.AggregationSource{HostName: host}); err != nil || created {
				t.Errorf("host %d second register: created=%v err=%v", i, created, err)
			}
		}(i)
	}
	wg.Wait()

	members, err := svc.Store().Members(AggregationSourcesURI)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != n {
		t.Fatalf("want %d aggregation sources, got %d", n, len(members))
	}
}

// TestHostIndexDeleteRecreate drives the host index with a
// delete-then-recreate cycle at the same HostName and checks the index
// tracks the live source, including when a stale pre-delete
// notification replays after the delete (the projection re-reads the
// tree, so it is harmless).
func TestHostIndexDeleteRecreate(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	ctx := context.Background()
	const host = "http://churn.example:9000"

	first, _, err := svc.RegisterAggregationSource(ctx, redfish.AggregationSource{HostName: host})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Store().Delete(first.ODataID); err != nil {
		t.Fatal(err)
	}
	if uri, ok := svc.liveness.lookup(host); ok {
		t.Fatalf("host still indexed after delete: %s", uri)
	}
	second, created, err := svc.RegisterAggregationSource(ctx, redfish.AggregationSource{HostName: host})
	if err != nil || !created {
		t.Fatalf("re-register after delete: created=%v err=%v", created, err)
	}
	if second.ODataID == first.ODataID {
		t.Fatalf("recreated source reused deleted URI %s", first.ODataID)
	}
	if uri, ok := svc.liveness.lookup(host); !ok || uri != second.ODataID {
		t.Fatalf("index maps %q to %q, want %q", host, uri, second.ODataID)
	}

	// A stale pre-delete notification (lower seq than the recreate) must
	// not clobber the live mapping.
	svc.liveness.onChange(store.Change{Kind: store.Updated, ID: first.ODataID, Seq: 1})
	if uri, ok := svc.liveness.lookup(host); !ok || uri != second.ODataID {
		t.Fatalf("stale notification clobbered index: %q → %q, want %q", host, uri, second.ODataID)
	}
}

// TestAggregationSourceClaims: an AggregationSource's claims
// (Links.ResourcesAccessed) decide which requests are forwarded to the
// source's host and what deleting the source removes, so a POST may only
// claim a subtree strictly below a top-level collection, and never one
// that nests with a subtree another handler serves. Before the check,
// claiming /redfish/v1/Systems returned 201, captured every Systems
// PATCH, and DELETE of the source removed every system.
func TestAggregationSourceClaims(t *testing.T) {
	svc, srv := newTestServer(t, Config{DirectWrites: true})
	node := SystemsURI.Append("node001")
	if err := svc.Store().Put(node, redfish.ComputerSystem{
		Resource: odata.NewResource(node, redfish.TypeComputerSystem, "node001"),
	}); err != nil {
		t.Fatal(err)
	}
	owned := FabricsURI.Append("CXL")
	if err := svc.RegisterFabricHandler(owned, &fakeHandler{}); err != nil {
		t.Fatal(err)
	}
	post := func(host string, claims ...odata.ID) (*http.Response, []byte) {
		t.Helper()
		return doJSON(t, http.MethodPost, srv.URL+string(AggregationSourcesURI), redfish.AggregationSource{
			HostName: host,
			Links:    redfish.AggSourceLinks{ResourcesAccessed: odata.RefSlice(claims)},
		}, nil)
	}
	before, err := svc.Store().Export()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		claim odata.ID
		want  int
	}{
		{SystemsURI, http.StatusBadRequest}, // a whole top-level collection
		{RootURI, http.StatusBadRequest},
		{"/redfish/v1/Systems/../Chassis", http.StatusBadRequest},
		{"/redfish/v1/Systems/", http.StatusBadRequest},
		{AggregationSourcesURI, http.StatusBadRequest}, // a service's own resources
		{SessionsURI.Append("1"), http.StatusBadRequest},
		{"/elsewhere/x/y", http.StatusBadRequest},
		{owned.Append("Endpoints"), http.StatusConflict}, // inside a served subtree
	} {
		resp, body := post("http://rogue.example:9000", tc.claim)
		if resp.StatusCode != tc.want || !bytes.Contains(body, []byte("@Message.ExtendedInfo")) {
			t.Errorf("claim %q = %d %s, want %d with the Redfish envelope", tc.claim, resp.StatusCode, body, tc.want)
		}
	}
	if err := svc.RegisterFabricHandler(FabricsURI, &fakeHandler{}); !errors.Is(err, ErrPrefixConflict) {
		t.Errorf("handler for a prefix containing a served subtree: err = %v", err)
	}
	after, err := svc.Store().Export()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("refused registrations changed the tree:\nbefore %s\nafter  %s", before, after)
	}
	if _, h, ok := svc.handlerFor(node); ok {
		t.Errorf("a handler serves %s: %T", node, h)
	}

	// A legitimate agent registers, and a restart-style re-registration
	// (same HostName, same claims) revives the one source.
	const host = "http://nvme.example:9001"
	fab := FabricsURI.Append("NVMe")
	resp, body := post(host, fab, StorageURI.Append("JBOF1"))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register = %d %s", resp.StatusCode, body)
	}
	loc := resp.Header.Get("Location")
	resp, body = post(host, fab, StorageURI.Append("JBOF1"))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Location") != loc {
		t.Fatalf("re-register = %d at %q, want 200 at %q: %s", resp.StatusCode, resp.Header.Get("Location"), loc, body)
	}
	if prefix, _, ok := svc.handlerFor(fab.Append("Connections", "1")); !ok || prefix != fab {
		t.Errorf("handlerFor under %s = %q, %v", fab, prefix, ok)
	}
	// A claim equal to one of the source's, in another set, is the same
	// conflict as a nesting one.
	if resp, body := post("http://other.example:9001", fab); resp.StatusCode != http.StatusConflict {
		t.Errorf("a part of a served claim set = %d %s, want 409", resp.StatusCode, body)
	}

	// The stored claim list is patchable: a claim registration would have
	// refused is not honoured when the source is deleted.
	resp, body = doJSON(t, http.MethodPatch, srv.URL+loc, map[string]any{
		"Links": map[string]any{"ResourcesAccessed": odata.RefSlice([]odata.ID{SystemsURI})},
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch = %d %s", resp.StatusCode, body)
	}
	if resp, _ := doJSON(t, http.MethodDelete, srv.URL+loc, nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	if !svc.Store().Exists(node) {
		t.Errorf("deleting the source removed %s", node)
	}
}
