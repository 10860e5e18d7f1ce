package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ofmf/internal/odata"
	"ofmf/internal/redfish"
)

// opsAgent is a remote agent's ops server: it accepts every forwarded
// operation and counts them.
type opsAgent struct {
	url string
	ops atomic.Int64
}

func newOpsAgent(t *testing.T) *opsAgent {
	t.Helper()
	a := &opsAgent{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a.ops.Add(1)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{}`))
	}))
	t.Cleanup(srv.Close)
	a.url = srv.URL
	return a
}

// register POSTs a remote source for a claiming the subtrees.
func (a *opsAgent) register(t *testing.T, base string, claims ...odata.ID) odata.ID {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, base+string(AggregationSourcesURI), redfish.AggregationSource{
		HostName: a.url, Links: redfish.AggSourceLinks{ResourcesAccessed: odata.RefSlice(claims)},
	}, nil)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("register %s = %d: %s", a.url, resp.StatusCode, body)
	}
	return odata.ID(resp.Header.Get("Location"))
}

// connect POSTs a connection to the fabric's Connections and reports
// which agents received an op for it.
func connect(t *testing.T, base string, fabric odata.ID, agents ...*opsAgent) []bool {
	t.Helper()
	before := make([]int64, len(agents))
	for i, a := range agents {
		before[i] = a.ops.Load()
	}
	resp, body := doJSON(t, http.MethodPost, base+string(fabric.Append("Connections")), redfish.Connection{}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST %s/Connections = %d: %s", fabric, resp.StatusCode, body)
	}
	got := make([]bool, len(agents))
	for i, a := range agents {
		got[i] = a.ops.Load() > before[i]
	}
	return got
}

func deleteSource(t *testing.T, base string, src odata.ID) {
	t.Helper()
	if resp, body := doJSON(t, http.MethodDelete, base+string(src), nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE %s = %d: %s", src, resp.StatusCode, body)
	}
}

// TestRemoteForwardingFollowsTheTree: a remote agent's forwarding is the
// AggregationSources projection's, so it comes back however the source
// does — a reboot from the data dir, a promotion after applying the
// leader's records, an admin restore — and goes with the source's
// DELETE. A second registration of equal claims supersedes the first.
func TestRemoteForwardingFollowsTheTree(t *testing.T) {
	fabric := FabricsURI.Append("Remote")
	agent := newOpsAgent(t)

	t.Run("reboot", func(t *testing.T) {
		dir := t.TempDir()
		svc, srv := boot(t, dir, Config{})
		agent.register(t, srv.URL, fabric)
		if got := connect(t, srv.URL, fabric, agent); !got[0] {
			t.Fatal("before the reboot the agent got no op")
		}
		kill(svc, srv)
		_, srv = boot(t, dir, Config{})
		if got := connect(t, srv.URL, fabric, agent); !got[0] {
			t.Error("after the reboot the agent got no op")
		}
	})

	t.Run("promotion", func(t *testing.T) {
		leader, lsrv := newTestServer(t, Config{})
		replica, rsrv := newTestServer(t, Config{})
		leader.Store().AttachBackend(follower{replica.Store()}, 0)
		replica.SetReplicaMode(func() string { return lsrv.URL })
		agent.register(t, lsrv.URL, fabric)
		replica.ClearReplicaMode()
		if got := connect(t, rsrv.URL, fabric, agent); !got[0] {
			t.Error("on the promoted replica the agent got no op")
		}
	})

	t.Run("restore and delete", func(t *testing.T) {
		_, from := newTestServer(t, Config{})
		src := agent.register(t, from.URL, fabric)
		resp, dump := doJSON(t, http.MethodGet, from.URL+string(AdminTreeOemURI), nil, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("dump = %d", resp.StatusCode)
		}
		_, srv := newTestServer(t, Config{})
		if resp, body := doJSON(t, http.MethodPost, srv.URL+string(AdminTreeOemURI), json.RawMessage(dump), nil); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("restore = %d: %s", resp.StatusCode, body)
		}
		if got := connect(t, srv.URL, fabric, agent); !got[0] {
			t.Error("after the restore the agent got no op")
		}
		deleteSource(t, srv.URL, src)
		if got := connect(t, srv.URL, fabric, agent); got[0] {
			t.Error("after its source's DELETE the agent still got an op")
		}
	})

	t.Run("equal claims", func(t *testing.T) {
		svc, srv := newTestServer(t, Config{})
		a, b := newOpsAgent(t), newOpsAgent(t)
		srcA := a.register(t, srv.URL, fabric)
		if srcB := b.register(t, srv.URL, fabric); srcB != srcA {
			t.Errorf("the second registration stored %s, want it to supersede %s", srcB, srcA)
		}
		if members, _ := svc.Store().Members(AggregationSourcesURI); len(members) != 1 {
			t.Errorf("sources %v, want one", members)
		}
		if got := connect(t, srv.URL, fabric, a, b); got[0] || !got[1] {
			t.Errorf("ops reached %v, want the last registered agent only", got)
		}
	})
}

// TestPatchedClaimsCannotTakeRouting: claims the projection installs obey
// registration's rules, so a PATCH cannot route a served subtree, or part
// of one, or a service collection, to another agent.
func TestPatchedClaimsCannotTakeRouting(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	owner, intruder := newOpsAgent(t), newOpsAgent(t)
	owned, other := FabricsURI.Append("Owned"), FabricsURI.Append("Other")
	owner.register(t, srv.URL, owned)
	src := intruder.register(t, srv.URL, other)
	claim := func(ids ...odata.ID) {
		t.Helper()
		patch := map[string]any{"Links": map[string]any{"ResourcesAccessed": odata.RefSlice(ids)}}
		if resp, body := doJSON(t, http.MethodPatch, srv.URL+string(src), patch, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("PATCH claims = %d: %s", resp.StatusCode, body)
		}
	}
	claim(owned.Append("Connections"), SystemsURI, other)
	if got := connect(t, srv.URL, owned, owner, intruder); !got[0] || got[1] {
		t.Errorf("ops under the owned fabric reached %v, want its owner only", got)
	}
	if _, _, ok := svc.handlerFor(SystemsURI.Append("x")); ok {
		t.Error("a claim on the Systems collection is forwarded")
	}
	if got := connect(t, srv.URL, other, intruder); !got[0] {
		t.Error("the valid claim beside the refused ones is not forwarded")
	}
	claim(owned)
	if got := connect(t, srv.URL, owned, owner, intruder); !got[0] || got[1] {
		t.Errorf("after the intruder claimed the owned fabric itself, ops under it reached %v, want its owner only", got)
	}
}

// TestDeleteDropsOnlyHeldSubtrees: DELETE of a source removes the
// subtrees it holds in the handler index, and nothing another source
// serves. Two agents registering one fabric leave one source; an
// intruder whose PATCHed claim collides with it deletes nothing of it.
func TestDeleteDropsOnlyHeldSubtrees(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	fabric, other := FabricsURI.Append("Shared"), FabricsURI.Append("Other")
	a, b, intruder := newOpsAgent(t), newOpsAgent(t), newOpsAgent(t)
	src := a.register(t, srv.URL, fabric)
	b.register(t, srv.URL, fabric)
	endpoint := fabric.Append("Endpoints", "1")
	mustPut(t, svc.Store(), endpoint, odata.NewResource(endpoint, redfish.TypeEndpoint, "EP 1"))
	if members, _ := svc.Store().Members(AggregationSourcesURI); len(members) != 1 {
		t.Errorf("two registrations of one fabric left sources %v, want one", members)
	}

	stray := intruder.register(t, srv.URL, other)
	patch := map[string]any{"Links": map[string]any{"ResourcesAccessed": odata.RefSlice([]odata.ID{fabric})}}
	if resp, body := doJSON(t, http.MethodPatch, srv.URL+string(stray), patch, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH claims = %d: %s", resp.StatusCode, body)
	}
	deleteSource(t, srv.URL, stray)
	if !svc.Store().Exists(endpoint) {
		t.Error("deleting a source whose PATCHed claim collided erased the subtree another source serves")
	}
	if got := connect(t, srv.URL, fabric, b, intruder); !got[0] || got[1] {
		t.Errorf("ops under the fabric reached %v, want b only", got)
	}

	deleteSource(t, srv.URL, src)
	if svc.Store().Exists(endpoint) {
		t.Error("deleting the source that holds the fabric left its subtree")
	}
	if _, _, ok := svc.handlerFor(endpoint); ok {
		t.Error("the deleted source's subtree is still forwarded")
	}
}

// TestHeartbeatDoesNoForwardingWork: a heartbeat keeps the host and the
// claims, so the projection leaves the forwarding alone — it completes
// while the service's handler lock is held elsewhere.
func TestHeartbeatDoesNoForwardingWork(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	src := newOpsAgent(t).register(t, srv.URL, FabricsURI.Append("Remote"))
	svc.mu.Lock()
	done := make(chan error, 1)
	go func() {
		done <- svc.Store().Patch(src, map[string]any{"Oem": map[string]any{"OFMF": map[string]any{"LastHeartbeat": "2026-01-01T00:00:00Z"}}}, "")
	}()
	select {
	case err := <-done:
		svc.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		svc.mu.Unlock()
		t.Fatal("a heartbeat waited for the service's handler lock")
	}
}
