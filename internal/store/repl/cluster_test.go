package repl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
)

// quietLogger keeps replication chatter out of test output.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// testNode is one in-process cluster member: a full OFMF service and a
// replication node sharing one listener, exactly as cmd/ofmf wires
// them.
type testNode struct {
	svc  *service.Service
	node *Node
	mux  *http.ServeMux
	srv  *httptest.Server
	dead atomic.Bool
	repl reqCounter // requests the node's /repl/v1 handler served
}

func (tn *testNode) URL() string { return tn.srv.URL }

// kill simulates the process dying: open connections are severed and
// the listener stops accepting.
func (tn *testNode) kill() {
	tn.dead.Store(true)
	tn.node.Stop()
	tn.srv.CloseClientConnections()
	tn.srv.Close()
}

type testCluster struct {
	t     *testing.T
	nodes []*testNode
}

// startTestCluster builds a 1-leader/(n-1)-replica cluster. mut can
// adjust each node's Config before the node is built (MinSync, ring
// size, fault-injecting clients, ...). All listeners exist before any
// node starts, so peer discovery never races handler registration.
func startTestCluster(t *testing.T, n int, mut func(i int, cfg *Config)) *testCluster {
	t.Helper()
	c := &testCluster{t: t}
	muxes := make([]*http.ServeMux, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		muxes[i] = http.NewServeMux()
		srv := httptest.NewServer(muxes[i])
		urls[i] = srv.URL
		c.nodes = append(c.nodes, &testNode{mux: muxes[i], srv: srv})
	}
	for i := 0; i < n; i++ {
		tn := c.nodes[i]
		tn.svc = service.New(service.Config{Logger: quietLogger(), DirectWrites: true})
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		cfg := Config{
			Store:        tn.svc.Store(),
			Self:         urls[i],
			Peers:        peers,
			Leader:       i == 0,
			MinSync:      1,
			SyncTimeout:  5 * time.Second,
			LeaseTimeout: 300 * time.Millisecond,
			Logger:       quietLogger(),
		}
		if mut != nil {
			mut(i, &cfg)
		}
		svc := tn.svc
		var node *Node
		if cfg.OnLeader == nil {
			cfg.OnLeader = func(uint64) { svc.ClearReplicaMode() }
		}
		if cfg.OnFollower == nil {
			cfg.OnFollower = func(string) {
				svc.SetReplicaMode(func() string { return node.LeaderURL() })
			}
		}
		var err error
		node, err = NewNode(cfg)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		tn.node = node
		tn.mux.Handle("/", tn.svc.Handler())
		tn.mux.Handle(PathPrefix, tn.repl.wrap(node.Handler()))
	}
	for _, tn := range c.nodes {
		tn.node.Start()
	}
	t.Cleanup(func() {
		// Stop every node before closing any listener, and sever the
		// long-lived replication streams explicitly — Close alone waits
		// for active connections that would otherwise idle out a lease.
		for _, tn := range c.nodes {
			if !tn.dead.Load() {
				tn.node.Stop()
			}
		}
		for _, tn := range c.nodes {
			if !tn.dead.Load() {
				tn.srv.CloseClientConnections()
				tn.srv.Close()
			}
			tn.svc.Close()
		}
	})
	return c
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %s waiting for %s", d, what)
}

// waitConverged waits until every live node's applied sequence matches
// the leader's last committed one.
func (c *testCluster) waitConverged(d time.Duration) {
	c.t.Helper()
	waitFor(c.t, d, "cluster convergence", func() bool {
		var leader *testNode
		for _, tn := range c.nodes {
			if !tn.dead.Load() && tn.node.Leading() {
				leader = tn
			}
		}
		if leader == nil {
			return false
		}
		want := leader.node.Status().LastSeq
		for _, tn := range c.nodes {
			if tn.dead.Load() || tn == leader {
				continue
			}
			if tn.node.Status().LastSeq != want {
				return false
			}
		}
		return true
	})
}

func (c *testCluster) leader() *testNode {
	c.t.Helper()
	for _, tn := range c.nodes {
		if !tn.dead.Load() && tn.node.Leading() {
			return tn
		}
	}
	c.t.Fatal("no live leader")
	return nil
}

// postChassis creates one chassis through the HTTP surface and returns
// the created resource's URI. A 201 response is an acknowledged write.
func postChassis(client *http.Client, base, name string) (odata.ID, error) {
	body, _ := json.Marshal(map[string]any{"ChassisType": "Sled", "Name": name})
	resp, err := client.Post(base+string(service.ChassisURI), "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("POST chassis: %s: %s", resp.Status, data)
	}
	var created redfish.Chassis
	if err := json.Unmarshal(data, &created); err != nil {
		return "", err
	}
	return created.ODataID, nil
}

// TestReplShipAndServe is the basic shipping path: writes on the
// leader appear on every replica, replica GETs serve locally, and the
// trees converge byte-identically.
func TestReplShipAndServe(t *testing.T) {
	c := startTestCluster(t, 3, nil)
	leader := c.nodes[0]
	waitFor(t, 5*time.Second, "followers connected", func() bool {
		return len(leader.node.Status().Followers) == 2
	})

	client := leader.srv.Client()
	var uris []odata.ID
	for i := 0; i < 25; i++ {
		uri, err := postChassis(client, leader.URL(), fmt.Sprintf("sled-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		uris = append(uris, uri)
	}
	c.waitConverged(5 * time.Second)

	for _, replica := range c.nodes[1:] {
		if replica.node.Leading() {
			t.Fatal("replica claims leadership")
		}
		// Replica GETs are served from the local replicated tree, not
		// redirected: a plain client that refuses redirects must get 200.
		noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		}}
		resp, err := noRedirect.Get(replica.URL() + string(uris[len(uris)-1]))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replica GET %s: %s", uris[len(uris)-1], resp.Status)
		}
	}

	want, err := leader.svc.Store().Export()
	if err != nil {
		t.Fatal(err)
	}
	for i, replica := range c.nodes[1:] {
		got, err := replica.svc.Store().Export()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("replica %d export differs from leader (%d vs %d bytes)", i+1, len(got), len(want))
		}
	}
}

// TestReplReplicaForwardsWrites: mutations against a replica carry the
// client to the leader — as a 307 with the leader's Location,
// transparently when the default client follows it — and a replica
// between leaders answers 503.
func TestReplReplicaForwardsWrites(t *testing.T) {
	c := startTestCluster(t, 2, nil)
	leader, replica := c.nodes[0], c.nodes[1]
	waitFor(t, 5*time.Second, "follower connected", func() bool {
		return len(leader.node.Status().Followers) == 1
	})

	// Raw redirect first: the Location must point at the leader.
	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := noRedirect.Post(replica.URL()+string(service.ChassisURI), "application/json",
		bytes.NewReader([]byte(`{"ChassisType":"Sled"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("replica POST: want 307, got %s", resp.Status)
	}
	if loc := resp.Header.Get("Location"); loc != leader.URL()+string(service.ChassisURI) {
		t.Fatalf("replica POST Location = %q, want leader %q", loc, leader.URL()+string(service.ChassisURI))
	}

	// A redirect-following client lands the write on the leader.
	uri, err := postChassis(http.DefaultClient, replica.URL(), "via-replica")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := leader.svc.Store().Get(uri); err != nil {
		t.Fatalf("write via replica did not reach leader: %v", err)
	}

	// SSE follows the leader too: the event plane is leader-owned.
	resp, err = noRedirect.Get(replica.URL() + string(service.SSEURI))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("replica SSE GET: want 307, got %s", resp.Status)
	}

	// Between leaders there is nowhere to send a write: 503, not a hang.
	replica.svc.SetReplicaMode(func() string { return "" })
	resp, err = noRedirect.Post(replica.URL()+string(service.ChassisURI), "application/json",
		bytes.NewReader([]byte(`{"ChassisType":"Sled"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("replica POST with no leader: want 503, got %s", resp.Status)
	}
}

// TestReplSmoke is the failover gate `make replsmoke` runs: a
// 1-leader/2-replica cluster loses its leader under mixed load; a
// replica must promote, clients must be carried to the new leader, no
// acknowledged write may be lost, and the survivors' trees must
// converge byte-identically.
func TestReplSmoke(t *testing.T) {
	c := startTestCluster(t, 3, nil)
	first := c.nodes[0]
	waitFor(t, 5*time.Second, "followers connected", func() bool {
		return len(first.node.Status().Followers) == 2
	})

	// Writers POST against whatever node currently works, following
	// redirects like a real Redfish client; every 201 is an
	// acknowledged write and must survive the failover.
	const writers, writesPer = 4, 25
	var mu sync.Mutex
	var acked []odata.ID
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 2 * time.Second}
			for i := 0; i < writesPer; i++ {
				name := fmt.Sprintf("w%d-c%d", w, i)
				deadline := time.Now().Add(15 * time.Second)
				for {
					var uri odata.ID
					var err error
					for _, tn := range c.nodes {
						if tn.dead.Load() {
							continue
						}
						if uri, err = postChassis(client, tn.URL(), name); err == nil {
							break
						}
					}
					if err == nil {
						mu.Lock()
						acked = append(acked, uri)
						mu.Unlock()
						break
					}
					if time.Now().After(deadline) {
						t.Errorf("writer %d: write %d never acknowledged: %v", w, i, err)
						return
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
		}(w)
	}

	// Let the load ramp, then kill the leader mid-stream.
	waitFor(t, 10*time.Second, "load ramp", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(acked) >= 10
	})
	first.kill()

	// A replica must take over.
	var promoted *testNode
	waitFor(t, 10*time.Second, "replica promotion", func() bool {
		for _, tn := range c.nodes[1:] {
			if tn.node.Leading() {
				promoted = tn
				return true
			}
		}
		return false
	})
	if got := promoted.node.Status().Epoch; got < 2 {
		t.Fatalf("promoted leader epoch = %d, want >= 2", got)
	}

	wg.Wait()
	if t.Failed() {
		return
	}
	c.waitConverged(10 * time.Second)

	// Zero acknowledged-write loss: every 201'd URI is on the new leader.
	lost := 0
	for _, uri := range acked {
		if _, _, err := promoted.svc.Store().Get(uri); err != nil {
			t.Errorf("acknowledged write lost in failover: %s", uri)
			lost++
		}
	}
	mu.Lock()
	total := len(acked)
	mu.Unlock()
	if total != writers*writesPer {
		t.Fatalf("acknowledged %d writes, want %d", total, writers*writesPer)
	}
	t.Logf("failover survived: %d acknowledged writes, %d lost, new epoch %d",
		total, lost, promoted.node.Status().Epoch)

	// Byte-identical convergence across the survivors.
	want, err := promoted.svc.Store().Export()
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range c.nodes[1:] {
		if tn == promoted || tn.dead.Load() {
			continue
		}
		got, err := tn.svc.Store().Export()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("survivor exports diverge (%d vs %d bytes)", len(got), len(want))
		}
	}
}

// TestReplFailoverDeliversOnce: subscriptions are a projection of the
// replicated tree, so every node holds them, but only the leader
// announces. A write at the leader is delivered once — no replica
// echoes it — and after the leader dies, a write at the promoted node
// is delivered once, under an EventId above every earlier one: the
// promoted node continues the commit sequence the EventIds are.
func TestReplFailoverDeliversOnce(t *testing.T) {
	var mu sync.Mutex
	var got []redfish.EventRecord
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ev redfish.Event
		_ = json.NewDecoder(r.Body).Decode(&ev)
		mu.Lock()
		got = append(got, ev.Events...)
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	defer hook.Close()
	// settled waits for n deliveries, then long enough for a duplicate.
	settled := func(n int) []redfish.EventRecord {
		waitFor(t, 5*time.Second, fmt.Sprintf("%d deliveries", n), func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(got) >= n
		})
		time.Sleep(100 * time.Millisecond)
		mu.Lock()
		defer mu.Unlock()
		return append([]redfish.EventRecord(nil), got...)
	}

	c := startTestCluster(t, 3, nil)
	first := c.nodes[0]
	waitFor(t, 5*time.Second, "followers connected", func() bool {
		return len(first.node.Status().Followers) == 2
	})
	body, _ := json.Marshal(redfish.EventDestination{Destination: hook.URL, EventTypes: []string{redfish.EventResourceAdded}})
	resp, err := http.Post(first.URL()+string(service.SubscriptionsURI), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("subscribe at the leader = %s", resp.Status)
	}
	c.waitConverged(5 * time.Second)
	for i, tn := range c.nodes {
		if ids := tn.svc.Bus().Subscriptions(); len(ids) != 1 {
			t.Fatalf("node %d bus subscriptions = %v, want the stored one", i, ids)
		}
	}

	client := &http.Client{Timeout: 2 * time.Second}
	before, err := postChassis(client, first.URL(), "before")
	if err != nil {
		t.Fatal(err)
	}
	if recs := settled(1); len(recs) != 1 || recs[0].OriginOfCondition.ODataID != before {
		t.Fatalf("a leader write was delivered as %+v, want once about %s", recs, before)
	}

	first.kill()
	var promoted *testNode
	waitFor(t, 10*time.Second, "replica promotion", func() bool {
		for _, tn := range c.nodes[1:] {
			if tn.node.Leading() {
				promoted = tn
				return true
			}
		}
		return false
	})
	after, err := postChassis(client, promoted.URL(), "after")
	if err != nil {
		t.Fatal(err)
	}
	recs := settled(2)
	if len(recs) != 2 || recs[1].OriginOfCondition.ODataID != after {
		t.Fatalf("deliveries %+v, want one more, about %s", recs, after)
	}
	seq := func(rec redfish.EventRecord) uint64 {
		n, err := strconv.ParseUint(rec.EventID, 10, 64)
		if err != nil {
			t.Fatalf("EventId %q is not a sequence number", rec.EventID)
		}
		return n
	}
	if got, want := seq(recs[1]), promoted.svc.Store().Seq(); got != want {
		t.Errorf("promoted node's EventId %d, want the write's commit sequence %d", got, want)
	}
	if seq(recs[1]) <= seq(recs[0]) {
		t.Errorf("promoted node's EventId %s is not above the old leader's %s", recs[1].EventID, recs[0].EventID)
	}
}
