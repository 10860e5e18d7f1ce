package repl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ofmf/internal/odata"
	"ofmf/internal/service"
	"ofmf/internal/store"
	"ofmf/internal/store/persist"
)

// lateNode is a cluster member whose replication node starts after the
// leader has already accumulated history — the snapshot-bootstrap
// scenarios staggered starts that startTestCluster cannot express.
type lateNode struct {
	svc  *service.Service
	node *Node
	srv  *httptest.Server
}

func (ln *lateNode) stop() {
	if ln.node != nil {
		ln.node.Stop()
	}
	ln.srv.CloseClientConnections()
	ln.srv.Close()
	if ln.svc != nil {
		ln.svc.Close()
	}
}

// newLateNode reserves a listener (so peers can name this node before
// it runs) without building the service or replication node yet.
func newLateNode() (*lateNode, *http.ServeMux) {
	mux := http.NewServeMux()
	return &lateNode{srv: httptest.NewServer(mux)}, mux
}

// start builds the service and node on the reserved listener.
func (ln *lateNode) start(t *testing.T, mux *http.ServeMux, mut func(cfg *Config)) {
	t.Helper()
	ln.svc = service.New(service.Config{Logger: quietLogger(), DirectWrites: true})
	cfg := Config{
		Store:        ln.svc.Store(),
		Self:         ln.srv.URL,
		LeaseTimeout: 300 * time.Millisecond,
		Logger:       quietLogger(),
	}
	if mut != nil {
		mut(&cfg)
	}
	node, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln.node = node
	mux.Handle("/", ln.svc.Handler())
	mux.Handle(PathPrefix, node.Handler())
	node.Start()
}

// TestReplSnapshotBootstrapMidStream: a replica that joins after the
// leader's in-memory backlog has evicted the history it needs must
// bootstrap from a snapshot at the leader's current position and then
// catch up over the stream with no gap and no duplicate apply — ending
// byte-identical, and staying contiguous through later writes without
// another bootstrap.
func TestReplSnapshotBootstrapMidStream(t *testing.T) {
	leader, leaderMux := newLateNode()
	replica, replicaMux := newLateNode()
	defer leader.stop()
	defer replica.stop()

	leader.start(t, leaderMux, func(cfg *Config) {
		cfg.Leader = true
		cfg.Peers = []string{replica.srv.URL}
		cfg.RingSize = 64
	})

	// Push the backlog far past its ring so seq 1 is long evicted; with
	// no disk tail configured, a from-zero follower can only be served
	// by a snapshot.
	client := leader.srv.Client()
	for i := 0; i < 300; i++ {
		if _, err := postChassis(client, leader.srv.URL, fmt.Sprintf("pre-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	hub := leader.node.currentHub()
	if hub.RingFirst() <= 1 {
		t.Fatalf("backlog never trimmed (ringFirst=%d); snapshot path not exercised", hub.RingFirst())
	}

	replica.start(t, replicaMux, func(cfg *Config) {
		cfg.Peers = []string{leader.srv.URL}
	})
	waitFor(t, 5*time.Second, "replica caught up past the evicted backlog", func() bool {
		return replica.node.Status().LastSeq == hub.LastSeq()
	})

	// The stream must keep flowing contiguously after the bootstrap; a
	// second bootstrap or a sequence gap would show up as divergence or
	// a stalled LastSeq.
	for i := 0; i < 40; i++ {
		if _, err := postChassis(client, leader.srv.URL, fmt.Sprintf("post-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "replica followed post-bootstrap writes", func() bool {
		return replica.node.Status().LastSeq == hub.LastSeq()
	})

	want, err := leader.svc.Store().Export()
	if err != nil {
		t.Fatal(err)
	}
	got, err := replica.svc.Store().Export()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("replica export differs after snapshot bootstrap (%d vs %d bytes)", len(got), len(want))
	}
}

// TestReplBootstrapAtDepthLimit: a late replica bootstraps from a leader
// holding a payload nested 9 999 deep, which Put accepts and a Cut
// document holds one level deeper, at encoding/json's limit. Decoding
// the whole reply would count two levels past the payload and refuse
// it, so the replica would retry its bootstrap forever; read by hand,
// the document is counted on its own and the replica holds the payload
// byte for byte. So it does with one the leader takes later, which
// arrives in a rec frame, two levels past the payload too. The leader
// also holds NextID marks under ids the encoder escapes, whose HiWater
// object is not read by hand: it is decoded on its own, not with the
// document after it.
func TestReplBootstrapAtDepthLimit(t *testing.T) {
	leader, leaderMux := newLateNode()
	replica, replicaMux := newLateNode()
	defer leader.stop()
	defer replica.stop()

	leader.start(t, leaderMux, func(cfg *Config) {
		cfg.Leader = true
		cfg.Peers = []string{replica.srv.URL}
	})
	const id = odata.ID("/redfish/v1/Chassis/deep")
	deep := strings.Repeat(`{"a":`, 9998) + `{"Name":"deep"}` + strings.Repeat("}", 9998)
	if err := leader.svc.Store().Put(id, json.RawMessage(deep)); err != nil {
		t.Fatalf("Put of a payload nested 9 999 deep: %v", err)
	}
	want, _, err := leader.svc.Store().Get(id)
	if err != nil {
		t.Fatal(err)
	}
	marks := map[odata.ID]int{"/redfish/v1/Chassis/<x>&/Things": 5, "/redfish/v1/Chassis/\u00e9/Things": 2}
	for parent, n := range marks {
		child := parent.Append(fmt.Sprint(n))
		if err := leader.svc.Store().Put(child, json.RawMessage(`{}`)); err != nil {
			t.Fatal(err)
		}
		if err := leader.svc.Store().Delete(child); err != nil {
			t.Fatal(err)
		}
	}

	replica.start(t, replicaMux, func(cfg *Config) {
		cfg.Peers = []string{leader.srv.URL}
	})
	waitFor(t, 3*time.Second, "replica bootstrapped past the deep payload", func() bool {
		return replica.node.Status().LastSeq > 0 && replica.svc.Store().Exists(id)
	})
	got, _, err := replica.svc.Store().Get(id)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("replica holds %d bytes (%v), the leader %d", len(got), err, len(want))
	}
	c, err := replica.svc.Store().Cut()
	if err != nil {
		t.Fatal(err)
	}
	for parent, n := range marks {
		if c.HiWater[parent] != n {
			t.Fatalf("replica's NextID mark under %s is %d, the leader's %d", parent, c.HiWater[parent], n)
		}
	}

	const streamed = odata.ID("/redfish/v1/Chassis/deep-streamed")
	if err := leader.svc.Store().Put(streamed, json.RawMessage(deep)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "replica applied the deep payload from the stream", func() bool {
		return replica.svc.Store().Exists(streamed)
	})
	if got, _, err := replica.svc.Store().Get(streamed); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("replica holds %d streamed bytes (%v), the leader %d", len(got), err, len(want))
	}
}

// TestReplBootstrapAcrossCompaction: with a persist-backed leader, a
// late replica is served the newest on-disk snapshot plus a WAL tail —
// across a compaction that rotated the logs — and converges without the
// leader holding its full history in memory.
func TestReplBootstrapAcrossCompaction(t *testing.T) {
	leader, leaderMux := newLateNode()
	replica, replicaMux := newLateNode()
	defer leader.stop()
	defer replica.stop()

	dir := t.TempDir()
	leader.svc = service.New(service.Config{Logger: quietLogger(), DirectWrites: true})
	b, err := persist.Open(persist.Options{Dir: dir, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recover(leader.svc.Store()); err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(Config{
		Store:        leader.svc.Store(),
		Self:         leader.srv.URL,
		Peers:        []string{replica.srv.URL},
		Leader:       true,
		RingSize:     64,
		Inner:        b,
		DiskTail:     b.ReadRecords,
		DiskFlush:    b.Flush,
		DiskSnapshot: b.LatestSnapshot,
		LeaseTimeout: 300 * time.Millisecond,
		Logger:       quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	leader.node = node
	leaderMux.Handle("/", leader.svc.Handler())
	leaderMux.Handle(PathPrefix, node.Handler())
	node.Start()

	client := leader.srv.Client()
	for i := 0; i < 120; i++ {
		if _, err := postChassis(client, leader.srv.URL, fmt.Sprintf("pre-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := postChassis(client, leader.srv.URL, fmt.Sprintf("mid-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, seq, ok, err := b.LatestSnapshot(); err != nil || !ok || seq == 0 {
		t.Fatalf("compaction left no usable snapshot (seq=%d ok=%v err=%v)", seq, ok, err)
	}

	replica.start(t, replicaMux, func(cfg *Config) {
		cfg.Peers = []string{leader.srv.URL}
	})
	hub := leader.node.currentHub()
	waitFor(t, 5*time.Second, "replica caught up across compaction", func() bool {
		return replica.node.Status().LastSeq == hub.LastSeq()
	})

	want, err := leader.svc.Store().Export()
	if err != nil {
		t.Fatal(err)
	}
	got, err := replica.svc.Store().Export()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("replica export differs after disk bootstrap (%d vs %d bytes)", len(got), len(want))
	}
}

// TestReplBootstrapFromRestartedLeader: a leader restarted on a crashed
// data dir writes no snapshot at boot, so until its first compaction the
// newest snapshot on disk is the previous life's. That file lacks what
// this boot put into the tree before attaching the backend (here one
// resource, as the testbed puts its own), so a replica that bootstraps in
// that window must be served a live export instead, and ends with the
// leader's tree byte for byte.
func TestReplBootstrapFromRestartedLeader(t *testing.T) {
	dir := t.TempDir()
	open := func(st *store.Store) (*persist.FileBackend, persist.RecoveryStats) {
		t.Helper()
		b, err := persist.Open(persist.Options{Dir: dir, Logger: quietLogger()})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := b.Recover(st)
		if err != nil {
			t.Fatal(err)
		}
		return b, stats
	}
	put := func(st *store.Store, name string) {
		t.Helper()
		id := odata.ID("/redfish/v1/Chassis/" + name)
		if err := st.Put(id, map[string]any{"@odata.id": id, "Name": name}); err != nil {
			t.Fatal(err)
		}
	}

	// First life: a compaction, more writes, then a crash: the backend is
	// dropped unclosed, so its Close never compacts the directory.
	first := service.New(service.Config{Logger: quietLogger(), DirectWrites: true})
	defer first.Close()
	b, stats := open(first.Store())
	first.Store().AttachBackend(b, stats.LastSeq)
	b.StartSnapshots(first.Store())
	for i := 0; i < 20; i++ {
		put(first.Store(), fmt.Sprintf("old-%d", i))
	}
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 40; i++ {
		put(first.Store(), fmt.Sprintf("old-%d", i))
	}
	first.Store().AttachBackend(nil, 0)

	// Second life, wired as cmd/ofmf wires a leader.
	leader, leaderMux := newLateNode()
	replica, replicaMux := newLateNode()
	defer leader.stop()
	defer replica.stop()
	leader.svc = service.New(service.Config{Logger: quietLogger(), DirectWrites: true})
	st := leader.svc.Store()
	b, stats = open(st)
	if stats.SnapshotSeq == 0 || stats.Replayed == 0 {
		t.Fatalf("stats %+v: the restart must load a snapshot and replay a tail", stats)
	}
	put(st, "this-boot") // before AttachBackend: in the tree, not in the log
	st.AttachBackend(b, stats.LastSeq)
	node, err := NewNode(Config{
		Store:        st,
		Self:         leader.srv.URL,
		Peers:        []string{replica.srv.URL},
		Leader:       true,
		BootEpoch:    stats.LastEpoch,
		Inner:        b,
		DiskTail:     b.ReadRecords,
		DiskFlush:    b.Flush,
		DiskSnapshot: b.LatestSnapshot,
		LeaseTimeout: 300 * time.Millisecond,
		Logger:       quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	leader.node = node
	leaderMux.Handle("/", leader.svc.Handler())
	leaderMux.Handle(PathPrefix, node.Handler())
	node.Start()

	replica.start(t, replicaMux, func(cfg *Config) {
		cfg.Peers = []string{leader.srv.URL}
	})
	hub := leader.node.currentHub()
	waitFor(t, 5*time.Second, "replica bootstrapped from the restarted leader", func() bool {
		return replica.node.Status().LastSeq == hub.LastSeq()
	})
	want, err := st.Export()
	if err != nil {
		t.Fatal(err)
	}
	got, err := replica.svc.Store().Export()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("replica export differs from the restarted leader's (%d vs %d bytes)", len(got), len(want))
	}
	if _, seq, ok, err := b.LatestSnapshot(); err != nil || ok {
		t.Fatalf("LatestSnapshot before the first Compact = seq %d, ok %v, %v; want no snapshot to serve", seq, ok, err)
	}
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, seq, ok, err := b.LatestSnapshot(); err != nil || !ok || seq < stats.LastSeq {
		t.Fatalf("LatestSnapshot after the first Compact = seq %d, ok %v, %v; want one at or past %d", seq, ok, err, stats.LastSeq)
	}
}

// TestReplPromotedLeaderDurability: a replica promoted with
// PromoteBackend gets a data directory positioned at its applied
// sequence; writes accepted after the failover must be recoverable from
// that directory by a fresh process.
func TestReplPromotedLeaderDurability(t *testing.T) {
	dir := t.TempDir()
	leader, leaderMux := newLateNode()
	replica, replicaMux := newLateNode()
	defer leader.stop()
	defer replica.stop()

	leader.start(t, leaderMux, func(cfg *Config) {
		cfg.Leader = true
		cfg.Peers = []string{replica.srv.URL}
		cfg.MinSync = 1
		cfg.SyncTimeout = 5 * time.Second
	})
	var promoted atomic.Pointer[persist.FileBackend]
	replica.start(t, replicaMux, func(cfg *Config) {
		cfg.Peers = []string{leader.srv.URL}
		cfg.PromoteBackend = func(st *store.Store, seq uint64) (store.Backend, error) {
			pb, err := persist.Open(persist.Options{Dir: dir, Logger: quietLogger()})
			if err != nil {
				return nil, err
			}
			if err := pb.Bootstrap(st, seq); err != nil {
				pb.Close()
				return nil, err
			}
			promoted.Store(pb)
			return pb, nil
		}
	})
	waitFor(t, 5*time.Second, "follower connected", func() bool {
		return len(leader.node.Status().Followers) == 1
	})

	client := leader.srv.Client()
	var preURI string
	for i := 0; i < 10; i++ {
		uri, err := postChassis(client, leader.srv.URL, fmt.Sprintf("pre-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		preURI = string(uri)
	}
	waitFor(t, 5*time.Second, "replica converged before failover", func() bool {
		return replica.node.Status().LastSeq == leader.node.currentHub().LastSeq()
	})

	leader.node.Stop()
	leader.srv.CloseClientConnections()
	leader.srv.Close()
	leader.svc.Close()
	leader.node, leader.svc = nil, nil

	waitFor(t, 5*time.Second, "replica promoted", func() bool {
		return replica.node.Leading()
	})
	postURI, err := postChassis(replica.srv.Client(), replica.srv.URL, "post-failover")
	if err != nil {
		t.Fatalf("write on promoted leader: %v", err)
	}

	// Simulate a crash of the promoted leader: flush the WAL so the new
	// term's records are on disk, but skip the graceful close — that
	// would compact everything into a final snapshot and leave nothing
	// for replay. Recovery must rebuild from the bootstrap snapshot plus
	// the promoted term's WAL tail, and report the promoted epoch so a
	// restart continues that term.
	pb := promoted.Load()
	if pb == nil {
		t.Fatal("PromoteBackend never ran")
	}
	if err := pb.Flush(); err != nil {
		t.Fatal(err)
	}
	recovered := store.New()
	rb, err := persist.Open(persist.Options{Dir: dir, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := rb.Recover(recovered)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	if stats.LastEpoch < 2 {
		t.Errorf("recovered WAL epoch = %d, want the promoted term >= 2", stats.LastEpoch)
	}
	for _, uri := range []string{preURI, string(postURI)} {
		if _, _, err := recovered.Get(odata.ID(uri)); err != nil {
			t.Errorf("promoted leader's data dir lost %s: %v", uri, err)
		}
	}
}

// TestReplColdReplicaDoesNotSelfPromote: a replica that boots before
// its leader (or with every peer down) has never followed any term and
// holds no data; it must keep searching rather than promote an empty
// tree into epoch 1 — an equal-epoch twin leader that fencing, which
// only acts on *higher* epochs, could never depose. Once the real
// leader comes up, the replica follows it.
func TestReplColdReplicaDoesNotSelfPromote(t *testing.T) {
	leader, leaderMux := newLateNode()
	replica, replicaMux := newLateNode()
	defer leader.stop()
	defer replica.stop()

	// Replica first; the leader's listener exists but 404s everything
	// until the leader actually starts — the cold-boot race window.
	replica.start(t, replicaMux, func(cfg *Config) {
		cfg.Peers = []string{leader.srv.URL}
	})
	time.Sleep(1 * time.Second) // many election rounds at a 300ms lease
	if replica.node.Leading() {
		t.Fatal("cold replica promoted itself before ever seeing a leader")
	}
	if got := replica.node.Status().Role; got != RoleReplica {
		t.Fatalf("cold replica role = %s, want replica", got)
	}

	leader.start(t, leaderMux, func(cfg *Config) {
		cfg.Leader = true
		cfg.Peers = []string{replica.srv.URL}
	})
	waitFor(t, 5*time.Second, "late leader adopted", func() bool {
		st := replica.node.Status()
		return st.Role == RoleReplica && st.LeaderURL == leader.srv.URL && st.Epoch == 1
	})
}

// TestReplColdReplicaFindsLateLeaderSoon: a cold replica is in no
// election — it cannot promote, it only waits for its leader to come up
// — so it must not sleep the election's lease/3 (a second, at the default
// lease used here) between looks. Started 100 ms before its leader, it is
// streaming within 100 ms of the leader's start.
func TestReplColdReplicaFindsLateLeaderSoon(t *testing.T) {
	leader, leaderMux := newLateNode()
	replica, replicaMux := newLateNode()
	defer leader.stop()
	defer replica.stop()

	replica.start(t, replicaMux, func(cfg *Config) {
		cfg.Peers = []string{leader.srv.URL}
		cfg.LeaseTimeout = 0 // the default, 3 s
	})
	time.Sleep(100 * time.Millisecond)
	leader.start(t, leaderMux, func(cfg *Config) {
		cfg.Leader = true
		cfg.Peers = []string{replica.srv.URL}
		cfg.LeaseTimeout = 0
	})
	waitFor(t, 100*time.Millisecond, "cold replica streaming from its late leader", func() bool {
		st := replica.node.Status()
		return st.LeaderURL == leader.srv.URL && st.Epoch == 1
	})
}

// TestReplFencingDeposesStaleLeader: an acknowledgement carrying a
// higher epoch proves a newer leader exists; the stale leader must
// refuse it, end the stream it came on with a fenced frame, demote
// itself, and the group must settle on a term above the fencing one.
func TestReplFencingDeposesStaleLeader(t *testing.T) {
	c := startTestCluster(t, 2, nil)
	leader, replica := c.nodes[0], c.nodes[1]
	waitFor(t, 5*time.Second, "follower connected", func() bool {
		return len(leader.node.Status().Followers) == 1
	})

	s := openRawStream(t, leader.URL(), replica.URL())
	s.ack(t, `{"Epoch":99,"Seq":0}`)
	if f := s.until(t, frameEnd); f.Reason != endFenced {
		t.Fatalf("higher-epoch ack: stream ended %q, want %q", f.Reason, endFenced)
	}
	// Demotion adopts the fencing epoch and the node's epoch never goes
	// back, so this holds from the demotion on — polling !Leading() can
	// miss a demote→re-elect that completes between two polls.
	waitFor(t, 5*time.Second, "stale leader demoted", func() bool {
		return leader.node.Status().Epoch >= 99
	})

	// The group recovers into a term above the fencing epoch and writes
	// flow again — through whichever node now leads.
	waitFor(t, 10*time.Second, "new term elected past the fence", func() bool {
		for _, tn := range c.nodes {
			if tn.node.Leading() && tn.node.Status().Epoch > 99 {
				return true
			}
		}
		return false
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := postChassis(http.DefaultClient, c.leader().URL(), "after-fence")
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("writes never recovered after fencing: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReplReplicaGetZeroAlloc guards the read-path acceptance bar:
// replica-mode must not add allocations to the store's zero-copy read
// path that local GETs are served from.
func TestReplReplicaGetZeroAlloc(t *testing.T) {
	c := startTestCluster(t, 2, nil)
	leader, replica := c.nodes[0], c.nodes[1]
	waitFor(t, 5*time.Second, "follower connected", func() bool {
		return len(leader.node.Status().Followers) == 1
	})
	uri, err := postChassis(leader.srv.Client(), leader.URL(), "hot")
	if err != nil {
		t.Fatal(err)
	}
	c.waitConverged(5 * time.Second)

	st := replica.svc.Store()
	allocs := testing.AllocsPerRun(1000, func() {
		if err := st.View(uri, func(raw json.RawMessage, etag string) {}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("replica store read path allocates %v per op, want 0", allocs)
	}
}

// TestReplLeaderRestartKeepsAckedWrites: a persisting leader that
// crashes and reboots over its data dir must continue the log where
// recovery left it. Wired as cmd/ofmf does — recover, attach the
// backend at the recovered sequence, then Start — every write
// acknowledged in any life is in the tree after the next crash.
// (Skipping the attach restarts numbering at 1, and the next recovery
// discards the new records as already covered by its snapshot.)
func TestReplLeaderRestartKeepsAckedWrites(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*store.Store, *Node, persist.RecoveryStats) {
		t.Helper()
		st := store.New()
		b, err := persist.Open(persist.Options{Dir: dir, Logger: quietLogger()})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := b.Recover(st)
		if err != nil {
			t.Fatal(err)
		}
		st.AttachBackend(b, stats.LastSeq)
		node, err := NewNode(Config{Store: st, Self: "http://leader.test", Leader: true,
			BootEpoch: stats.LastEpoch, Inner: b, Logger: quietLogger()})
		if err != nil {
			t.Fatal(err)
		}
		node.Start()
		return st, node, stats
	}
	ids := []odata.ID{"/redfish/v1/Chassis/a1", "/redfish/v1/Chassis/a2", "/redfish/v1/Chassis/b1"}

	st, node, _ := boot()
	for _, id := range ids[:2] {
		if err := st.Put(id, map[string]any{"Name": string(id)}); err != nil {
			t.Fatal(err)
		}
	}
	node.Stop() // crash: the backend is abandoned unclosed

	st, node, stats := boot()
	if stats.LastSeq != 2 {
		t.Fatalf("second life recovered LastSeq %d, want 2", stats.LastSeq)
	}
	if err := st.Put(ids[2], map[string]any{"Name": string(ids[2])}); err != nil {
		t.Fatal(err)
	}
	node.Stop()

	st, node, stats = boot()
	defer node.Stop()
	if stats.LastSeq != 3 {
		t.Fatalf("third life recovered LastSeq %d, want 3", stats.LastSeq)
	}
	for _, id := range ids {
		if !st.Exists(id) {
			t.Fatalf("%s was acknowledged and is gone after restart", id)
		}
	}
}

// TestReplBootstrapKeepsNextIDMarks: ids are not reused after deletion,
// across a snapshot bootstrap and a promotion. The leader mints
// Chassis/1..3 through NextID and deletes 3, so nothing left in the tree
// says 3 was spent; the snapshot's HiWater does. A replica that
// bootstraps from it — a live export, or the leader's on-disk snapshot —
// and is then promoted must mint Chassis/4 next, not 3 again.
func TestReplBootstrapKeepsNextIDMarks(t *testing.T) {
	for _, disk := range []bool{false, true} {
		name := "live"
		if disk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			leader, leaderMux := newLateNode()
			replica, replicaMux := newLateNode()
			defer leader.stop()
			defer replica.stop()
			var b *persist.FileBackend
			var diskServed atomic.Int32
			leader.start(t, leaderMux, func(cfg *Config) {
				cfg.Leader = true
				cfg.Peers = []string{replica.srv.URL}
				if !disk {
					return
				}
				var err error
				if b, err = persist.Open(persist.Options{Dir: t.TempDir(), Logger: quietLogger()}); err != nil {
					t.Fatal(err)
				}
				if _, err := b.Recover(cfg.Store); err != nil {
					t.Fatal(err)
				}
				cfg.Inner, cfg.DiskTail, cfg.DiskFlush = b, b.ReadRecords, b.Flush
				cfg.DiskSnapshot = func() ([]byte, uint64, bool, error) {
					resources, seq, ok, err := b.LatestSnapshot()
					if ok {
						diskServed.Add(1)
					}
					return resources, seq, ok, err
				}
			})
			client := leader.srv.Client()
			for i := 1; i <= 3; i++ {
				uri, err := postChassis(client, leader.srv.URL, fmt.Sprintf("c%d", i))
				if want := service.ChassisURI.Append(fmt.Sprint(i)); err != nil || uri != want {
					t.Fatalf("POST %d minted %s (%v), want %s", i, uri, err, want)
				}
			}
			req, _ := http.NewRequest(http.MethodDelete, leader.srv.URL+string(service.ChassisURI.Append("3")), nil)
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("DELETE Chassis/3 = %s", resp.Status)
			}
			if disk {
				if err := b.Compact(); err != nil {
					t.Fatal(err)
				}
			}

			replica.start(t, replicaMux, func(cfg *Config) {
				cfg.Peers = []string{leader.srv.URL}
			})
			waitFor(t, 5*time.Second, "replica bootstrapped", func() bool {
				return replica.node.Status().LastSeq == leader.node.currentHub().LastSeq()
			})
			if disk && diskServed.Load() == 0 {
				t.Fatal("the replica was not served the on-disk snapshot")
			}
			leader.node.Stop()
			leader.srv.CloseClientConnections()
			leader.srv.Close()
			leader.svc.Close()
			leader.node, leader.svc = nil, nil
			if b != nil {
				b.Close()
			}
			waitFor(t, 5*time.Second, "replica promoted", func() bool {
				return replica.node.Leading()
			})
			uri, err := postChassis(replica.srv.Client(), replica.srv.URL, "after")
			if want := service.ChassisURI.Append("4"); err != nil || uri != want {
				t.Fatalf("the promoted replica minted %s (%v), want %s", uri, err, want)
			}
		})
	}
}
