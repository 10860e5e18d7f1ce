package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ofmf/internal/obsv"
	"ofmf/internal/resilience"
	"ofmf/internal/store"
)

// Config wires one node into a replication group.
type Config struct {
	// Store is the node's resource store. On a leader it gets a Tee
	// backend attached; on a replica it stays backend-less and is
	// mutated only through Store.Apply.
	Store *store.Store
	// Self is this node's externally reachable base URL
	// (e.g. http://10.0.0.1:8080); peers use it to stream from and ack
	// to this node, and elections order candidates by it.
	Self string
	// Peers are the other nodes' base URLs.
	Peers []string
	// Leader starts the node as the group's leader. Exactly one node
	// should boot with it; everyone else joins as a replica and
	// discovers the leader by polling peer status.
	Leader bool
	// BootEpoch seeds a booting leader's term, normally the highest
	// epoch recovered from its WAL so a restart continues its last term
	// (minimum 1). Ignored for replicas, which adopt the leader's.
	BootEpoch uint64
	// MinSync, SyncTimeout and RingSize configure the Hub; see
	// HubConfig.
	MinSync     int
	SyncTimeout time.Duration
	RingSize    int
	// LeaseTimeout is how long a replica tolerates a silent stream
	// before suspecting the leader and holding an election. The leader
	// sends keepalives every LeaseTimeout/3. Default 3s.
	LeaseTimeout time.Duration
	// Inner is a booting leader's recovered durability backend; the Tee
	// forwards every batch to it. Nil runs the leader in-memory. Start
	// continues the log from Store.Seq, so attach Inner to the store at
	// the recovered sequence number (Store.AttachBackend) first.
	Inner store.Backend
	// DiskTail, DiskFlush and DiskSnapshot expose the leader's on-disk
	// WAL to followers that outran the in-memory backlog (normally
	// persist.FileBackend's ReadRecords/Flush/LatestSnapshot). All
	// optional; without them a lagging follower re-bootstraps from a
	// live snapshot instead.
	DiskTail     func(fromSeq uint64) ([]store.Record, error)
	DiskFlush    func() error
	DiskSnapshot func() (resources []byte, seq uint64, ok bool, err error)
	// PromoteBackend, when set, gives a promoted replica durability: it
	// is called with the store and the applied sequence number and
	// returns a backend already positioned there (normally
	// persist.Open + FileBackend.Bootstrap). An error is logged and the
	// new leader continues in-memory — availability over durability.
	PromoteBackend func(st *store.Store, seq uint64) (store.Backend, error)
	// OnLeader and OnFollower run (outside node locks) after every role
	// change, including the initial one; the service layer uses them to
	// toggle replica mode, which also silences the liveness sweeper.
	OnLeader   func(epoch uint64)
	OnFollower func(leaderURL string)
	// Client is used for status polls and snapshots; default a
	// resilience client with a lease-scaled attempt timeout (a cold
	// replica's polls go through one like it without a breaker).
	// StreamClient is used for the long-lived record stream and the acks
	// on its request body; default resilience.NewStreamingHTTPClient.
	// Tests inject FaultTransports here.
	Client       *http.Client
	StreamClient *http.Client
	Logger       *slog.Logger
	Metrics      *obsv.Metrics
}

// Node is one member of a replication group. It serves the /repl/v1
// protocol (Handler), runs the follower loop while a replica, and owns
// the Hub while the leader.
type Node struct {
	cfg          Config
	st           *store.Store
	log          *slog.Logger
	m            *obsv.Metrics
	client       *http.Client
	coldClient   *http.Client // status polls while cold: no breaker
	streamClient *http.Client
	lease        time.Duration
	keepalive    time.Duration

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu           sync.Mutex
	role         Role
	hub          *Hub   // leader only
	epoch        uint64 // replica: highest term seen; leader: hub's term
	leaderURL    string // replica: current leader
	needSnapshot bool

	applied   atomic.Uint64 // replica: last applied sequence number
	leaderSeq atomic.Uint64 // replica: leader's last advertised seq
}

// NewNode validates cfg and builds the node. Call Start to assume the
// configured role.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("repl: Config.Store is required")
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("repl: Config.Self is required")
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 3 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	n := &Node{
		cfg:       cfg,
		st:        cfg.Store,
		log:       cfg.Logger.With("repl_self", cfg.Self),
		m:         cfg.Metrics,
		lease:     cfg.LeaseTimeout,
		keepalive: cfg.LeaseTimeout / 3,
		role:      RoleReplica,
	}
	n.client, n.coldClient = cfg.Client, cfg.Client
	if n.client == nil {
		p := resilience.DefaultPolicy()
		p.AttemptTimeout = n.lease
		p.MaxAttempts = 1
		n.client = resilience.NewHTTPClient(p)
		// A cold replica polls a leader that is not up yet every
		// coldPoll: its refused dials must not open the breaker that
		// would then keep it from seeing the leader come up.
		p.Breaker.Threshold = -1
		n.coldClient = resilience.NewHTTPClient(p)
	}
	n.streamClient = cfg.StreamClient
	if n.streamClient == nil {
		n.streamClient = resilience.NewStreamingHTTPClient(resilience.DefaultPolicy())
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	return n, nil
}

// Start assumes the configured role: a leader attaches its Tee backend
// and starts serving immediately; a replica begins the follow loop
// (leader discovery, snapshot bootstrap, stream apply, election).
func (n *Node) Start() {
	if n.cfg.Leader {
		epoch := n.cfg.BootEpoch
		if epoch == 0 {
			epoch = 1
		}
		n.mu.Lock()
		n.becomeLeaderLocked(epoch, n.st.Seq(), n.cfg.Inner)
		n.mu.Unlock()
		if n.cfg.OnLeader != nil {
			n.cfg.OnLeader(epoch)
		}
		n.log.Info("repl: serving as leader", "epoch", epoch, "seq", n.st.Seq())
		return
	}
	n.mu.Lock()
	n.role = RoleReplica
	n.needSnapshot = true
	n.mu.Unlock()
	if n.cfg.OnFollower != nil {
		n.cfg.OnFollower("")
	}
	n.wg.Add(1)
	go n.followerLoop()
}

// Stop tears the node down: the follower loop exits, streams close,
// and a leader's hub stops accepting waits. The store itself is left
// attached; the caller closes it.
func (n *Node) Stop() {
	n.cancel()
	n.mu.Lock()
	hub := n.hub
	n.mu.Unlock()
	if hub != nil {
		// Fail writes parked in WaitAcked immediately instead of letting
		// them ride out SyncTimeout on a node that is going away.
		hub.Fence(hub.Epoch())
	}
	n.wg.Wait()
}

// Leading reports whether the node currently holds leadership.
func (n *Node) Leading() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == RoleLeader && n.hub != nil && !n.hub.Fenced()
}

// LeaderURL returns the leader the node follows, or its own Self URL
// while it leads.
func (n *Node) LeaderURL() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == RoleLeader {
		return n.cfg.Self
	}
	return n.leaderURL
}

// Status reports the node's replication state.
func (n *Node) Status() Status {
	n.mu.Lock()
	role, hub, leader, epoch := n.role, n.hub, n.leaderURL, n.epoch
	n.mu.Unlock()
	if role == RoleLeader && hub != nil {
		return Status{
			Self:      n.cfg.Self,
			Role:      RoleLeader,
			Epoch:     hub.Epoch(),
			LastSeq:   hub.LastSeq(),
			Fenced:    hub.Fenced(),
			MinSync:   n.cfg.MinSync,
			Followers: hub.Progress(),
		}
	}
	return Status{
		Self:      n.cfg.Self,
		Role:      RoleReplica,
		Epoch:     epoch,
		LastSeq:   n.applied.Load(),
		LeaderSeq: n.leaderSeq.Load(),
		LeaderURL: leader,
	}
}

// becomeLeaderLocked installs a hub and tee for a new term. Caller
// holds n.mu and fires the OnLeader callback after unlocking.
func (n *Node) becomeLeaderLocked(epoch, lastSeq uint64, inner store.Backend) {
	hub := NewHub(HubConfig{
		Epoch:       epoch,
		StartSeq:    lastSeq,
		RingSize:    n.cfg.RingSize,
		MinSync:     n.cfg.MinSync,
		SyncTimeout: n.cfg.SyncTimeout,
		Logger:      n.log,
		Metrics:     n.m,
	})
	tee := NewTee(hub, inner)
	n.st.SetEpoch(epoch)
	n.st.AttachBackend(tee, lastSeq)
	n.hub = hub
	n.role = RoleLeader
	n.epoch = epoch
	n.leaderURL = ""
	n.wg.Add(1)
	go n.watchFence(hub)
}

// watchFence demotes the node when its hub is deposed by a higher
// epoch: detach and close the backend (failing no further writes —
// they already fail with ErrFenced), discard the possibly divergent
// local suffix by forcing a snapshot bootstrap, and rejoin as a
// replica.
func (n *Node) watchFence(hub *Hub) {
	defer n.wg.Done()
	select {
	case <-n.ctx.Done():
		return
	case <-hub.FencedCh():
	}
	if n.ctx.Err() != nil {
		return // Stop fenced the hub; no demotion, the node is done
	}
	n.mu.Lock()
	if n.hub != hub {
		n.mu.Unlock()
		return
	}
	if err := n.st.Close(); err != nil {
		n.log.Warn("repl: closing deposed leader backend", "err", err)
	}
	n.hub = nil
	n.role = RoleReplica
	if by := hub.FencedBy(); by > n.epoch {
		n.epoch = by
	}
	n.leaderURL = ""
	n.needSnapshot = true
	// The local tail may diverge from the new leader's history; the
	// snapshot bootstrap replaces the whole tree, so reset applied and
	// let the stream position come from the snapshot.
	n.applied.Store(0)
	n.mu.Unlock()
	if n.cfg.OnFollower != nil {
		n.cfg.OnFollower("")
	}
	n.log.Warn("repl: deposed; rejoining as replica", "old_epoch", hub.Epoch(), "by_epoch", hub.FencedBy())
	n.wg.Add(1)
	go n.followerLoop()
}

// promote makes this replica the leader for a new term: epoch bumps
// past every term it has seen, the store (already caught up to the
// applied sequence) gets a fresh hub and tee, and — when configured —
// a durability backend bootstrapped at that position.
func (n *Node) promote() {
	n.mu.Lock()
	if n.role == RoleLeader {
		n.mu.Unlock()
		return
	}
	epoch := n.epoch + 1
	applied := n.applied.Load()
	var inner store.Backend
	if n.cfg.PromoteBackend != nil {
		b, err := n.cfg.PromoteBackend(n.st, applied)
		if err != nil {
			n.log.Error("repl: promote without durability", "err", err)
		} else {
			inner = b
		}
	}
	n.becomeLeaderLocked(epoch, applied, inner)
	n.mu.Unlock()
	if n.cfg.OnLeader != nil {
		n.cfg.OnLeader(epoch)
	}
	n.log.Warn("repl: promoted to leader", "epoch", epoch, "seq", applied, "durable", inner != nil)
}

// peerView is one status poll result.
type peerView struct {
	url string
	st  Status
	ok  bool
}

// pollPeers fetches every peer's status concurrently with client.
func (n *Node) pollPeers(ctx context.Context, client *http.Client) []peerView {
	views := make([]peerView, len(n.cfg.Peers))
	var wg sync.WaitGroup
	for i, peer := range n.cfg.Peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			views[i] = peerView{url: peer}
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/repl/v1/status", nil)
			if err != nil {
				return
			}
			resp, err := client.Do(req)
			if err != nil {
				return
			}
			// Read to the end before closing — a refusal's body, the
			// newline after the document — or the connection is not
			// reused and every poll of every peer dials.
			defer func() {
				io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
				resp.Body.Close()
			}()
			if resp.StatusCode != http.StatusOK {
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&views[i].st); err != nil {
				return
			}
			views[i].ok = true
		}(i, peer)
	}
	wg.Wait()
	return views
}

// electOrFind locates a leader to follow or decides this node should
// promote. A reachable, unfenced leader with an epoch at least ours
// wins outright. Otherwise the reachable replicas plus this node hold
// a deterministic election: highest epoch, then highest applied
// sequence, then smallest URL — every reachable node computes the same
// winner. Unreachable peers don't vote; a fully partitioned node
// elects itself (see the package comment on split-brain) — unless it
// has never followed any leader (epoch 0, nothing applied): a cold
// replica booting before its leader must keep looking, not promote an
// empty tree into a term that equal-epoch fencing could never depose.
func (n *Node) electOrFind(ctx context.Context) (leader string, promote bool) {
	n.mu.Lock()
	myEpoch, mySelf := n.epoch, n.cfg.Self
	n.mu.Unlock()
	myApplied := n.applied.Load()
	cold := myEpoch == 0 && myApplied == 0

	client := n.client
	if cold {
		client = n.coldClient
	}
	views := n.pollPeers(ctx, client)
	var bestLeader string
	var bestLeaderEpoch uint64
	for _, v := range views {
		if !v.ok || v.st.Role != RoleLeader || v.st.Fenced {
			continue
		}
		if v.st.Epoch >= myEpoch && v.st.Epoch >= bestLeaderEpoch {
			bestLeader, bestLeaderEpoch = v.url, v.st.Epoch
		}
	}
	if bestLeader != "" {
		return bestLeader, false
	}

	if cold {
		return "", false // cold replica: nothing to lead with yet
	}
	winE, winS, winURL := myEpoch, myApplied, mySelf
	for _, v := range views {
		if !v.ok || v.st.Role != RoleReplica {
			continue
		}
		e, s, u := v.st.Epoch, v.st.LastSeq, v.st.Self
		if u == "" {
			u = v.url
		}
		if e > winE || (e == winE && s > winS) || (e == winE && s == winS && u < winURL) {
			winE, winS, winURL = e, s, u
		}
	}
	return "", winURL == mySelf
}

// A cold replica (see electOrFind) is in no election: it can only wait
// for its leader to come up, and a group's nodes are normally started
// together, so the leader is up within milliseconds. For its first
// coldFast it looks every coldPoll — a poll of a peer that is not up yet
// is a refused dial or a 404, microseconds each — and then backs off
// from coldBackoff, doubling, to the election's pace.
const (
	coldPoll    = 2 * time.Millisecond
	coldFast    = time.Second
	coldBackoff = 50 * time.Millisecond
)

// coldWait is how long a replica that has been cold for cold, and last
// waited last, waits before it looks for its leader again; retry is the
// election's pace.
func coldWait(cold, last, retry time.Duration) time.Duration {
	if cold < coldFast {
		return coldPoll
	}
	return min(max(2*last, coldBackoff), retry)
}

// followerLoop is the replica's life: find (or become) the leader,
// bootstrap if needed, stream and apply until the stream dies, repeat.
func (n *Node) followerLoop() {
	defer n.wg.Done()
	retry := n.lease / 3
	if retry < 50*time.Millisecond {
		retry = 50 * time.Millisecond
	}
	var coldSince time.Time
	var coldLast time.Duration
	mismatched := false // a protocol mismatch is logged once, not once per retry
	for n.ctx.Err() == nil {
		leader, promote := n.electOrFind(n.ctx)
		if promote {
			n.promote()
			return
		}
		if leader == "" {
			// Another candidate won (or nobody is reachable); give the
			// winner a beat to assume leadership, then look again. A cold
			// replica looks again on coldWait's schedule.
			wait := retry
			if n.epochNow() == 0 && n.applied.Load() == 0 {
				if coldSince.IsZero() {
					coldSince = time.Now()
				}
				coldLast = coldWait(time.Since(coldSince), coldLast, retry)
				wait = coldLast
			}
			if !sleepCtx(n.ctx, wait) {
				return
			}
			continue
		}
		n.setLeader(leader)
		err := n.followOnce(n.ctx, leader)
		if n.ctx.Err() != nil {
			return
		}
		mismatch := errors.Is(err, errProtocolMismatch)
		if err != nil && !(mismatch && mismatched) {
			n.log.Warn("repl: stream ended", "leader", leader, "err", err)
		}
		mismatched = mismatch
		if !sleepCtx(n.ctx, retry/4) {
			return
		}
	}
}

func (n *Node) setLeader(url string) {
	n.mu.Lock()
	changed := n.leaderURL != url
	n.leaderURL = url
	n.mu.Unlock()
	if changed {
		if n.cfg.OnFollower != nil {
			n.cfg.OnFollower(url)
		}
		n.log.Info("repl: following", "leader", url)
	}
}

// setEpoch adopts a higher term observed from the leader.
func (n *Node) setEpoch(e uint64) {
	n.mu.Lock()
	if e > n.epoch {
		n.epoch = e
		if n.m != nil {
			n.m.ReplEpoch.Set(float64(e))
		}
	}
	n.mu.Unlock()
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
