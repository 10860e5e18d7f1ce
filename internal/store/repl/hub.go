package repl

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"ofmf/internal/obsv"
	"ofmf/internal/store"
)

// HubConfig configures a leader's shipping hub.
type HubConfig struct {
	// Epoch is the leadership term every shipped record belongs to. A
	// hub serves exactly one term; promotion builds a new hub.
	Epoch uint64
	// StartSeq is the last sequence number committed before this hub
	// took over; the backlog begins at StartSeq+1.
	StartSeq uint64
	// RingSize bounds the in-memory backlog, in records. A follower
	// that falls further behind is served from disk (DiskTail) or told
	// to re-bootstrap from a snapshot. Default 65536.
	RingSize int
	// MinSync is how many followers must acknowledge a record before
	// the write that committed it is acknowledged to the client.
	// 0 ships asynchronously.
	MinSync int
	// SyncTimeout bounds how long a semi-sync write waits for follower
	// acks before failing with ErrSyncTimeout. Default 5s.
	SyncTimeout time.Duration
	// Logger and Metrics are optional.
	Logger  *slog.Logger
	Metrics *obsv.Metrics
}

// entry is one backlogged record plus its commit time, the base of the
// ack-lag measurement.
type entry struct {
	rec store.Record
	at  time.Time
}

// ackWaiter parks one semi-sync write until need followers acknowledge
// seq (ch is closed), the hub is fenced, or the waiter times out.
type ackWaiter struct {
	seq  uint64
	need int
	ch   chan struct{}
}

// followerState is the hub's view of one follower's progress.
type followerState struct {
	ackSeq uint64
	lastAt time.Time
}

// readState classifies a ReadFrom outcome.
type readState int

const (
	readOK     readState = iota // records returned, or wait for more
	readGap                     // position below the backlog; try disk, else snapshot
	readAhead                   // follower is ahead of this leader
	readFenced                  // hub deposed; stream must end
)

// Hub is the leader-side replication core: it keeps a bounded in-memory
// backlog of the commit log for follower streams, tracks follower
// acknowledgements, and parks semi-synchronous writes until enough
// followers confirm.
//
// Offer is called under the store's locks, in commit order, and must
// stay cheap; everything slow (waiting, streaming) happens on other
// goroutines.
type Hub struct {
	epoch       uint64
	ringMax     int
	minSync     int
	syncTimeout time.Duration
	log         *slog.Logger
	m           *obsv.Metrics

	mu        sync.Mutex
	next      uint64        // next sequence number expected
	ring      []entry       // contiguous backlog; ring[i].rec.Seq == ringFirst+i
	ringFirst uint64        // seq of ring[0]; ringFirst+len(ring) == next
	notify    chan struct{} // closed and replaced when the backlog grows
	fenced    bool
	fencedBy  uint64
	fencedCh  chan struct{}
	acks      map[string]*followerState
	maxAcked  uint64
	waiters   map[*ackWaiter]struct{}
}

// NewHub builds a hub for one leadership term.
func NewHub(cfg HubConfig) *Hub {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 65536
	}
	if cfg.SyncTimeout <= 0 {
		cfg.SyncTimeout = 5 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	h := &Hub{
		epoch:       cfg.Epoch,
		ringMax:     cfg.RingSize,
		minSync:     cfg.MinSync,
		syncTimeout: cfg.SyncTimeout,
		log:         cfg.Logger,
		m:           cfg.Metrics,
		next:        cfg.StartSeq + 1,
		ringFirst:   cfg.StartSeq + 1,
		notify:      make(chan struct{}),
		fencedCh:    make(chan struct{}),
		acks:        make(map[string]*followerState),
		waiters:     make(map[*ackWaiter]struct{}),
	}
	if h.m != nil {
		h.m.ReplEpoch.Set(float64(h.epoch))
	}
	return h
}

// Epoch returns the hub's leadership term.
func (h *Hub) Epoch() uint64 { return h.epoch }

// Offer appends one stamped batch to the backlog and wakes streams.
// The store appends in commit order (see store.Backend), so the batch
// must continue the backlog exactly: first Seq == next, contiguous
// within. Anything else means a record was lost or reordered between
// the store and the hub; shipping on would hand followers a history
// with a hole, so the hub logs both numbers and fences itself — writes
// fail with ErrFenced and the node rejoins through a snapshot. Called
// under the store's locks: O(len(batch)) slice work only.
func (h *Hub) Offer(batch []store.Record) {
	if len(batch) == 0 {
		return
	}
	now := time.Now()
	h.mu.Lock()
	if h.fenced {
		h.mu.Unlock()
		return
	}
	for i, rec := range batch {
		if want := h.next + uint64(i); rec.Seq != want {
			h.mu.Unlock()
			h.log.Error("repl: batch offered out of commit order; fencing",
				"want_seq", want, "got_seq", rec.Seq, "epoch", h.epoch)
			h.Fence(h.epoch)
			return
		}
	}
	for _, rec := range batch {
		h.ring = append(h.ring, entry{rec: rec, at: now})
	}
	h.next += uint64(len(batch))
	// Trim in chunks so eviction cost amortizes to O(1) per record.
	if len(h.ring) > h.ringMax {
		drop := len(h.ring) - h.ringMax*3/4
		old := len(h.ring)
		n := copy(h.ring, h.ring[drop:])
		for i := n; i < old; i++ {
			h.ring[i] = entry{}
		}
		h.ring = h.ring[:n]
		h.ringFirst += uint64(drop)
	}
	close(h.notify)
	h.notify = make(chan struct{})
	last := h.next - 1
	h.mu.Unlock()
	if h.m != nil {
		h.m.ReplAppliedSeq.Set(float64(last))
	}
}

// LastSeq returns the last committed sequence number.
func (h *Hub) LastSeq() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.next - 1
}

// RingFirst returns the oldest backlogged sequence number.
func (h *Hub) RingFirst() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ringFirst
}

// ReadFrom copies out up to max backlogged records with sequence
// numbers above fromSeq. When none are available yet it returns an
// empty slice plus a channel that closes when the backlog grows; the
// other readStates report positions the backlog cannot serve.
func (h *Hub) ReadFrom(fromSeq uint64, max int) ([]store.Record, readState, <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fenced {
		return nil, readFenced, nil
	}
	switch {
	case fromSeq >= h.next:
		return nil, readAhead, nil
	case fromSeq == h.next-1:
		return nil, readOK, h.notify
	case fromSeq+1 < h.ringFirst:
		return nil, readGap, nil
	}
	i := int(fromSeq + 1 - h.ringFirst)
	n := len(h.ring) - i
	if n > max {
		n = max
	}
	recs := make([]store.Record, n)
	for k := 0; k < n; k++ {
		recs[k] = h.ring[i+k].rec
	}
	return recs, readOK, nil
}

// Ack records a follower's applied high-water mark. An epoch above the
// hub's fences the hub (a newer leader exists); an epoch below it is
// rejected so the follower reconnects and adopts the current term.
func (h *Hub) Ack(peer string, epoch, seq uint64) error {
	if epoch > h.epoch {
		h.Fence(epoch)
		return ErrFenced
	}
	if epoch < h.epoch {
		return errStaleEpoch
	}
	now := time.Now()
	h.mu.Lock()
	fs := h.acks[peer]
	if fs == nil {
		fs = &followerState{}
		h.acks[peer] = fs
		defer h.log.Info("repl: follower acknowledging", "peer", peer, "seq", seq)
	}
	fs.lastAt = now
	if seq <= fs.ackSeq {
		h.mu.Unlock()
		return nil
	}
	fs.ackSeq = seq
	if seq > h.maxAcked {
		// First follower to confirm this position: the lag between
		// commit and this ack is what a semi-sync write waits out.
		if h.m != nil && seq >= h.ringFirst && seq < h.ringFirst+uint64(len(h.ring)) {
			h.m.ReplAckLag.Observe(now.Sub(h.ring[seq-h.ringFirst].at).Seconds())
		}
		h.maxAcked = seq
	}
	for w := range h.waiters {
		if w.seq <= seq && h.ackCountLocked(w.seq) >= w.need {
			close(w.ch)
			delete(h.waiters, w)
		}
	}
	h.mu.Unlock()
	return nil
}

func (h *Hub) ackCountLocked(seq uint64) int {
	n := 0
	for _, fs := range h.acks {
		if fs.ackSeq >= seq {
			n++
		}
	}
	return n
}

// WaitAcked blocks until MinSync followers have acknowledged seq, the
// hub is fenced, or SyncTimeout passes. With MinSync <= 0 it only
// checks the fence: asynchronous shipping acknowledges locally.
func (h *Hub) WaitAcked(seq uint64) error {
	h.mu.Lock()
	if h.fenced {
		h.mu.Unlock()
		return ErrFenced
	}
	if h.minSync <= 0 || h.ackCountLocked(seq) >= h.minSync {
		h.mu.Unlock()
		return nil
	}
	w := &ackWaiter{seq: seq, need: h.minSync, ch: make(chan struct{})}
	h.waiters[w] = struct{}{}
	h.mu.Unlock()

	t := time.NewTimer(h.syncTimeout)
	defer t.Stop()
	select {
	case <-w.ch:
		return nil
	case <-h.fencedCh:
		h.dropWaiter(w)
		return ErrFenced
	case <-t.C:
		h.dropWaiter(w)
		return fmt.Errorf("repl: seq %d not acknowledged by %d follower(s) within %s: %w",
			seq, h.minSync, h.syncTimeout, ErrSyncTimeout)
	}
}

func (h *Hub) dropWaiter(w *ackWaiter) {
	h.mu.Lock()
	delete(h.waiters, w)
	h.mu.Unlock()
}

// Fence marks the hub deposed — by a higher epoch, or with its own
// epoch by Stop and by Offer's ordering check: pending and future
// writes fail with ErrFenced and every stream ends. Idempotent; the
// first caller wins.
func (h *Hub) Fence(byEpoch uint64) {
	h.mu.Lock()
	if h.fenced {
		h.mu.Unlock()
		return
	}
	h.fenced = true
	h.fencedBy = byEpoch
	close(h.fencedCh)
	// Wake parked streams so they observe the fence and end.
	close(h.notify)
	h.notify = make(chan struct{})
	h.mu.Unlock()
	h.log.Warn("repl: leadership fenced", "epoch", h.epoch, "by_epoch", byEpoch)
}

// Fenced reports whether the hub has been deposed.
func (h *Hub) Fenced() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fenced
}

// FencedBy returns the epoch that deposed the hub (0 if not fenced).
func (h *Hub) FencedBy() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fencedBy
}

// FencedCh closes when the hub is fenced.
func (h *Hub) FencedCh() <-chan struct{} { return h.fencedCh }

// Progress snapshots every follower's shipping progress.
func (h *Hub) Progress() map[string]Progress {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]Progress, len(h.acks))
	for peer, fs := range h.acks {
		out[peer] = Progress{AckSeq: fs.ackSeq, AgoMillis: now.Sub(fs.lastAt).Milliseconds()}
	}
	return out
}
