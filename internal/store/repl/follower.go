package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"ofmf/internal/odata"
	"ofmf/internal/store"
)

// errResync asks the follower loop to restart followOnce; the snapshot
// flag has already been set when a bootstrap is required.
var errResync = errors.New("repl: resync required")

// streamReadBuffer is the follower's read buffer on the stream: a rec
// line that fits is decoded where it lies, a longer one is gathered.
const streamReadBuffer = 64 << 10

// treeRoot is the subtree a snapshot replaces: the whole Redfish tree.
const treeRoot = odata.ID("/redfish/v1")

// needsSnapshot reports (and clears are done by bootstrap) whether the
// replica must replace its tree before streaming. The flag is set at
// Start, on demotion, and whenever the stream reveals a gap — never
// inferred from applied==0, which is a legitimate position on a fresh
// cluster and must not force a re-bootstrap every reconnect.
func (n *Node) needsSnapshot() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.needSnapshot
}

// bootstrap replaces the replica's tree with the leader's snapshot and
// positions the stream cursor at the snapshot's sequence number. The
// reply is read into one buffer and its document installed where it
// lies (installSnapshot) by PutSubtreeCut, which verifies it in the same
// walk, removes every local resource absent from the snapshot —
// including a deposed leader's divergent suffix — and publishes ordinary
// change notifications, so watchers (the service's projections, SSE
// sequencing) stay coherent. The snapshot's NextID marks are folded in
// after it.
func (n *Node) bootstrap(ctx context.Context, leader string) error {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, leader+"/repl/v1/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return fmt.Errorf("repl: snapshot fetch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("repl: snapshot fetch: %s from %s", resp.Status, leader)
	}
	fetched := time.Now()
	// Read to the end, so the connection the snapshot came over is
	// reused for the stream.
	body, err := readSnapshotBody(resp.Body, resp.ContentLength)
	if err != nil {
		return fmt.Errorf("repl: snapshot read: %w", err)
	}
	read := time.Now()
	seq, epoch, err := installSnapshot(n.st, body)
	if err != nil {
		return err
	}
	n.applied.Store(seq)
	n.setEpoch(epoch)
	n.mu.Lock()
	n.needSnapshot = false
	n.mu.Unlock()
	if n.m != nil {
		n.m.ReplAppliedSeq.Set(float64(seq))
	}
	n.log.Info("repl: snapshot bootstrap complete",
		"leader", leader, "seq", seq, "epoch", epoch, "resources", n.st.Len(), "bytes", len(body),
		"fetch", fetched.Sub(start), "read", read.Sub(fetched), "install", time.Since(read),
		"duration", time.Since(start))
	return nil
}

// followOnce runs one bootstrap-if-needed + stream-and-apply cycle
// against leader, returning when the stream dies, the lease expires,
// or the leader tells the follower to do something else (resync,
// elect). Record application is strict: a record must carry exactly
// applied+1; anything later is a gap that forces a snapshot resync,
// anything earlier is a replay duplicate and is skipped.
func (n *Node) followOnce(ctx context.Context, leader string) error {
	if n.needsSnapshot() {
		if err := n.bootstrap(ctx, leader); err != nil {
			return err
		}
	}

	streamCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	// The lease: any frame resets the watchdog; silence for the full
	// lease kills the stream, sending the loop into election.
	watchdog := time.AfterFunc(n.lease, func() {
		cancel(fmt.Errorf("repl: lease expired after %s of silence from %s", n.lease, leader))
	})
	defer watchdog.Stop()

	from := n.applied.Load()
	url := fmt.Sprintf("%s/repl/v1/stream?from=%d&peer=%s&epoch=%d",
		leader, from, n.cfg.Self, n.epochNow())
	// The acks go on the request body, which ends with the stream: the
	// transport's writer waits in it, and a failing Do waits for that.
	body, acks := io.Pipe()
	context.AfterFunc(streamCtx, func() { acks.Close() })
	req, err := http.NewRequestWithContext(streamCtx, http.MethodPost, url, body)
	if err != nil {
		return err
	}
	// A server refusing the stream unread would hold its answer until the
	// body ends; expecting 100-continue, it answers at once.
	req.Header.Set("Expect", "100-continue")
	resp, err := n.streamClient.Do(req)
	if err != nil {
		return fmt.Errorf("repl: stream connect: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var ed errorDoc
		json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&ed)
		if resp.StatusCode == http.StatusMethodNotAllowed {
			return fmt.Errorf("%w (%s answered %s)", errProtocolMismatch, leader, resp.Status)
		}
		if ed.Code == "not-leader" && ed.Leader != "" {
			n.setLeader(ed.Leader)
		}
		return fmt.Errorf("repl: stream refused: %s (%s)", resp.Status, ed.Code)
	}

	// The ack pump coalesces acks: each applied batch pokes it, and while
	// one line is being written further applies accumulate, so the next
	// line carries the newest position. Its own goroutine, so a stalled
	// write to the leader never stalls record application.
	ackPoke := make(chan struct{}, 1)
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		// The first ack always goes out, even at seq 0: it is what
		// registers this follower in the leader's progress table (and
		// unblocks MinSync writes on a fresh cluster).
		var lastAcked uint64
		sent := false
		var line []byte
		for {
			select {
			case <-streamCtx.Done():
				return
			case <-ackPoke:
			}
			seq := n.applied.Load()
			if sent && seq <= lastAcked {
				continue
			}
			line = appendAck(line[:0], ackLine{Epoch: n.epochNow(), Seq: seq})
			if _, err := acks.Write(line); err != nil {
				// The body is gone, and every later ack with it: reconnect.
				cancel(fmt.Errorf("repl: ack write: %w", err))
				return
			}
			lastAcked, sent = seq, true
		}
	}()
	defer func() { cancel(nil); <-ackDone }()
	poke := func() {
		select {
		case ackPoke <- struct{}{}:
		default:
		}
	}

	lines := newLineReader(resp.Body, streamReadBuffer)
	var rec store.Record // the rec frame being applied; its Raw aliases the line
	for {
		line, err := lines.next()
		var f frame
		if err == nil {
			f, err = decodeFrame(line, &rec)
		}
		if err != nil {
			if streamCtx.Err() != nil && ctx.Err() == nil {
				return context.Cause(streamCtx)
			}
			return fmt.Errorf("repl: stream read: %w", err)
		}
		watchdog.Reset(n.lease)
		switch f.T {
		case frameHello, frameKA:
			if f.E < n.epochNow() {
				return fmt.Errorf("repl: leader %s is on old epoch %d (mine %d)", leader, f.E, n.epochNow())
			}
			n.setEpoch(f.E)
			n.leaderSeq.Store(f.S)
			poke() // re-assert progress so a restarted leader learns it
		case frameRec:
			if f.Rec == nil {
				return fmt.Errorf("repl: rec frame without record")
			}
			applied := n.applied.Load()
			switch {
			case f.Rec.Seq <= applied:
				continue // duplicate from a rewound stream position
			case f.Rec.Seq != applied+1:
				n.mu.Lock()
				n.needSnapshot = true
				n.mu.Unlock()
				return fmt.Errorf("repl: sequence gap: have %d, got %d: %w", applied, f.Rec.Seq, errResync)
			}
			if err := n.st.Apply(*f.Rec); err != nil {
				return fmt.Errorf("repl: apply seq %d: %w", f.Rec.Seq, err)
			}
			n.applied.Store(f.Rec.Seq)
			if f.Rec.Epoch > 0 {
				n.setEpoch(f.Rec.Epoch)
			}
			if n.m != nil {
				n.m.ReplApplied.Add(1)
				n.m.ReplAppliedSeq.Set(float64(f.Rec.Seq))
			}
			poke()
		case frameEnd:
			switch f.Reason {
			case endSnapshot:
				n.mu.Lock()
				n.needSnapshot = true
				n.mu.Unlock()
				return errResync
			case endStale:
				return errResync // the next hello carries the current term
			case endFenced, endBehind:
				return fmt.Errorf("repl: leader ended stream: %s", f.Reason)
			default:
				return fmt.Errorf("repl: stream ended: %s", f.Reason)
			}
		}
	}
}

func (n *Node) epochNow() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}
