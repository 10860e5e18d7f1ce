package repl

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"ofmf/internal/store"
)

// PathPrefix is where Node.Handler expects to be mounted.
const PathPrefix = "/repl/v1/"

// Handler serves the replication protocol. Mount it at PathPrefix on
// the same listener as the Redfish tree; the endpoints carry
// operational state and raw tree data, so expose the listener only on
// the management network (the same trust domain as /metrics).
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathPrefix+"status", n.handleStatus)
	mux.HandleFunc(PathPrefix+"snapshot", n.handleSnapshot)
	mux.HandleFunc(PathPrefix+"stream", n.handleStream)
	return mux
}

func (n *Node) currentHub() *Hub {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != RoleLeader {
		return nil
	}
	return n.hub
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// notLeader rejects a leader-only request, pointing the caller at the
// leader this node follows.
func (n *Node) notLeader(w http.ResponseWriter) {
	writeJSON(w, http.StatusConflict, errorDoc{Code: "not-leader", Leader: n.LeaderURL()})
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, n.Status())
}

// handleSnapshot serves the bootstrap snapshot. The newest on-disk
// snapshot is preferred when the follower could stream onward from its
// sequence number (always true with a disk tail; otherwise it must
// still be inside the backlog) — that skips a whole-tree export under
// the store's read lock. A diskless or compaction-lagged leader
// exports live instead. Either document goes out as it is stored
// (writeSnapshot).
func (n *Node) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	hub := n.currentHub()
	if hub == nil {
		n.notLeader(w)
		return
	}
	if n.cfg.DiskSnapshot != nil {
		resources, seq, ok, err := n.cfg.DiskSnapshot()
		if err == nil && ok && (n.cfg.DiskTail != nil || seq+1 >= hub.RingFirst()) {
			// The tree's marks now, not the snapshot's: they cover every
			// mark the older document lacks, and the log the follower
			// applies after it raises none past them.
			writeSnapshot(w, seq, hub.Epoch(), n.st.HiWater(), resources)
			return
		}
	}
	c, err := n.st.Cut()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeSnapshot(w, c.Seq, hub.Epoch(), c.HiWater, c.Resources)
}

// streamBatch bounds how many backlogged records one ReadFrom round
// copies out while the stream holds no locks.
const streamBatch = 2048

// handleStream serves the NDJSON record stream: hello, then contiguous
// rec frames from ?from=<seq>, flushed once per backlog batch, with ka
// keepalives whenever the backlog is idle. Positions below the in-memory
// backlog fall through to the on-disk WAL tail; positions below disk
// history end the stream with a snapshot-required frame. Meanwhile the
// request body is read for the follower's acks; when that reading stops,
// busy or idle, so does the stream.
func (n *Node) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		// A GET is a follower from before acks moved onto the stream.
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorDoc{Code: "acks-on-stream"})
		return
	}
	if n.ctx.Err() != nil {
		// A stopped node must not hold follower streams open: its
		// listener may still accept while the process shuts down.
		http.Error(w, "node stopped", http.StatusServiceUnavailable)
		return
	}
	hub := n.currentHub()
	if hub == nil {
		n.notLeader(w)
		return
	}
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		http.Error(w, "bad from", http.StatusBadRequest)
		return
	}
	if e, err := strconv.ParseUint(q.Get("epoch"), 10, 64); err == nil && e > hub.Epoch() {
		// The follower has seen a newer term than this leader: we are
		// the stale one. Fence ourselves instead of feeding it.
		hub.Fence(e)
		writeJSON(w, http.StatusConflict, errorDoc{Code: "deposed", Epoch: e})
		return
	}
	peer := q.Get("peer")
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		http.Error(w, "full-duplex streaming unsupported", http.StatusInternalServerError)
		return
	}
	// The follower expects 100-continue and sends no acks until granted;
	// a 200 alone would cancel its body.
	w.WriteHeader(http.StatusContinue)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	// The ack reader is stopped with a read deadline, which can leave the
	// request body mid-line: the connection carries this stream only.
	w.Header().Set("Connection", "close")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	send := func(f frame) bool {
		return enc.Encode(f) == nil && rc.Flush() == nil
	}
	if !send(frame{T: frameHello, E: hub.Epoch(), S: hub.LastSeq()}) {
		return
	}
	n.log.Info("repl: follower stream opened", "peer", peer, "from", from)

	var ackErr error
	acksDone := make(chan struct{})
	go func() {
		defer close(acksDone)
		lines := newLineReader(r.Body, 4096)
		for ackErr == nil {
			var line []byte
			if line, ackErr = lines.next(); ackErr == nil {
				var a ackLine
				if a, ackErr = decodeAck(line); ackErr == nil {
					ackErr = hub.Ack(peer, a.Epoch, a.Seq)
				}
			}
		}
	}()
	defer func() {
		// The body is the server's again once the handler returns, so the
		// reader must be out of it first; the deadline ends a Read parked
		// on a follower with nothing to ack.
		rc.SetReadDeadline(time.Now())
		<-acksDone
	}()

	ka := time.NewTicker(n.keepalive)
	defer ka.Stop()
	ctx := r.Context()
	var line []byte // one rec line, reused
	for {
		select {
		case <-acksDone:
			switch {
			case errors.Is(ackErr, ErrFenced):
				send(frame{T: frameEnd, Reason: endFenced, E: hub.Epoch()})
			case errors.Is(ackErr, errStaleEpoch):
				send(frame{T: frameEnd, Reason: endStale, E: hub.Epoch()})
			}
			return
		default:
		}
		recs, state, wait := hub.ReadFrom(from, streamBatch)
		switch state {
		case readFenced:
			send(frame{T: frameEnd, Reason: endFenced, E: hub.Epoch()})
			return
		case readAhead:
			send(frame{T: frameEnd, Reason: endBehind, E: hub.Epoch()})
			return
		case readGap:
			recs = n.diskTail(from)
			if len(recs) == 0 {
				send(frame{T: frameEnd, Reason: endSnapshot, E: hub.Epoch()})
				return
			}
		}
		if len(recs) > 0 {
			// One flush per batch, not per record: each flush is a chunk
			// header and a write call.
			for _, rec := range recs {
				var err error
				if line, err = appendRecFrame(line[:0], rec); err != nil {
					return
				}
				if _, err = w.Write(line); err != nil {
					return
				}
			}
			if rc.Flush() != nil {
				return
			}
			from = recs[len(recs)-1].Seq
			if n.m != nil {
				n.m.ReplShipped.Add(float64(len(recs)))
			}
			continue
		}
		select {
		case <-ctx.Done():
			return
		case <-n.ctx.Done():
			return
		case <-acksDone: // handled at the top of the loop
		case <-hub.FencedCh():
			send(frame{T: frameEnd, Reason: endFenced, E: hub.Epoch()})
			return
		case <-wait:
		case <-ka.C:
			if !send(frame{T: frameKA, E: hub.Epoch(), S: hub.LastSeq()}) {
				return
			}
		}
	}
}

// diskTail reads the contiguous WAL run after fromSeq off disk, for
// followers that outran the in-memory backlog. A flush first makes the
// newest buffered appends visible, so the disk run has a chance to
// reconnect with the backlog's start.
func (n *Node) diskTail(fromSeq uint64) []store.Record {
	if n.cfg.DiskTail == nil {
		return nil
	}
	if n.cfg.DiskFlush != nil {
		if err := n.cfg.DiskFlush(); err != nil {
			n.log.Warn("repl: disk flush before tail", "err", err)
		}
	}
	recs, err := n.cfg.DiskTail(fromSeq)
	if err != nil {
		n.log.Warn("repl: disk tail", "from", fromSeq, "err", err)
		return nil
	}
	return recs
}
