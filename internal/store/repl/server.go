package repl

import (
	"encoding/json"
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
	mux.HandleFunc(PathPrefix+"ack", n.handleAck)
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
// exports live instead.
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
			writeJSON(w, http.StatusOK, snapshotDoc{Seq: seq, Epoch: hub.Epoch(), Resources: resources})
			return
		}
	}
	data, seq, err := n.st.Snapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, snapshotDoc{Seq: seq, Epoch: hub.Epoch(), Resources: data})
}

// streamBatch bounds how many backlogged records one ReadFrom round
// copies out while the stream holds no locks.
const streamBatch = 2048

// handleStream serves the NDJSON record stream: hello, then contiguous
// rec frames from ?from=<seq>, with ka keepalives whenever the backlog
// is idle. Positions below the in-memory backlog fall through to the
// on-disk WAL tail; positions below disk history end the stream with a
// snapshot-required frame.
func (n *Node) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
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
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	send := func(f frame) bool {
		if err := enc.Encode(f); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	if !send(frame{T: frameHello, E: hub.Epoch(), S: hub.LastSeq()}) {
		return
	}
	n.log.Info("repl: follower stream opened", "peer", peer, "from", from)

	ka := time.NewTicker(n.keepalive)
	defer ka.Stop()
	ctx := r.Context()
	for {
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
			for i := range recs {
				if !send(frame{T: frameRec, Rec: &recs[i]}) {
					return
				}
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

func (n *Node) handleAck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	hub := n.currentHub()
	if hub == nil {
		n.notLeader(w)
		return
	}
	var req ackReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad ack", http.StatusBadRequest)
		return
	}
	switch err := hub.Ack(req.Peer, req.Epoch, req.Seq); err {
	case nil:
		w.WriteHeader(http.StatusNoContent)
	case ErrFenced:
		writeJSON(w, http.StatusConflict, errorDoc{Code: "deposed", Epoch: hub.FencedBy()})
	case errStaleEpoch:
		writeJSON(w, http.StatusConflict, errorDoc{Code: "stale", Epoch: hub.Epoch()})
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
