// Package repl replicates one OFMF resource tree across nodes by
// shipping the store's write-ahead records. One node is the leader: its
// store carries a replication-aware backend (Tee) that hands every
// committed record batch, in commit order, to a Hub, which backlogs the
// log and streams records to followers over HTTP. Followers replay
// records through Store.Apply — the same code path boot recovery uses —
// so a replica's tree is rebuilt by exactly the mutations the leader
// performed, in commit order.
//
// # Protocol
//
// Three endpoints under /repl/v1, all served by Node.Handler:
//
//	GET  /repl/v1/status    role, epoch, last sequence, follower progress
//	GET  /repl/v1/snapshot  full-tree export + the seq/epoch it reflects
//	POST /repl/v1/stream    full duplex: NDJSON records down from
//	                        ?from=<seq>, acknowledgements up
//
// The stream opens with a hello frame carrying the leader's epoch, then
// ships rec frames in contiguous sequence order, interleaved with ka
// keepalives that double as the leadership lease. Its request body
// carries the acks, one {"Epoch":E,"Seq":S} line per drained burst of
// applied records, from the peer the stream names. A follower whose
// requested position has fallen out of the leader's in-memory backlog is
// first served from the on-disk WAL (when the leader persists one); if
// the position predates disk history too, the stream ends with an end
// frame telling the follower to bootstrap from /repl/v1/snapshot and
// catch up from the snapshot's sequence number.
//
// Every line on the stream is the one json.Encoder writes. A rec frame
// carries the record in the WAL's encoding (store.AppendRecord) and an
// ack is two numbers, so those two lines are written by hand and read by
// hand (store.DecodeRecord) with a buffered line reader, and the leader
// flushes once per backlog batch. Any line not in those shapes is
// json.Unmarshal's (a rec line's record first on its own, so that one
// at encoding/json's depth limit still arrives), so a group that mixes
// builds which encode with builds which write by hand streams
// unchanged.
//
// The snapshot reply is json.Encoder's bytes too, written and read by
// hand the same way: the leader writes the envelope around the stored
// document as it is, with a Content-Length, and the follower reads the
// reply into one buffer, walks the envelope and hands the document to
// the store's own verifying walk (Store.PutSubtreeCut). Every leader,
// those that encoded it too, writes that shape, so a reply in any other
// is refused.
//
// # Epochs and fencing
//
// Leadership terms are numbered by a monotonically increasing epoch,
// stamped into every record the leader commits (store.Record.Epoch).
// A follower promotes by bumping the highest epoch it has seen; the old
// leader is fenced the moment it observes the higher epoch — on an ack,
// a stream request, or a status probe — after which every in-flight and
// subsequent write on it fails with ErrFenced and the node demotes
// itself to a replica, discarding its divergent suffix via a fresh
// snapshot bootstrap. An ack below the leader's epoch ends the stream
// with a stale frame, and the follower reconnects into the current term.
//
// # Acknowledged-write durability
//
// With MinSync > 0 a mutation is acknowledged to the client only after
// MinSync followers confirm they applied its sequence number, so an
// acknowledged write survives the loss of the leader: at least MinSync
// replicas hold it, and the election picks the replica with the highest
// (epoch, applied seq). MinSync = 0 is asynchronous shipping — cheaper
// writes, and a failover may lose the tail that was never shipped.
//
// # Failover
//
// Election is lease-based, not quorum-based. A follower that misses
// keepalives for LeaseTimeout polls every peer: a reachable leader with
// an epoch at least its own is rejoined; otherwise the candidate with
// the highest (epoch, applied seq, smallest URL) wins, and if that is
// the local node it promotes in place — its store, already warm at the
// applied sequence, becomes the read-write tree and a new Hub starts
// backlogging from there. Nodes on the losing side of a partition can
// elect a second leader; epoch fencing bounds the damage (the stale
// leader is deposed on first contact) but writes accepted by two
// leaders during a partition diverge, with the higher epoch winning.
// Deploy an odd replica count across failure domains and size
// LeaseTimeout above expected network hiccups.
package repl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strconv"

	"ofmf/internal/odata"
	"ofmf/internal/store"
)

// Role names a node's current replication role.
type Role string

// The two roles. A node's role can change at runtime: a replica
// promotes to leader when it wins an election, a fenced leader demotes
// to replica.
const (
	RoleLeader  Role = "leader"
	RoleReplica Role = "replica"
)

// ErrFenced is returned to writers on a leader that has observed a
// higher epoch: another node holds leadership and this node's store
// must no longer acknowledge mutations.
var ErrFenced = errors.New("repl: fenced by a higher epoch")

// ErrSyncTimeout is returned when a semi-synchronous write was not
// acknowledged by MinSync followers within SyncTimeout. The in-memory
// commit stands (matching the store's log-behind contract), but the
// client is told the write failed, preserving the invariant that every
// acknowledged write is on at least MinSync replicas.
var ErrSyncTimeout = errors.New("repl: follower acknowledgement timeout")

// errStaleEpoch rejects an ack carrying an epoch below the hub's: the
// follower is talking to a newer term than it knows and must reconnect
// to adopt it.
var errStaleEpoch = errors.New("repl: stale epoch")

// errProtocolMismatch reports a leader that refused the stream's method.
var errProtocolMismatch = errors.New("repl: leader speaks another replication protocol; upgrade every node of the group together")

// Status is the /repl/v1/status document, served by every node.
type Status struct {
	// Self is the node's externally reachable base URL.
	Self string `json:"Self"`
	// Role is "leader" or "replica".
	Role Role `json:"Role"`
	// Epoch is the node's current leadership term.
	Epoch uint64 `json:"Epoch"`
	// LastSeq is the last committed sequence number on a leader, the
	// last applied one on a replica.
	LastSeq uint64 `json:"LastSeq"`
	// LeaderSeq is the leader's last advertised sequence number, as a
	// replica last heard it — LeaderSeq-LastSeq is the replica's lag.
	LeaderSeq uint64 `json:"LeaderSeq,omitempty"`
	// LeaderURL is the leader this replica follows (empty on a leader,
	// or while searching).
	LeaderURL string `json:"LeaderURL,omitempty"`
	// Fenced reports a deposed leader that has not finished demoting.
	Fenced bool `json:"Fenced,omitempty"`
	// MinSync is the leader's configured semi-sync follower count.
	MinSync int `json:"MinSync,omitempty"`
	// Followers maps follower peer names to their shipping progress
	// (leader only).
	Followers map[string]Progress `json:"Followers,omitempty"`
}

// Progress is one follower's shipping progress as the leader sees it.
type Progress struct {
	// AckSeq is the highest sequence number the follower acknowledged.
	AckSeq uint64 `json:"AckSeq"`
	// AgoMillis is how long ago the last ack arrived, in milliseconds.
	AgoMillis int64 `json:"AgoMillis"`
}

// snapshotDoc is the /repl/v1/snapshot payload: a store.Cut — the
// tree's document and the NextID marks it does not imply — plus the
// commit sequence number and epoch it reflects. A follower replacing its
// tree with Resources and folding in HiWater is exactly caught up to
// Seq, down to the ids it would mint if promoted. Its reply is written
// and read by hand (snapshot.go).
type snapshotDoc struct {
	Seq       uint64           `json:"Seq"`
	Epoch     uint64           `json:"Epoch"`
	HiWater   map[odata.ID]int `json:"HiWater,omitempty"`
	Resources json.RawMessage  `json:"Resources"`
}

// Stream frame types. A frame is one NDJSON line on /repl/v1/stream.
const (
	frameHello = "hello" // first frame: leader epoch + last seq
	frameRec   = "rec"   // one replicated record
	frameKA    = "ka"    // keepalive; refreshes the leadership lease
	frameEnd   = "end"   // stream over; Reason says what to do next
)

// End-frame reasons.
const (
	endSnapshot = "snapshot-required" // position unservable; bootstrap from snapshot
	endBehind   = "leader-behind"     // follower is ahead of this leader; elect
	endFenced   = "fenced"            // this leader was deposed mid-stream
	endStale    = "stale"             // an ack named an older term; reconnect
)

// frame is one NDJSON stream frame.
type frame struct {
	T string `json:"t"`
	// E is the leader's epoch (hello, ka, end).
	E uint64 `json:"e,omitempty"`
	// S is the leader's last committed sequence number (hello, ka).
	S uint64 `json:"s,omitempty"`
	// Reason qualifies an end frame.
	Reason string `json:"x,omitempty"`
	// Rec is the shipped record (rec frames).
	Rec *store.Record `json:"r,omitempty"`
}

// ackLine is one line of the stream's request body.
type ackLine struct {
	// Epoch is the term the follower is applying under.
	Epoch uint64 `json:"Epoch"`
	// Seq is the highest sequence number the follower has applied.
	Seq uint64 `json:"Seq"`
}

// The two lines on every replicated write's path, a rec frame down and an
// ack up, are written by hand as the bytes json.Encoder writes for them
// and read by hand in that one shape; every other line, and any line not
// in that shape, is json.Unmarshal's. The wire is json.Encoder's either
// way, so builds that encode and builds that write by hand interoperate.
var (
	recFramePrefix = []byte(`{"t":"rec","r":`)
	ackEpochKey    = []byte(`{"Epoch":`)
	ackSeqKey      = []byte(`,"Seq":`)
)

// appendRecFrame appends json.Encoder's line for frame{T: frameRec, Rec:
// &rec}: the record as store.AppendRecord writes it, inside the frame.
func appendRecFrame(dst []byte, rec store.Record) ([]byte, error) {
	dst, err := store.AppendRecord(append(dst, recFramePrefix...), rec)
	return append(dst, "}\n"...), err
}

// decodeFrame reads one stream line into the frame json.Unmarshal makes
// of it. A rec line of the shape appendRecFrame writes is read by
// store.DecodeRecord into *rec, which the frame then points at; its Raw
// aliases line. A record DecodeRecord declines is json.Unmarshal's on
// its own, not inside the line: the line nests it one level deeper, and
// a payload Put accepts at encoding/json's depth limit would never
// arrive.
func decodeFrame(line []byte, rec *store.Record) (f frame, err error) {
	if env, ok := bytes.CutPrefix(line, recFramePrefix); ok {
		env = bytes.TrimSuffix(env, []byte("\n"))
		if n := len(env) - 1; n > 0 && env[n] == '}' {
			if *rec, ok = store.DecodeRecord(env[:n]); ok {
				return frame{T: frameRec, Rec: rec}, nil
			}
			if r := bytes.TrimLeft(env[:n], " \t\r\n"); len(r) > 0 && r[0] == '{' {
				*rec = store.Record{}
				if json.Unmarshal(r, rec) == nil {
					return frame{T: frameRec, Rec: rec}, nil
				}
			}
		}
	}
	return f, json.Unmarshal(line, &f)
}

// appendAck appends json.Encoder's line for a.
func appendAck(dst []byte, a ackLine) []byte {
	dst = strconv.AppendUint(append(dst, ackEpochKey...), a.Epoch, 10)
	dst = strconv.AppendUint(append(dst, ackSeqKey...), a.Seq, 10)
	return append(dst, "}\n"...)
}

// decodeAck reads one ack line into the ackLine json.Unmarshal makes of
// it.
func decodeAck(line []byte) (a ackLine, err error) {
	p, ok := bytes.CutPrefix(line, ackEpochKey)
	if ok {
		a.Epoch, p, ok = store.CutUint(p)
	}
	if ok {
		p, ok = bytes.CutPrefix(p, ackSeqKey)
	}
	if ok {
		a.Seq, p, ok = store.CutUint(p)
	}
	if ok && (string(p) == "}\n" || string(p) == "}") {
		return a, nil
	}
	a = ackLine{}
	return a, json.Unmarshal(line, &a)
}

// lineReader splits NDJSON into lines, one JSON value each as
// json.Encoder writes them, handing out a line that fits the buffer
// without copying it.
type lineReader struct {
	br    *bufio.Reader
	spill []byte // a line longer than br's buffer, gathered
}

func newLineReader(r io.Reader, size int) *lineReader {
	return &lineReader{br: bufio.NewReaderSize(r, size)}
}

// next returns the next line, its newline included, valid until the next
// call. A last line without a newline comes before the reader's io.EOF.
func (r *lineReader) next() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		r.spill = append(r.spill[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.br.ReadSlice('\n')
			r.spill = append(r.spill, line...)
		}
		line = r.spill
	}
	if err == io.EOF && len(line) > 0 {
		err = nil
	}
	return line, err
}

// errorDoc is the JSON body of a non-200 replication response.
type errorDoc struct {
	Code   string `json:"Code"`
	Leader string `json:"Leader,omitempty"`
	Epoch  uint64 `json:"Epoch,omitempty"`
}
