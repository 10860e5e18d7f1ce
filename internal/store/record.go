package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"ofmf/internal/odata"
)

// RecordOp identifies a log-record primitive.
type RecordOp string

// The two log primitives. Every higher-level mutation the store performs
// (Put, Create, Patch, PutSubtree, DeleteSubtree, Import) is reduced to
// an ordered batch of these before it reaches a Backend: a Patch is
// logged as the put of its merged post-state, a subtree refresh as the
// deletions and puts it actually performed. Replay is therefore
// insensitive to the original operation's semantics — folding the
// records in order (see Replay) reconstructs the tree, its children
// index, and its high-water marks exactly.
const (
	OpPut    RecordOp = "p"
	OpDelete RecordOp = "d"
)

// Record is one canonical committed mutation. Seq is the store's
// global monotonic commit sequence number, assigned while the store's
// write lock is held, so the log totally orders the store's history.
// Raw carries the post-state for OpPut and is empty for OpDelete.
//
// Epoch is the replication leadership term the record was committed
// under (see SetEpoch). It is 0 for an unreplicated store — the field
// is omitted from the WAL encoding then, keeping data directories
// byte-compatible with pre-replication layouts. After a failover the
// promoted leader stamps a higher epoch into every new record, so the
// logs themselves fence a deposed leader: two records with the same
// Seq but different Epochs identify the divergent suffix an old
// leader committed after losing leadership.
//
// verified is DecodeRecord's mark: it proved Raw canonical while reading
// it, so Replay.Add copies Raw instead of scanning it a second time. Only
// this package can set it, and it vouches for the bytes DecodeRecord
// returned; code that puts other bytes in Raw builds a fresh Record.
type Record struct {
	Seq      uint64          `json:"s"`
	Epoch    uint64          `json:"e,omitempty"`
	Op       RecordOp        `json:"o"`
	ID       odata.ID        `json:"i"`
	Raw      json.RawMessage `json:"r,omitempty"`
	verified bool
}

// The record's encoding is json.Marshal(rec), which the tags above spell
// out as
//
//	{"s":<seq>[,"e":<epoch>],"o":"<op>","i":"<id>"[,"r":<resource>]}
//
// The WAL frames it and the replication stream ships it, so both write it
// with AppendRecord and read it with DecodeRecord: the same bytes
// encoding/json would produce and accept, without the reflection.

// AppendRecord appends json.Marshal(rec) to dst. It writes the envelope
// by hand when the encoder would copy the op and id verbatim (PlainString)
// and the resource is canonical (IsCanonical), which every record the
// store commits is; anything else goes to json.Marshal, whose error is
// returned with dst unchanged.
func AppendRecord(dst []byte, rec Record) ([]byte, error) {
	if !PlainString(string(rec.Op)) || !PlainString(string(rec.ID)) || (len(rec.Raw) > 0 && !IsCanonical(rec.Raw)) {
		b, err := json.Marshal(rec)
		if err != nil {
			return dst, err
		}
		return append(dst, b...), nil
	}
	dst = strconv.AppendUint(append(dst, `{"s":`...), rec.Seq, 10)
	if rec.Epoch != 0 {
		dst = strconv.AppendUint(append(dst, `,"e":`...), rec.Epoch, 10)
	}
	dst = append(append(dst, `,"o":"`...), rec.Op...)
	dst = append(append(dst, `","i":"`...), rec.ID...)
	dst = append(dst, '"')
	if len(rec.Raw) > 0 {
		dst = append(append(dst, `,"r":`...), rec.Raw...)
	}
	return append(dst, '}'), nil
}

// DecodeRecord reads the envelope AppendRecord writes — fields in struct
// order, the op "p" or "d", an id free of escapes, the resource last and
// canonical (so valid) — into the Record json.Unmarshal would build from
// it, Raw aliasing payload and marked verified, so that Replay.Add does not
// scan it again. It reports false for anything else, which is
// json.Unmarshal's to read.
func DecodeRecord(payload []byte) (rec Record, ok bool) {
	p, ok := bytes.CutPrefix(payload, []byte(`{"s":`))
	if !ok {
		return rec, false
	}
	if rec.Seq, p, ok = CutUint(p); !ok {
		return rec, false
	}
	if rest, found := bytes.CutPrefix(p, []byte(`,"e":`)); found {
		if rec.Epoch, p, ok = CutUint(rest); !ok {
			return rec, false
		}
	}
	switch {
	case bytes.HasPrefix(p, []byte(`,"o":"p","i":"`)):
		rec.Op = OpPut
	case bytes.HasPrefix(p, []byte(`,"o":"d","i":"`)):
		rec.Op = OpDelete
	default:
		return rec, false
	}
	p = p[len(`,"o":"p","i":"`):]
	n := 0
	for ; n < len(p) && p[n] != '"'; n++ {
		if p[n] < 0x20 || p[n] > 0x7e || p[n] == '\\' {
			return rec, false // an escape, or bytes Unmarshal might rewrite
		}
	}
	if n == len(p) {
		return rec, false
	}
	rec.ID = odata.ID(p[:n])
	p = p[n+1:]
	if string(p) == "}" {
		return rec, true
	}
	if p, ok = bytes.CutPrefix(p, []byte(`,"r":`)); !ok || len(p) < 3 {
		return rec, false
	}
	if p[len(p)-1] != '}' || !IsCanonical(p[:len(p)-1]) {
		return rec, false
	}
	rec.Raw = p[: len(p)-1 : len(p)-1]
	rec.verified = true
	return rec, true
}

// CutUint reads the decimal uint64 p starts with, as JSON writes one: no
// sign, no leading zero, and no more than a uint64 holds. It returns the
// rest of p after the digits.
func CutUint(p []byte) (v uint64, rest []byte, ok bool) {
	n := 0
	for ; n < len(p) && p[n] >= '0' && p[n] <= '9'; n++ {
		v = v*10 + uint64(p[n]-'0')
	}
	if n == 0 || n > 20 || (p[0] == '0' && n > 1) {
		return 0, nil, false
	}
	if n == 20 { // 19 digits cannot overflow; 20 may
		var err error
		if v, err = strconv.ParseUint(string(p[:n]), 10, 64); err != nil {
			return 0, nil, false
		}
	}
	return v, p[n:], true
}

// CutPlainString reads the JSON string p starts with if it is printable
// ASCII with no escapes, the spelling that decodes to exactly its own
// bytes, and returns the rest of p after its closing quote.
func CutPlainString(p []byte) (s odata.ID, rest []byte, ok bool) {
	if len(p) == 0 || p[0] != '"' {
		return "", nil, false
	}
	for i := 1; i < len(p); i++ {
		switch c := p[i]; {
		case c == '"':
			return odata.ID(p[1:i]), p[i+1:], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return "", nil, false
		}
	}
	return "", nil, false
}

// Backend is the store's durability seam. The zero-config store has no
// backend and stays purely in-memory; attaching one (see AttachBackend)
// makes every committed mutation flow through it as one ordered log.
//
// The single ordering rule: Append is called under the store's write
// lock, held across the in-memory commit, sequence stamping and the
// call. Batches therefore reach the backend in strictly ascending,
// gap-free Seq order, one call at a time. Implementations
// must be fast in Append — buffer the records and complete durability
// (flush, fsync, replication) in the returned wait function, which the
// store calls exactly once after releasing its locks — before the
// mutation returns, or, for a mutation made under Deferred, when its
// unit of work ends. A nil wait means the batch is already durable.
// Errors surfaced by wait are returned to the mutating caller (or the
// Deferred caller); the in-memory commit is not rolled back (the tree
// stays ahead of a failing log).
type Backend interface {
	Append(batch []Record) (wait func() error)
	// Close flushes buffered records and releases the backend's
	// resources. The store calls it from Store.Close after detaching.
	Close() error
}

// AttachBackend installs the durability backend and fast-forwards the
// commit sequence to lastSeq (the highest sequence number the backend
// has already logged), so new records continue the recovered history.
// Attach after recovery has replayed the log — replay itself must not
// be re-logged — and before the store starts serving mutations.
func (s *Store) AttachBackend(b Backend, lastSeq uint64) {
	s.lock()
	s.backend = b
	s.seq.Store(lastSeq)
	s.mu.Unlock()
}

// Seq returns the global commit sequence number of the last mutation
// record handed to the durability backend (0 with no backend ever
// attached). The chaos harness compares it across a kill/recover cycle
// to prove WAL sequence integrity.
func (s *Store) Seq() uint64 { return s.seq.Load() }

// SetEpoch sets the replication epoch stamped into every subsequently
// committed record. The replication layer calls it when a node assumes
// (or resumes) leadership; an unreplicated store leaves it at 0.
func (s *Store) SetEpoch(e uint64) { s.epoch.Store(e) }

// Epoch returns the current replication epoch.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// Close detaches and closes the attached backend, if any, flushing its
// buffered records. The store remains usable (in-memory only) afterwards.
func (s *Store) Close() error {
	s.lock()
	b := s.backend
	s.backend = nil
	s.mu.Unlock()
	if b == nil {
		return nil
	}
	return b.Close()
}

// commitLocked stamps the batch with its global commit sequence numbers
// and the current replication epoch and hands it to the backend. The
// caller holds the store's write lock and hands the returned wait to
// settle only after releasing it. That lock orders all writers, so
// stamp-and-append is one step under it and racing writers produce one
// log in Seq order; the separate append mutex that guaranteed this while
// writers could hold different locks is gone, the guarantee is not.
func (s *Store) commitLocked(batch []Record) func() error {
	if s.backend == nil || len(batch) == 0 {
		return nil
	}
	base := s.seq.Add(uint64(len(batch))) - uint64(len(batch))
	epoch := s.epoch.Load()
	for i := range batch {
		batch[i].Seq = base + uint64(i) + 1
		batch[i].Epoch = epoch
	}
	return s.backend.Append(batch)
}

// waitDurable runs a commit's wait function, wrapping its error.
func waitDurable(wait func() error) error {
	if wait == nil {
		return nil
	}
	if err := wait(); err != nil {
		return fmt.Errorf("store: persist: %w", err)
	}
	return nil
}
