package obsv

// Span-based tracing for the OFMF, hand-rolled like the metrics
// registry so the management plane stays dependency-free. A Tracer
// starts spans that link to their parent through the request context,
// propagates identity over HTTP edges via the W3C traceparent header,
// and retires finished spans into a bounded lock-free ring buffer that
// the Oem admin Traces endpoint dumps on demand. Span durations also
// feed the ofmf_span_seconds histogram, so metrics and traces
// cross-reference by operation name, and traces whose entry span
// exceeds a configured threshold are logged automatically.

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceparentHeader is the W3C trace-context header carried on every
// HTTP edge: OFMF -> fabric agent, OFMF -> event sink, client -> OFMF.
// Spelled in net/http's canonical form (header names are
// case-insensitive on the wire) so Header.Get need not canonicalize a
// copy of it on every request.
const TraceparentHeader = "Traceparent"

// SpanContext is the wire identity of a position in a trace: which
// trace the caller belongs to and which span is the caller.
type SpanContext struct {
	TraceID string // 32 lowercase hex characters, not all zero
	SpanID  string // 16 lowercase hex characters, not all zero
}

// Valid reports whether both ids have the right shape.
func (sc SpanContext) Valid() bool {
	return isHexID(sc.TraceID, 32) && isHexID(sc.SpanID, 16)
}

// Traceparent renders the context in W3C traceparent form
// (version 00, sampled flag set).
func (sc SpanContext) Traceparent() string {
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// ParseTraceparent parses a version-00 traceparent header value.
func ParseTraceparent(s string) (SpanContext, bool) {
	// 00-<32 hex>-<16 hex>-<2 hex flags>
	if len(s) != 55 || s[0] != '0' || s[1] != '0' || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: s[3:35], SpanID: s[36:52]}
	if !sc.Valid() || !isHex(s[53:55]) {
		return SpanContext{}, false
	}
	return sc, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func isHexID(s string, n int) bool {
	if len(s) != n || !isHex(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return true
		}
	}
	return false // all-zero ids are invalid per W3C trace context
}

// Ids live as bytes from the moment they are minted (or parsed off a
// traceparent header) and are hex-encoded only where a string is asked
// for: an outgoing header, a log line, Dump. The generator is
// math/rand/v2's process-wide ChaCha8 source — seeded from the OS once
// at start-up, lock-free and non-blocking — so a span costs no
// crypto/rand read.
type (
	traceID [16]byte
	spanID  [8]byte
)

func newTraceID() (id traceID) {
	for id == (traceID{}) { // all-zero ids are invalid per W3C trace context
		binary.BigEndian.PutUint64(id[:8], rand.Uint64())
		binary.BigEndian.PutUint64(id[8:], rand.Uint64())
	}
	return id
}

func newSpanID() (id spanID) {
	for id == (spanID{}) {
		binary.BigEndian.PutUint64(id[:], rand.Uint64())
	}
	return id
}

// spanCtxKey carries a *spanRef through request contexts.
type spanCtxKey struct{}

// spanRef is what a context carries about the active span: the identity
// new spans parent to, whether it was started in this process, and the
// request id every log line and outgoing edge of the request repeats. A
// remote (adopted) parent still parents new spans, but only a span with
// no local ancestor is an entry span — the unit the slow-trace log
// reports on. Read-only once the context holding it is handed out.
type spanRef struct {
	trace traceID
	span  spanID
	local bool
	reqID string
}

func spanRefFrom(ctx context.Context) *spanRef {
	if ctx == nil {
		return nil
	}
	ref, _ := ctx.Value(spanCtxKey{}).(*spanRef)
	return ref
}

func (ref *spanRef) context() SpanContext {
	return SpanContext{TraceID: hexString(ref.trace[:]), SpanID: hexString(ref.span[:])}
}

// hexString hex-encodes an id (at most 16 bytes) with one allocation.
func hexString(id []byte) string {
	var buf [32]byte
	return string(buf[:hex.Encode(buf[:], id)])
}

// ContextWithRemoteSpanContext attaches a span context adopted from an
// incoming traceparent header. Spans started under it parent to the
// remote caller, keeping one trace id across process boundaries.
func ContextWithRemoteSpanContext(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	ref := &spanRef{}
	// Valid checked length and alphabet, so neither decode can fail.
	_, _ = hex.Decode(ref.trace[:], []byte(sc.TraceID))
	_, _ = hex.Decode(ref.span[:], []byte(sc.SpanID))
	return context.WithValue(ctx, spanCtxKey{}, ref)
}

// SpanContextFrom returns the active span context carried by ctx.
func SpanContextFrom(ctx context.Context) (SpanContext, bool) {
	ref := spanRefFrom(ctx)
	if ref == nil {
		return SpanContext{}, false
	}
	return ref.context(), true
}

// InjectHeaders stamps the outgoing request headers with the trace
// context and request id carried by ctx, if any. Every HTTP edge the
// OFMF originates (agent ops, event delivery, CLI client) calls this.
func InjectHeaders(ctx context.Context, h http.Header) {
	if sc, ok := SpanContextFrom(ctx); ok {
		h.Set(TraceparentHeader, sc.Traceparent())
	}
	if id := RequestIDFrom(ctx); id != "" {
		h.Set(RequestIDHeader, id)
	}
}

// AppendHeaders appends what InjectHeaders would set, as HTTP/1.1
// header lines, for an edge that writes its own request bytes (the
// webhook poster). A request id that is not 1..128 bytes of visible
// ASCII is left out: it could not be written as a header value.
func AppendHeaders(ctx context.Context, dst []byte) []byte {
	if ref := spanRefFrom(ctx); ref != nil {
		dst = append(dst, TraceparentHeader+": 00-"...)
		dst = hex.AppendEncode(dst, ref.trace[:])
		dst = append(dst, '-')
		dst = hex.AppendEncode(dst, ref.span[:])
		dst = append(dst, "-01\r\n"...)
	}
	if id := RequestIDFrom(ctx); validRequestID(id) {
		dst = append(dst, RequestIDHeader+": "...)
		dst = append(dst, id...)
		dst = append(dst, "\r\n"...)
	}
	return dst
}

// SpanRecord is one finished span as served by the admin Traces
// endpoint. Attrs holds the span's attributes; an http.* entry span
// reports its request line there as "method", "path" and "status".
type SpanRecord struct {
	TraceID  string            `json:"TraceId"`
	SpanID   string            `json:"SpanId"`
	ParentID string            `json:"ParentId,omitempty"`
	Name     string            `json:"Name"`
	Start    time.Time         `json:"Start"`
	Duration time.Duration     `json:"DurationNs"`
	Err      string            `json:"Err,omitempty"`
	Attrs    map[string]string `json:"Attrs,omitempty"`
}

// Span is an in-flight operation, and after End the ring buffer's
// record of it. End (or EndErr) is idempotent; methods on a nil Span are
// no-ops so untraced paths need no guards.
type Span struct {
	tracer *Tracer
	ref    spanRef // what the span's context carries; fixed at start
	parent spanID  // zero for a root
	entry  bool    // no local ancestor: slow-log candidate
	name   string
	start  time.Time
	// The request line of an http.* entry span, set by Middleware before
	// the span is shared; status arrives with the end. Typed fields keep
	// the per-request path off the attrs map.
	method, path string

	mu     sync.Mutex
	ended  bool
	dur    time.Duration
	err    string
	status int
	attrs  map[string]string
}

// Context returns the span's wire identity.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ref.context()
}

// SetAttr attaches a key/value attribute to the span.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		if s.attrs == nil {
			s.attrs = make(map[string]string, 4)
		}
		s.attrs[k] = v
	}
	s.mu.Unlock()
}

// End finishes the span successfully.
func (s *Span) End() { s.EndErr(nil) }

// EndErr finishes the span, recording err's message if non-nil. The
// first call wins; later calls are ignored.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	s.end(time.Since(s.start), 0, err)
}

// end retires the span with a duration the caller measured; status is
// the HTTP status of an http.* entry span, zero otherwise.
func (s *Span) end(d time.Duration, status int, err error) {
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = d
	s.status = status
	if err != nil {
		s.err = err.Error()
	}
	s.mu.Unlock()
	s.tracer.finish(s)
}

// record renders the span in its served form: ids hex-encoded, the
// typed request line folded into Attrs.
func (s *Span) record() SpanRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := SpanRecord{
		TraceID:  hexString(s.ref.trace[:]),
		SpanID:   hexString(s.ref.span[:]),
		Name:     s.name,
		Start:    s.start,
		Duration: s.dur,
		Err:      s.err,
	}
	if s.parent != (spanID{}) {
		rec.ParentID = hexString(s.parent[:])
	}
	if len(s.attrs) > 0 || s.method != "" {
		rec.Attrs = make(map[string]string, len(s.attrs)+3)
		for k, v := range s.attrs {
			rec.Attrs[k] = v
		}
		if s.method != "" {
			rec.Attrs["method"] = s.method
			rec.Attrs["path"] = s.path
			rec.Attrs["status"] = strconv.Itoa(s.status)
		}
	}
	return rec
}

// StartChild starts a span parented to s without threading a context,
// for seams (WAL group commit) where no context crosses the boundary.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.newSpan(name, &s.ref, time.Now())
}

// TracerOptions configures a Tracer; the zero value is usable.
type TracerOptions struct {
	// Capacity is the ring buffer size in spans (default 4096).
	Capacity int
	// SlowThreshold logs any entry span at least this slow; zero
	// disables slow-trace logging.
	SlowThreshold time.Duration
	// Logger receives slow-trace lines (default: none).
	Logger *slog.Logger
}

// Tracer starts spans, retires them into a bounded lock-free ring
// buffer, and feeds their durations into ofmf_span_seconds. All methods
// are safe on a nil receiver, so tracing is strictly opt-in.
type Tracer struct {
	ring   []atomic.Pointer[Span]
	cursor atomic.Uint64

	spanSeconds *HistogramVec
	slow        time.Duration
	log         *slog.Logger
}

// NewTracer builds a tracer, registering ofmf_span_seconds on reg when
// reg is non-nil.
func NewTracer(reg *Registry, opts TracerOptions) *Tracer {
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = 4096
	}
	t := &Tracer{
		ring: make([]atomic.Pointer[Span], capacity),
		slow: opts.SlowThreshold,
		log:  opts.Logger,
	}
	if t.log == nil {
		t.log = NopLogger()
	}
	if reg != nil {
		t.spanSeconds = reg.HistogramVec("ofmf_span_seconds",
			"Traced span duration in seconds, by operation name.",
			nil, "op")
	}
	return t
}

// Start begins a span named name. The parent is the span context
// carried by ctx — local or adopted from a remote caller — or a fresh
// trace when ctx carries none. The returned context carries the new
// span so children link to it and InjectHeaders propagates it.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	return t.startAt(ctx, name, time.Now())
}

// startAt is Start on a clock reading the caller already took.
func (t *Tracer) startAt(ctx context.Context, name string, now time.Time) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	sp := t.newSpan(name, spanRefFrom(ctx), now)
	return context.WithValue(ctx, spanCtxKey{}, &sp.ref), sp
}

// StartIfTraced begins a span only when ctx already carries a span
// context. Seams reachable from untraced paths (recovery replay,
// background sweeps) use it so they never mint orphan traces.
func (t *Tracer) StartIfTraced(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil || spanRefFrom(ctx) == nil {
		return ctx, nil
	}
	return t.Start(ctx, name)
}

// newSpan mints a span under parent (nil: a fresh trace). It inherits
// the parent's trace and request id; it is an entry span unless an
// ancestor was started in this process.
func (t *Tracer) newSpan(name string, parent *spanRef, now time.Time) *Span {
	sp := &Span{tracer: t, name: name, start: now, entry: true}
	sp.ref.span = newSpanID()
	sp.ref.local = true
	if parent != nil {
		sp.ref.trace = parent.trace
		sp.ref.reqID = parent.reqID
		sp.parent = parent.span
		sp.entry = !parent.local
	} else {
		sp.ref.trace = newTraceID()
	}
	return sp
}

// Observe records a completed background operation (WAL fsync round,
// snapshot) as a root span without requiring context plumbing.
func (t *Tracer) Observe(name string, d time.Duration) {
	if t == nil {
		return
	}
	sp := t.newSpan(name, nil, time.Now().Add(-d))
	sp.entry = false
	sp.end(d, 0, nil)
}

// finish retires an ended span: histogram, ring push, slow-trace log.
func (t *Tracer) finish(sp *Span) {
	if t.spanSeconds != nil {
		t.spanSeconds.With(sp.name).Observe(sp.dur.Seconds())
	}
	i := t.cursor.Add(1) - 1
	t.ring[i%uint64(len(t.ring))].Store(sp)
	if sp.entry && t.slow > 0 && sp.dur >= t.slow {
		t.log.LogAttrs(context.Background(), slog.LevelWarn, "slow trace",
			slog.String("trace_id", hexString(sp.ref.trace[:])),
			slog.String("span", sp.name),
			slog.Duration("duration", sp.dur),
			slog.String("err", sp.err),
		)
	}
}

// Dump returns the ring buffer's finished spans, oldest first. Spans
// retired concurrently with the dump may or may not appear.
func (t *Tracer) Dump() []SpanRecord {
	if t == nil {
		return nil
	}
	out := make([]SpanRecord, 0, len(t.ring))
	for i := range t.ring {
		if sp := t.ring[i].Load(); sp != nil {
			out = append(out, sp.record())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}
