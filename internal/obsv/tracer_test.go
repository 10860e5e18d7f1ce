package obsv

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundtrip(t *testing.T) {
	sc := SpanContext{TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("cd", 8)}
	if !sc.Valid() {
		t.Fatal("well-formed context reported invalid")
	}
	got, ok := ParseTraceparent(sc.Traceparent())
	if !ok || got != sc {
		t.Fatalf("roundtrip = %+v, %v; want %+v", got, ok, sc)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := SpanContext{TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("cd", 8)}.Traceparent()
	bad := []string{
		"",
		valid[:54],             // truncated
		"01" + valid[2:],       // unknown version
		strings.ToUpper(valid), // uppercase hex
		"00-" + strings.Repeat("0", 32) + valid[35:],      // all-zero trace id
		valid[:36] + strings.Repeat("0", 16) + valid[52:], // all-zero span id
		strings.Replace(valid, "-01", "-0x", 1),           // non-hex flags
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted", s)
		}
	}
}

func TestTracerParentChildLinks(t *testing.T) {
	tr := NewTracer(NewRegistry(), TracerOptions{})
	ctx, root := tr.Start(context.Background(), "root")
	_, child := tr.Start(ctx, "child")
	grand := child.StartChild("grand")
	grand.End()
	child.EndErr(errors.New("boom"))
	root.End()

	recs := map[string]SpanRecord{}
	for _, r := range tr.Dump() {
		recs[r.Name] = r
	}
	if len(recs) != 3 {
		t.Fatalf("dump = %d spans, want 3", len(recs))
	}
	rootRec, childRec, grandRec := recs["root"], recs["child"], recs["grand"]
	if rootRec.ParentID != "" {
		t.Errorf("root has parent %q", rootRec.ParentID)
	}
	if childRec.TraceID != rootRec.TraceID || grandRec.TraceID != rootRec.TraceID {
		t.Errorf("trace ids diverge: %s / %s / %s", rootRec.TraceID, childRec.TraceID, grandRec.TraceID)
	}
	if childRec.ParentID != rootRec.SpanID {
		t.Errorf("child parent = %q, want %q", childRec.ParentID, rootRec.SpanID)
	}
	if grandRec.ParentID != childRec.SpanID {
		t.Errorf("grandchild parent = %q, want %q", grandRec.ParentID, childRec.SpanID)
	}
	if childRec.Err != "boom" {
		t.Errorf("child err = %q", childRec.Err)
	}
}

func TestStartIfTraced(t *testing.T) {
	tr := NewTracer(NewRegistry(), TracerOptions{})

	// An untraced context must not mint an orphan trace.
	_, sp := tr.StartIfTraced(context.Background(), "store.put")
	if sp != nil {
		t.Fatal("StartIfTraced minted a span on an untraced context")
	}
	if got := len(tr.Dump()); got != 0 {
		t.Fatalf("dump = %d spans, want 0", got)
	}

	// A remote-adopted context parents the new span across the wire.
	remote := SpanContext{TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("cd", 8)}
	ctx := ContextWithRemoteSpanContext(context.Background(), remote)
	_, sp = tr.StartIfTraced(ctx, "store.put")
	if sp == nil {
		t.Fatal("no span on a traced context")
	}
	sp.End()
	recs := tr.Dump()
	if len(recs) != 1 || recs[0].TraceID != remote.TraceID || recs[0].ParentID != remote.SpanID {
		t.Fatalf("adopted span = %+v, want trace %s parent %s", recs, remote.TraceID, remote.SpanID)
	}
}

func TestRingWraparound(t *testing.T) {
	tr := NewTracer(nil, TracerOptions{Capacity: 4})
	for i := 0; i < 10; i++ {
		tr.Observe("op", time.Duration(i+1)*time.Millisecond)
	}
	recs := tr.Dump()
	if len(recs) != 4 {
		t.Fatalf("dump = %d spans, want ring capacity 4", len(recs))
	}
	// Only the newest four survive.
	for _, r := range recs {
		if r.Duration < 7*time.Millisecond {
			t.Errorf("stale span survived wraparound: %v", r.Duration)
		}
	}
}

func TestObserveFeedsHistogram(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, TracerOptions{})
	tr.Observe("wal.fsync", 3*time.Millisecond)
	tr.Observe("wal.fsync", 5*time.Millisecond)
	recs := tr.Dump()
	if len(recs) != 2 || recs[0].Name != "wal.fsync" {
		t.Fatalf("dump = %+v", recs)
	}
	if recs[0].TraceID == recs[1].TraceID {
		t.Error("Observe spans share a trace id; each should be a root")
	}
	if !strings.Contains(renderMetrics(reg), "ofmf_span_seconds") {
		t.Error("ofmf_span_seconds not exported")
	}
}

func renderMetrics(reg *Registry) string {
	var buf bytes.Buffer
	req, _ := http.NewRequest(http.MethodGet, "/metrics", nil)
	rw := &bufWriter{buf: &buf, header: http.Header{}}
	reg.Handler().ServeHTTP(rw, req)
	return buf.String()
}

type bufWriter struct {
	buf    *bytes.Buffer
	header http.Header
}

func (w *bufWriter) Header() http.Header         { return w.header }
func (w *bufWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }
func (w *bufWriter) WriteHeader(int)             {}

func TestSlowTraceLogging(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(nil, TracerOptions{
		SlowThreshold: time.Nanosecond,
		Logger:        NewLogger(&buf, slog.LevelInfo),
	})

	// A child span is never an entry span, so it must not log.
	ctx, root := tr.Start(context.Background(), "entry")
	_, child := tr.Start(ctx, "child")
	time.Sleep(time.Millisecond)
	child.End()
	if strings.Contains(buf.String(), "slow trace") {
		t.Fatalf("child span logged as slow trace:\n%s", buf.String())
	}
	root.End()
	if !strings.Contains(buf.String(), "slow trace") || !strings.Contains(buf.String(), "entry") {
		t.Fatalf("entry span did not log:\n%s", buf.String())
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.Start(context.Background(), "x")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	if _, sp2 := tr.StartIfTraced(ctx, "y"); sp2 != nil {
		t.Fatal("nil tracer StartIfTraced returned a span")
	}
	tr.Observe("z", time.Second)
	if tr.Dump() != nil {
		t.Fatal("nil tracer dumped spans")
	}
	// All span methods tolerate nil.
	sp.SetAttr("k", "v")
	sp.End()
	sp.EndErr(errors.New("x"))
	if c := sp.StartChild("c"); c != nil {
		t.Fatal("nil span spawned a child")
	}
	if sc := sp.Context(); sc.Valid() {
		t.Fatal("nil span has a valid context")
	}
}

func TestInjectHeaders(t *testing.T) {
	tr := NewTracer(nil, TracerOptions{})
	h := http.Header{}
	InjectHeaders(context.Background(), h)
	if got := h.Get(TraceparentHeader); got != "" {
		t.Fatalf("untraced ctx injected traceparent %q", got)
	}

	ctx, sp := tr.Start(context.Background(), "op")
	ctx = ContextWithRequestID(ctx, "deadbeef00000000")
	InjectHeaders(ctx, h)
	sc, ok := ParseTraceparent(h.Get(TraceparentHeader))
	if !ok || sc != sp.Context() {
		t.Fatalf("injected traceparent = %q, want context of %+v", h.Get(TraceparentHeader), sp.Context())
	}
	if got := h.Get(RequestIDHeader); got != "deadbeef00000000" {
		t.Errorf("injected request id = %q", got)
	}
	sp.End()
}

// TestAppendHeadersMatchesInject: the header lines a hand-written
// request carries are the headers InjectHeaders sets, and a request id
// that is no valid header value is left out.
func TestAppendHeadersMatchesInject(t *testing.T) {
	if got := AppendHeaders(context.Background(), nil); len(got) != 0 {
		t.Fatalf("untraced ctx appended %q", got)
	}
	tr := NewTracer(nil, TracerOptions{})
	ctx, sp := tr.Start(context.Background(), "op")
	defer sp.End()
	for _, id := range []string{"", "deadbeef00000000", "two words", "line\r\nX-Evil: 1"} {
		ctx := ctx
		if id != "" {
			ctx = ContextWithRequestID(ctx, id)
		}
		raw := "POST / HTTP/1.1\r\nHost: h\r\n" + string(AppendHeaders(ctx, nil)) + "\r\n"
		req, err := http.ReadRequest(bufio.NewReader(strings.NewReader(raw)))
		if err != nil {
			t.Fatalf("id %q: %v", id, err)
		}
		want := http.Header{}
		InjectHeaders(ctx, want)
		if !validRequestID(id) {
			want.Del(RequestIDHeader)
		}
		if !reflect.DeepEqual(req.Header, want) {
			t.Errorf("id %q: appended %v, InjectHeaders sets %v", id, req.Header, want)
		}
	}
}

// TestTracerConcurrent hammers Start/SetAttr/End/Observe/Dump from many
// goroutines; run with -race to check the lock-free ring and span
// state transitions.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(NewRegistry(), TracerOptions{Capacity: 64})
	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ctx, root := tr.Start(context.Background(), "root")
				_, child := tr.StartIfTraced(ctx, "child")
				child.SetAttr("i", "x")
				child.End()
				root.StartChild("side").End()
				root.EndErr(nil)
				tr.Observe("bg", time.Microsecond)
				if i%50 == 0 {
					tr.Dump()
				}
			}
		}(w)
	}
	wg.Wait()
	recs := tr.Dump()
	if len(recs) != 64 {
		t.Fatalf("dump = %d spans, want full ring of 64", len(recs))
	}
}
