package obsv

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestMiddlewarePanicAccounting: a panicking handler must not leak the
// in-flight gauge, must record a 500-class outcome, and the panic must
// still propagate to the server's recoverer.
func TestMiddlewarePanicAccounting(t *testing.T) {
	m := NewMetrics(NewRegistry())
	tr := NewTracer(nil, TracerOptions{})
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	}), m, nil, func(string) string { return "Test" }, tr)

	recovered := func() (v any) {
		defer func() { v = recover() }()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/x", nil))
		return nil
	}()
	if recovered == nil {
		t.Fatal("middleware swallowed the panic")
	}
	if got := m.HTTPInFlight.Value(); got != 0 {
		t.Errorf("in-flight after panic = %v, want 0", got)
	}
	if got := m.HTTPRequests.With("GET", "Test", "500").Value(); got != 1 {
		t.Errorf("500 counter = %v, want 1", got)
	}
	// The span ended despite the panic, carrying the 500 status.
	recs := tr.Dump()
	if len(recs) != 1 || recs[0].Name != "http.Test" || recs[0].Attrs["status"] != "500" {
		t.Errorf("panic span = %+v", recs)
	}
}

// TestMiddlewareUnwrap: http.ResponseController must reach the real
// writer's optional interfaces through the statusWriter wrapper.
func TestMiddlewareUnwrap(t *testing.T) {
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok || u.Unwrap() == nil {
			t.Error("middleware writer does not unwrap")
		}
		if err := http.NewResponseController(w).Flush(); err != nil {
			t.Errorf("ResponseController.Flush: %v", err)
		}
	}), nil, nil, nil, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestMiddlewareAdoptsTraceparent: an incoming traceparent joins the
// request to the caller's trace; absent one, the middleware mints a
// fresh trace. Either way the handler's context carries the span.
func TestMiddlewareAdoptsTraceparent(t *testing.T) {
	tr := NewTracer(nil, TracerOptions{})
	var seen SpanContext
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen, _ = SpanContextFrom(r.Context())
		w.WriteHeader(http.StatusOK)
	}), nil, nil, func(string) string { return "Test" }, tr)
	srv := httptest.NewServer(h)
	defer srv.Close()

	remote := SpanContext{TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("cd", 8)}
	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set(TraceparentHeader, remote.Traceparent())
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if seen.TraceID != remote.TraceID {
		t.Errorf("handler trace id = %s, want adopted %s", seen.TraceID, remote.TraceID)
	}
	recs := tr.Dump()
	if len(recs) != 1 || recs[0].TraceID != remote.TraceID || recs[0].ParentID != remote.SpanID {
		t.Fatalf("middleware span = %+v, want parented under the remote caller", recs)
	}

	// No traceparent: a fresh trace is minted.
	resp, err = srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !seen.Valid() || seen.TraceID == remote.TraceID {
		t.Errorf("fresh request span = %+v", seen)
	}
}

// headerWriter is the cheapest honest ResponseWriter: a header map the
// middleware can write X-Request-Id into, nothing else.
type headerWriter struct{ h http.Header }

func (w *headerWriter) Header() http.Header         { return w.h }
func (w *headerWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *headerWriter) WriteHeader(int)             {}

// TestMiddlewareAllocs is the exact-count gate on the middleware's
// per-request cost in the default configuration: metrics, tracer and an
// info-level logger attached, a request bringing no ids. Measured: 6
// allocations — the span, its context, the request copy WithContext
// makes, the request id string, the header value slice, the status
// writer (28 before the entry span went typed and the handles were
// pre-resolved). The number is the gate, not a ceiling to grow into.
func TestMiddlewareAllocs(t *testing.T) {
	m := NewMetrics(NewRegistry())
	tr := NewTracer(m.Registry(), TracerOptions{})
	log := NewLogger(io.Discard, slog.LevelInfo)
	noop := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	h := Middleware(noop, m, log, func(string) string { return "Test" }, tr)
	req := httptest.NewRequest(http.MethodGet, "/redfish/v1/Systems/node001", nil)
	w := &headerWriter{h: http.Header{}}
	got := testing.AllocsPerRun(500, func() { h.ServeHTTP(w, req) })
	if got > 6 {
		t.Errorf("Middleware(noop) = %v allocations per request, want <= 6", got)
	}
}

// TestMiddlewareBoundsAdoptedRequestID: a client-supplied X-Request-Id
// is echoed, logged and forwarded to agents, so only a well-formed one
// (at most 128 bytes of visible ASCII) is adopted; anything else is
// replaced by a minted id.
func TestMiddlewareBoundsAdoptedRequestID(t *testing.T) {
	var seen string
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestIDFrom(r.Context())
	}), nil, nil, nil, NewTracer(nil, TracerOptions{}))
	for _, tc := range []struct {
		name, sent string
		adopted    bool
	}{
		{"normal", "client-chosen-id", true},
		{"longest allowed", strings.Repeat("a", 128), true},
		{"oversized", strings.Repeat("a", 129), false},
		{"control byte", "abc\x07def", false},
		{"newline", "abc\ndef", false},
		{"space", "abc def", false},
		{"non-ascii", "abc\xffdef", false},
	} {
		req := httptest.NewRequest(http.MethodGet, "/x", nil)
		req.Header[RequestIDHeader] = []string{tc.sent}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		got := rec.Header().Get(RequestIDHeader)
		if got != seen {
			t.Errorf("%s: echoed id %q differs from the context's %q", tc.name, got, seen)
		}
		if tc.adopted && got != tc.sent {
			t.Errorf("%s: id %q not adopted verbatim, got %q", tc.name, tc.sent, got)
		}
		if !tc.adopted && (got == tc.sent || len(got) != 16 || !isHex(got)) {
			t.Errorf("%s: id %q not replaced by a minted one, got %q", tc.name, tc.sent, got)
		}
	}
}

// TestMiddlewareLogLevels: the operator loses no answer to the access
// line moving from info to debug. A debug-level logger sees one "http
// request" line per request with the six attrs and the request id; an
// info-level logger sees nothing for a 200 and one warn line each for a
// 500, a panic and a request slower than the tracer's slow threshold.
func TestMiddlewareLogLevels(t *testing.T) {
	serve := func(level slog.Level, slow time.Duration, handler http.HandlerFunc) (lines []string) {
		var buf bytes.Buffer
		tr := NewTracer(nil, TracerOptions{SlowThreshold: slow}) // its own slow-trace line goes nowhere
		h := Middleware(handler, NewMetrics(NewRegistry()), NewLogger(&buf, level),
			func(string) string { return "Test" }, tr)
		func() {
			defer func() { _ = recover() }()
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/some/path", nil))
		}()
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			if strings.Contains(line, `msg="http request"`) {
				lines = append(lines, line)
			}
		}
		return lines
	}
	ok := func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) }
	failing := func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusInternalServerError) }
	panicking := func(http.ResponseWriter, *http.Request) { panic("boom") }
	sleepy := func(w http.ResponseWriter, _ *http.Request) { time.Sleep(2 * time.Millisecond) }

	lines := serve(slog.LevelDebug, 0, ok)
	if len(lines) != 1 {
		t.Fatalf("debug logger saw %d access lines for one request, want 1: %v", len(lines), lines)
	}
	for _, attr := range []string{"level=DEBUG", "method=GET", "path=/some/path", "class=Test", "status=200", "duration=", "panic=false", "request_id="} {
		if !strings.Contains(lines[0], attr) {
			t.Errorf("access line lacks %q: %s", attr, lines[0])
		}
	}
	if lines := serve(slog.LevelInfo, 0, ok); len(lines) != 0 {
		t.Errorf("info logger saw an access line for a 200: %v", lines)
	}
	for name, tc := range map[string]struct {
		slow    time.Duration
		handler http.HandlerFunc
		want    []string
	}{
		"500":   {0, failing, []string{"status=500", "panic=false"}},
		"panic": {0, panicking, []string{"status=500", "panic=true"}},
		"slow":  {time.Millisecond, sleepy, []string{"status=200", "panic=false"}},
	} {
		lines := serve(slog.LevelInfo, tc.slow, tc.handler)
		if len(lines) != 1 || !strings.Contains(lines[0], "level=WARN") {
			t.Errorf("%s: info logger saw %v, want one warn line", name, lines)
			continue
		}
		for _, attr := range append(tc.want, "method=GET", "path=/some/path", "class=Test", "duration=", "request_id=") {
			if !strings.Contains(lines[0], attr) {
				t.Errorf("%s: warn line lacks %q: %s", name, attr, lines[0])
			}
		}
	}
}
