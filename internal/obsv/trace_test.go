package obsv

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRequestIDContextRoundtrip(t *testing.T) {
	if got := RequestIDFrom(context.Background()); got != "" {
		t.Errorf("empty ctx id = %q", got)
	}
	ctx := ContextWithRequestID(context.Background(), "abc123")
	if got := RequestIDFrom(ctx); got != "abc123" {
		t.Errorf("id = %q, want abc123", got)
	}
	// A span's context carries the id its entry span was given; an id
	// attached explicitly wins over it.
	ctx, sp := NewTracer(nil, TracerOptions{}).Start(context.Background(), "op")
	sp.ref.reqID = "fromspan"
	if got := RequestIDFrom(ctx); got != "fromspan" {
		t.Errorf("span ctx id = %q, want fromspan", got)
	}
	if got := RequestIDFrom(ContextWithRequestID(ctx, "explicit")); got != "explicit" {
		t.Errorf("explicit id = %q, want explicit", got)
	}
}

func TestLoggerInjectsRequestID(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, slog.LevelInfo)
	ctx := ContextWithRequestID(context.Background(), "deadbeef00000000")
	log.InfoContext(ctx, "hello")
	if !strings.Contains(buf.String(), "request_id=deadbeef00000000") {
		t.Errorf("log line missing request_id: %s", buf.String())
	}

	// The wrapper must survive WithAttrs re-derivation.
	buf.Reset()
	log.With("component", "test").InfoContext(ctx, "hello")
	line := buf.String()
	if !strings.Contains(line, "request_id=deadbeef00000000") || !strings.Contains(line, "component=test") {
		t.Errorf("derived logger lost request_id injection: %s", line)
	}
}

func TestMiddlewareGeneratesAndAdoptsRequestID(t *testing.T) {
	m := NewMetrics(NewRegistry())
	var buf bytes.Buffer
	log := NewLogger(&buf, slog.LevelDebug) // the access line is a debug line
	var seenCtx string
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seenCtx = RequestIDFrom(r.Context())
		w.WriteHeader(http.StatusTeapot)
	}), m, log, func(string) string { return "Test" }, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()

	// No client id: middleware mints one and returns it.
	resp, err := srv.Client().Get(srv.URL + "/whatever")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get(RequestIDHeader)
	if id == "" {
		t.Fatal("no X-Request-Id in response")
	}
	if seenCtx != id {
		t.Errorf("handler ctx id %q != header id %q", seenCtx, id)
	}
	if !strings.Contains(buf.String(), "request_id="+id) {
		t.Errorf("request log line missing request_id=%s:\n%s", id, buf.String())
	}

	// Client-supplied id is adopted, not replaced.
	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set(RequestIDHeader, "client-chosen-id")
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "client-chosen-id" {
		t.Errorf("adopted id = %q, want client-chosen-id", got)
	}
	if seenCtx != "client-chosen-id" {
		t.Errorf("ctx id = %q, want client-chosen-id", seenCtx)
	}

	// Metrics recorded both requests under the classifier's class.
	if got := m.HTTPRequests.With("GET", "Test", "418").Value(); got != 2 {
		t.Errorf("requests counter = %v, want 2", got)
	}
	if got := m.HTTPDuration.With("GET", "Test").Count(); got != 2 {
		t.Errorf("duration count = %v, want 2", got)
	}
	if got := m.HTTPInFlight.Value(); got != 0 {
		t.Errorf("in-flight = %v, want 0", got)
	}
}

// TestMiddlewarePreservesFlusher matters for SSE: the status-capturing
// wrapper must still expose http.Flusher or streams stall.
func TestMiddlewarePreservesFlusher(t *testing.T) {
	flushed := false
	// The client's Get can return as soon as the flush reaches it, before
	// the handler has returned; done orders the check after the handler.
	done := make(chan struct{})
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(done)
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("middleware hid http.Flusher")
			return
		}
		io.WriteString(w, "data: x\n\n")
		f.Flush()
		flushed = true
	}), nil, nil, nil, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	<-done
	if !flushed {
		t.Error("handler never flushed")
	}
}

func TestOutcome(t *testing.T) {
	if Outcome(nil) != "ok" {
		t.Errorf("Outcome(nil) = %q", Outcome(nil))
	}
	if Outcome(io.EOF) != "error" {
		t.Errorf("Outcome(err) = %q", Outcome(io.EOF))
	}
}
