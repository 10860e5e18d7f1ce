package obsv

import (
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// statusWriter captures the response status code while passing Flush
// through, so SSE streaming keeps working behind the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer so http.ResponseController can
// reach optional interfaces (deadlines, flush) through the middleware.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// methodLabels is the closed set of values the "method" label takes;
// anything a client invents beyond it is counted as OTHER.
var methodLabels = [...]string{"GET", "HEAD", "POST", "PATCH", "PUT", "DELETE", "OPTIONS", "OTHER"}

func methodIndex(method string) int {
	for i, m := range methodLabels[:len(methodLabels)-1] {
		if m == method {
			return i
		}
	}
	return len(methodLabels) - 1
}

// maxStatus bounds the status codes that get a pre-resolved counter.
const maxStatus = 600

// routeHandles are the instruments of one (class, method) pair, resolved
// once instead of joined from label strings on every request — the way
// the service pre-resolves a counter per store.OpNames entry.
type routeHandles struct {
	duration *Histogram
	codes    [maxStatus]atomic.Pointer[Counter] // by status code, filled on first use
}

// classHandles is what the middleware keeps per route class: the span
// name and the per-method instruments.
type classHandles struct {
	class   string
	span    string // "http." + class
	methods [len(methodLabels)]atomic.Pointer[routeHandles]
}

// handleCache resolves classes to their handles; the set of classes a
// classify function returns is closed and small.
type handleCache struct {
	m       *Metrics
	mu      sync.RWMutex
	classes map[string]*classHandles
}

func (c *handleCache) class(class string) *classHandles {
	c.mu.RLock()
	ch := c.classes[class]
	c.mu.RUnlock()
	if ch != nil {
		return ch
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ch = c.classes[class]; ch == nil {
		ch = &classHandles{class: class, span: "http." + class}
		c.classes[class] = ch
	}
	return ch
}

// count records one finished request. Racing first uses of a pair may
// each build a routeHandles; both resolve to the same registry series.
func (c *handleCache) count(ch *classHandles, method, status int, elapsed time.Duration) {
	rh := ch.methods[method].Load()
	if rh == nil {
		rh = &routeHandles{duration: c.m.HTTPDuration.With(methodLabels[method], ch.class)}
		ch.methods[method].Store(rh)
	}
	rh.duration.Observe(elapsed.Seconds())
	if status < 0 || status >= maxStatus {
		c.m.HTTPRequests.With(methodLabels[method], ch.class, strconv.Itoa(status)).Inc()
		return
	}
	ctr := rh.codes[status].Load()
	if ctr == nil {
		ctr = c.m.HTTPRequests.With(methodLabels[method], ch.class, strconv.Itoa(status))
		rh.codes[status].Store(ctr)
	}
	ctr.Inc()
}

// Middleware instruments an HTTP handler. Every request gets an entry
// span (adopting the traceparent header's trace, else starting one) that
// records method, path and status, so the Traces endpoint and the
// slow-trace log can account for any request, not a sample. It gets one
// correlation id: a well-formed X-Request-Id is adopted, otherwise the
// id is the first 16 hex digits of the trace id; it is returned in the
// X-Request-Id header and carried by the request context so every
// downstream log line and agent hop repeats it. The request is counted
// in the metrics bundle under classify's bounded route class and a
// closed method set.
//
// The access line ("http request", six attrs) is logged at debug; a
// request that ends >= 500, panics, or runs past the tracer's slow
// threshold is logged at warn instead. A nil metrics, logger, classify
// or tracer falls back to no-ops. Accounting runs in a defer, so a
// panicking handler still decrements in-flight, records a 500-class
// outcome, and ends its span before the panic propagates to the server.
func Middleware(next http.Handler, m *Metrics, log *slog.Logger, classify func(path string) string, tracer *Tracer) http.Handler {
	if log == nil {
		log = NopLogger()
	}
	if classify == nil {
		classify = func(string) string { return "all" }
	}
	handles := &handleCache{m: m, classes: map[string]*classHandles{}}
	var slow time.Duration // the tracer's slow-trace threshold; zero: off
	if tracer != nil {
		slow = tracer.slow
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ch := handles.class(classify(r.URL.Path))
		id := r.Header.Get(RequestIDHeader)
		if !validRequestID(id) {
			id = ""
		}
		ctx := r.Context()
		if sc, ok := ParseTraceparent(r.Header.Get(TraceparentHeader)); ok {
			ctx = ContextWithRemoteSpanContext(ctx, sc)
		}
		ctx, span := tracer.startAt(ctx, ch.span, start)
		if span != nil {
			// The span is not shared yet: its context reaches the handler
			// only through the request built below.
			if id == "" {
				id = hexString(span.ref.trace[:8])
			}
			span.ref.reqID = id
			span.method, span.path = r.Method, r.URL.Path
		} else {
			if id == "" {
				random := newSpanID()
				id = hexString(random[:])
			}
			ctx = ContextWithRequestID(ctx, id)
		}
		r = r.WithContext(ctx)
		w.Header().Set(RequestIDHeader, id)

		if m != nil {
			m.HTTPInFlight.Inc()
		}
		sw := &statusWriter{ResponseWriter: w}
		panicked := true
		defer func() {
			elapsed := time.Since(start)
			status := sw.status
			if status == 0 {
				if panicked {
					status = http.StatusInternalServerError
				} else {
					status = http.StatusOK
				}
			}
			if span != nil {
				span.end(elapsed, status, nil)
			}
			if m != nil {
				m.HTTPInFlight.Dec()
				handles.count(ch, methodIndex(r.Method), status, elapsed)
			}
			level := slog.LevelDebug
			if status >= 500 || panicked || (slow > 0 && elapsed >= slow) {
				level = slog.LevelWarn
			}
			if log.Enabled(ctx, level) {
				log.LogAttrs(ctx, level, "http request",
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.String("class", ch.class),
					slog.Int("status", status),
					slog.Duration("duration", elapsed),
					slog.Bool("panic", panicked),
				)
			}
		}()
		next.ServeHTTP(sw, r)
		panicked = false
	})
}
