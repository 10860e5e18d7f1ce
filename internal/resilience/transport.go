package resilience

import (
	"context"
	"io"
	"net/http"
	"sync"
	"time"
)

// Transport applies a Policy to every request: each attempt runs under
// its own deadline, transport errors and 5xx/429 responses are retried
// (idempotent requests only, within the retry budget) behind jittered
// exponential backoff, and a per-peer circuit breaker fails calls fast
// while a peer is down, probing it again after a cool-down.
type Transport struct {
	// Base performs the actual round trips (default: the package's
	// shared base transport, see baseTransport).
	Base http.RoundTripper
	// Policy is the fault-handling configuration; zero-valued fields
	// take DefaultPolicy values.
	Policy Policy
	// Retryable decides whether a request may consume more than one
	// attempt. Nil means idempotent methods only (GET, HEAD, PUT,
	// DELETE, OPTIONS). Control-plane edges whose POSTs are
	// idempotent by construction (subtree replace, heartbeat,
	// collection registration) override this.
	Retryable func(*http.Request) bool

	// The exported fields are read once, at the first round trip or
	// Breaker call; the resolved forms below serve every call after.
	once      sync.Once
	policy    Policy
	base      http.RoundTripper
	retryable func(*http.Request) bool
	breakers  *BreakerSet
}

// baseTransport is the pool every Transport and FaultTransport without
// a Base of its own dials through: agent registrations, publishes and
// heartbeats (internal/agent, the fleet harness), replication's status
// polls and stream, the Oem remote handler, ofmfctl and the client
// package. Webhook deliveries do not ride it; they go through a
// Poster. It is http.DefaultTransport's configuration but for
// the idle pool per host, which there is 2: a caller that runs more
// requests than that against one host at once closes every connection
// that finishes while 2 already sit idle, and dials again for its next
// request. idlePerHost (64) was sized for the event bus's worker clamp
// when deliveries still rode this pool; no edge left on it has been
// measured to want less, and an idle connection costs one file
// descriptor for IdleConnTimeout (90 s).
var baseTransport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = idlePerHost
	return t
}()

// idlePerHost bounds the idle connections kept per host, by the base
// transport and by every Poster. The Poster's callers are the event
// bus's workers, at most 64 by its default clamp, so a warm pool lets
// every worker post to one destination without dialling. It is a
// property of the code, not of a deployment, hence a constant.
const idlePerHost = 64

// NewHTTPClient wraps a Transport with the given policy in an
// http.Client. The client's own Timeout is left at zero: attempt
// deadlines, retries and breaker behaviour all live in the transport.
func NewHTTPClient(p Policy) *http.Client {
	return &http.Client{Transport: &Transport{Policy: p}}
}

// NewStreamingHTTPClient builds a client for long-lived connections
// (SSE): no per-attempt deadline, no retries, but still breaker-guarded
// so a wedged peer fails fast.
func NewStreamingHTTPClient(p Policy) *http.Client {
	p.AttemptTimeout = -1
	p.MaxAttempts = 1
	return &http.Client{Transport: &Transport{Policy: p}}
}

// RetryAll marks every request retryable. Use only on edges whose
// operations are idempotent by construction.
func RetryAll(*http.Request) bool { return true }

func idempotent(req *http.Request) bool {
	switch req.Method {
	case http.MethodGet, http.MethodHead, http.MethodPut, http.MethodDelete, http.MethodOptions:
		return true
	}
	return false
}

// Breaker returns the circuit breaker guarding peer, creating it if
// needed — callers can inspect breaker state for logs and metrics.
func (t *Transport) Breaker(peer string) *Breaker {
	t.once.Do(t.resolve)
	return t.breakers.For(peer)
}

// resolve fills the defaults in once, so a &Transport{Policy: p}
// literal works without a constructor and a round trip recomputes none
// of them.
func (t *Transport) resolve() {
	t.policy = t.Policy.withDefaults()
	t.breakers = NewBreakerSet(t.policy.Breaker)
	t.base = t.Base
	if t.base == nil {
		t.base = baseTransport
	}
	t.retryable = t.Retryable
	if t.retryable == nil {
		t.retryable = idempotent
	}
}

// retryableStatus reports whether a response status indicates a
// transient server-side condition worth retrying and counting against
// the breaker.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout,
		http.StatusInternalServerError:
		return true
	}
	return false
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	br := t.Breaker(req.URL.Host)
	p := &t.policy
	attempts := p.MaxAttempts
	// A consumed body that cannot be rewound forces a single attempt.
	if attempts > 1 && (!t.retryable(req) || (req.Body != nil && req.GetBody == nil)) {
		attempts = 1
	}

	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-req.Context().Done():
				return nil, req.Context().Err()
			case <-time.After(p.Backoff.Delay(attempt)):
			}
			if req.GetBody != nil {
				body, err := req.GetBody()
				if err != nil {
					return nil, err
				}
				req.Body = body
			}
		}
		if err := br.Allow(); err != nil {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, err
		}

		attemptReq := req
		cancel := context.CancelFunc(func() {})
		if p.AttemptTimeout > 0 {
			var ctx context.Context
			ctx, cancel = context.WithTimeout(req.Context(), p.AttemptTimeout)
			// A shallow copy: the base transport may not modify the
			// request (the RoundTripper contract), so the header map
			// and the body are safe to share with it.
			attemptReq = req.WithContext(ctx)
		}
		resp, err := t.base.RoundTrip(attemptReq)
		switch {
		case err != nil:
			cancel()
			br.Record(false)
			lastErr = err
		case retryableStatus(resp.StatusCode):
			br.Record(false)
			if attempt+1 < attempts {
				// Retiring this response: release its resources.
				_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
				resp.Body.Close()
				cancel()
			} else {
				// Hand the final response to the caller; closing the
				// body releases the attempt context.
				resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
				return resp, nil
			}
		default:
			br.Record(true)
			resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
			return resp, nil
		}
	}
	return nil, lastErr
}

// cancelBody releases the per-attempt context when the response body is
// closed, so the deadline also bounds body reads without leaking a
// cancel function on the success path.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

// Close closes the wrapped body and releases the attempt context.
func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}
