package fleet

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
)

// errOFMFDown is what an agent sees while the simulated OFMF is killed.
var errOFMFDown = errors.New("fleet: ofmf down: connection refused")

// memTransport carries agent HTTP traffic to the in-process OFMF
// without sockets: each round trip is a direct ServeHTTP call. The
// handler pointer is swappable, so an OFMF kill/recover cycle is a
// store+swap — nil while down (every request fails like a connection
// refused), the new incarnation's handler after recovery.
type memTransport struct {
	handler atomic.Pointer[http.Handler]
}

func (m *memTransport) set(h http.Handler) { m.handler.Store(&h) }

// kill makes every subsequent request fail until set is called again.
func (m *memTransport) kill() { m.handler.Store(nil) }

// RoundTrip implements http.RoundTripper.
func (m *memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	hp := m.handler.Load()
	if hp == nil {
		return nil, errOFMFDown
	}
	rec := httptest.NewRecorder()
	(*hp).ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}
