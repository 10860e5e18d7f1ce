package obsv

import (
	"net/http"
	"time"
)

// The connection deadlines of every server the commands run. They bound
// what a client that connects and then stalls can hold — a goroutine and
// its read buffers — without bounding a request once its headers are
// in: an SSE stream or a replication ack stream lasts as long as its
// client wants, so neither ReadTimeout nor WriteTimeout is set. What a
// request may hold after its headers (its body, its handler) is the
// in-flight budget's to bound, not a deadline's.
const (
	// ReadHeaderTimeout bounds the request line and headers. They arrive
	// in a segment or two within one round trip; ten seconds leaves room
	// for three TCP retransmissions (1 + 2 + 4 s) on a lossy path.
	ReadHeaderTimeout = 10 * time.Second
	// IdleTimeout bounds a kept-alive connection between requests. It is
	// above net/http's client default (Transport.IdleConnTimeout, 90 s),
	// so a well-behaved client closes an idle connection first and never
	// sends a request into one the server is closing.
	IdleTimeout = 2 * time.Minute
)

// NewServer returns the http.Server for h on addr with the deadlines
// above.
func NewServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
}
