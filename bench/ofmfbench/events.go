package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ofmf/bench/benchkit"
)

// sink receives write_events' webhook POSTs inside the generator. A
// subscription's deliveries arrive in publish order, so the j-th POST on
// a matching subscription belongs to the j-th PATCH sent since that
// subscription was registered; the origin resource in the payload is
// checked against that PATCH's target, and a PATCH is delivered when
// the last of its matching subscriptions has posted it.
type sink struct {
	srv *http.Server
	url string
	t0  time.Time

	mu        sync.Mutex
	cond      *sync.Cond
	matching  int
	perSub    map[int]int // deliveries seen per subscription
	patches   []patchRec
	completed int
	bad       []string
}

type patchRec struct {
	origin string
	sentNS int64
	doneNS int64
	got    int
}

func startSink() (*sink, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &sink{url: "http://" + ln.Addr().String() + "/hook", t0: time.Now()}
	s.cond = sync.NewCond(&s.mu)
	s.srv = &http.Server{Handler: http.HandlerFunc(s.handle)}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// reset forgets every PATCH and delivery: a fresh server has fresh
// subscriptions.
func (s *sink) reset(matching int) {
	s.mu.Lock()
	s.matching, s.perSub, s.patches, s.completed = matching, map[int]int{}, s.patches[:0], 0
	s.mu.Unlock()
}

// sent records that a PATCH of origin is about to be written.
func (s *sink) sent(origin string) {
	s.mu.Lock()
	s.patches = append(s.patches, patchRec{origin: origin, sentNS: time.Since(s.t0).Nanoseconds()})
	s.mu.Unlock()
}

var (
	originKey  = []byte(`"OriginOfCondition":{"@odata.id":"`)
	contextKey = []byte(`"Context":"bench-`)
	systemsKey = []byte(`/redfish/v1/Systems/node`)
)

// between returns the bytes after key up to the next quote.
func between(body, key []byte) ([]byte, bool) {
	i := bytes.Index(body, key)
	if i < 0 {
		return nil, false
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return nil, false
	}
	return rest[:j], true
}

func (s *sink) handle(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	now := time.Since(s.t0).Nanoseconds()
	w.WriteHeader(http.StatusNoContent)
	origin, ok := between(body, originKey)
	if !ok || !bytes.HasPrefix(origin, systemsKey) {
		return // the server's own telemetry updates also match ResourceUpdated
	}
	ctx, _ := between(body, contextKey)
	sub, err := strconv.Atoi(string(ctx))
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.bad = append(s.bad, "delivery without a bench Context")
		return
	}
	j := s.perSub[sub]
	s.perSub[sub]++
	if j >= len(s.patches) {
		s.bad = append(s.bad, fmt.Sprintf("subscription %d: delivery %d has no PATCH", sub, j))
		return
	}
	p := &s.patches[j]
	if p.origin != string(origin) {
		s.bad = append(s.bad, fmt.Sprintf("subscription %d: delivery %d is for %s, PATCH was to %s", sub, j, origin, p.origin))
		return
	}
	p.got++
	if p.got == s.matching {
		p.doneNS = now
		s.completed++
		s.cond.Broadcast()
	}
}

// waitLast blocks until the PATCH sent last has reached every matching
// subscription and returns its delivery delay in microseconds: from the
// PATCH's first byte written to the last webhook POST read. It gives up
// after limit.
func (s *sink) waitLast(limit time.Duration) (micros float64, ok bool) {
	timer := time.AfterFunc(limit, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	deadline := time.Now().Add(limit)
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.completed < len(s.patches) && time.Now().Before(deadline) {
		s.cond.Wait()
	}
	p := s.patches[len(s.patches)-1]
	return float64(p.doneNS-p.sentNS) / 1e3, p.got == s.matching
}

// count returns how many PATCHes were recorded.
func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.patches)
}

// audit reports, after the run, every delivery that broke the
// per-subscription order and every subscription whose delivery count is
// not exactly the number of PATCHes.
func (s *sink) audit() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]string(nil), s.bad...)
	if len(s.perSub) != s.matching {
		out = append(out, fmt.Sprintf("%d subscriptions delivered, want %d", len(s.perSub), s.matching))
	}
	for sub, n := range s.perSub {
		if n != len(s.patches) {
			out = append(out, fmt.Sprintf("subscription %d delivered %d events for %d PATCHes", sub, n, len(s.patches)))
		}
	}
	return out
}

func (s *sink) close() { _ = s.srv.Close() }

// sseDrain reads one server-sent-event stream and counts the frames
// whose origin is a testbed system.
type sseDrain struct {
	conn   net.Conn
	frames atomic.Int64
	tick   chan struct{} // one token per burst of frames; wakes waitFrames
	done   chan struct{}
}

func openSSE(addr string) (*sseDrain, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	req := benchkit.AppendRequest(nil, addr, "GET", "/redfish/v1/EventService/SSE?EventType=ResourceUpdated", "", nil)
	if _, err := conn.Write(req); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, &http.Request{Method: "GET"})
	if err != nil {
		conn.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		conn.Close()
		return nil, fmt.Errorf("SSE: %s", resp.Status)
	}
	d := &sseDrain{conn: conn, tick: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		rd := bufio.NewReaderSize(resp.Body, 64<<10)
		for {
			line, err := rd.ReadSlice('\n')
			if err != nil && err != bufio.ErrBufferFull {
				return
			}
			if bytes.HasPrefix(line, []byte("data: ")) {
				if origin, ok := between(line, originKey); ok && bytes.HasPrefix(origin, systemsKey) {
					d.frames.Add(1)
					select {
					case d.tick <- struct{}{}:
					default:
					}
				}
			}
		}
	}()
	return d, nil
}

// waitFrames blocks until n frames arrived or limit passed.
func (d *sseDrain) waitFrames(n int, limit time.Duration) bool {
	timeout := time.NewTimer(limit)
	defer timeout.Stop()
	for d.frames.Load() < int64(n) {
		select {
		case <-d.tick:
		case <-timeout.C:
			return false
		}
	}
	return true
}

func (d *sseDrain) close() {
	d.conn.Close()
	<-d.done
}
