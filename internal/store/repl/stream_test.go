package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ofmf/internal/odata"
	"ofmf/internal/store"
)

// rawStream is a hand-driven follower stream: the test writes the ack
// lines and reads the frames itself.
type rawStream struct {
	dec  *json.Decoder
	acks *io.PipeWriter
}

// openRawStream opens leaderURL's stream at its current position as
// peer and reads the hello frame.
func openRawStream(t *testing.T, leaderURL, peer string) *rawStream {
	t.Helper()
	resp, err := http.Get(leaderURL + "/repl/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body, acks := io.Pipe()
	req, err := http.NewRequest(http.MethodPost,
		fmt.Sprintf("%s/repl/v1/stream?from=%d&peer=%s", leaderURL, st.LastSeq, peer), body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { acks.Close(); resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open stream: %s", resp.Status)
	}
	s := &rawStream{dec: json.NewDecoder(resp.Body), acks: acks}
	if f := s.until(t, frameHello); f.E != st.Epoch {
		t.Fatalf("hello epoch %d, want %d", f.E, st.Epoch)
	}
	return s
}

func (s *rawStream) ack(t *testing.T, line string) {
	t.Helper()
	if _, err := io.WriteString(s.acks, line+"\n"); err != nil {
		t.Fatal(err)
	}
}

// until reads frames up to and including the first of type typ.
func (s *rawStream) until(t *testing.T, typ string) frame {
	t.Helper()
	for {
		var f frame
		if err := s.dec.Decode(&f); err != nil {
			t.Fatalf("reading for a %q frame: %v", typ, err)
		}
		if f.T == typ {
			return f
		}
	}
}

// reqCounter counts the requests a handler serves, and the stream opens
// among them. It hands the ResponseWriter on untouched: the stream needs
// its full-duplex mode.
type reqCounter struct{ all, streams atomic.Int64 }

func (c *reqCounter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.all.Add(1)
		if r.URL.Path == PathPrefix+"stream" {
			c.streams.Add(1)
		}
		h.ServeHTTP(w, r)
	})
}

var errSevered = errors.New("test: stream severed")

// heldTransport sits under a follower's StreamClient. While held, what
// the leader sends reaches the follower only on release; once severed,
// every stream read fails and new streams are refused.
type heldTransport struct {
	mu      sync.Mutex
	held    chan struct{} // non-nil while held; closed on release
	severed bool
}

func (h *heldTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if _, severed := h.state(); severed {
		return nil, errSevered
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = heldBody{resp.Body, h}
	return resp, nil
}

// state returns the hold channel (nil when not held) and whether the
// stream is severed.
func (h *heldTransport) state() (chan struct{}, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.held, h.severed
}

func (h *heldTransport) hold() {
	h.mu.Lock()
	h.held = make(chan struct{})
	h.mu.Unlock()
}

func (h *heldTransport) release(sever bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.severed = h.severed || sever
	if h.held != nil {
		close(h.held)
		h.held = nil
	}
}

type heldBody struct {
	io.ReadCloser
	h *heldTransport
}

func (b heldBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if held, _ := b.h.state(); held != nil {
		<-held
	}
	if _, severed := b.h.state(); severed {
		return 0, errSevered
	}
	return n, err
}

// postAsync POSTs a chassis to the leader and reports the outcome on
// the returned channel.
func postAsync(base, name string) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := postChassis(&http.Client{Timeout: 10 * time.Second}, base, name)
		done <- err
	}()
	return done
}

// TestReplSemiSyncWriteWaitsForApply: with MinSync=1 a write is not
// acknowledged while its follower cannot have applied it — here, while
// everything the leader streams is held short of the follower.
func TestReplSemiSyncWriteWaitsForApply(t *testing.T) {
	held := &heldTransport{}
	defer held.release(false)
	c := startTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.LeaseTimeout = time.Second
		if i == 1 {
			cfg.StreamClient = &http.Client{Transport: held}
		}
	})
	leader := c.nodes[0]
	waitFor(t, 5*time.Second, "follower connected", func() bool {
		return len(leader.node.Status().Followers) == 1
	})

	held.hold()
	done := postAsync(leader.URL(), "held")
	select {
	case err := <-done:
		t.Fatalf("write answered (err %v) while its follower could not apply it", err)
	case <-time.After(100 * time.Millisecond):
	}
	held.release(false)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write after release: %v, want 201", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write never acknowledged after release")
	}
}

// TestReplSeveredStreamFailsWrite: a follower whose stream is cut in the
// middle of a MinSync=1 write, and which cannot reconnect, must leave the
// write failing after SyncTimeout — never answered 201.
func TestReplSeveredStreamFailsWrite(t *testing.T) {
	const syncTimeout = 500 * time.Millisecond
	held := &heldTransport{}
	defer held.release(false)
	c := startTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.SyncTimeout = syncTimeout
		cfg.LeaseTimeout = time.Second
		if i == 1 {
			cfg.StreamClient = &http.Client{Transport: held}
		}
	})
	leader := c.nodes[0]
	waitFor(t, 5*time.Second, "follower connected", func() bool {
		return len(leader.node.Status().Followers) == 1
	})

	held.hold()
	start := time.Now()
	done := postAsync(leader.URL(), "severed")
	time.Sleep(50 * time.Millisecond)
	held.release(true)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("write answered 201 though no follower applied it")
		}
		if took := time.Since(start); took < syncTimeout {
			t.Fatalf("write failed after %s, before the %s SyncTimeout: %v", took, syncTimeout, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write neither acknowledged nor failed")
	}
}

// TestReplAcksRideTheStream pins the protocol's shape: once a follower's
// stream is open, semi-sync writes cost the leader no further
// replication requests — the acks arrive on the stream's request body —
// and a stream's ack reader ends with its handler, so reconnects leave no
// goroutines behind.
func TestReplAcksRideTheStream(t *testing.T) {
	c := startTestCluster(t, 2, nil)
	leader := c.nodes[0]
	counted := &leader.repl
	waitFor(t, 5*time.Second, "follower connected", func() bool {
		return len(leader.node.Status().Followers) == 1
	})

	client := leader.srv.Client()
	before := counted.all.Load()
	for i := 0; i < 200; i++ {
		if _, err := postChassis(client, leader.URL(), fmt.Sprintf("w-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := counted.all.Load() - before; got != 0 {
		t.Fatalf("200 semi-sync writes added %d requests under %s, want 0", got, PathPrefix)
	}

	baseline := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		opened := counted.streams.Load()
		leader.srv.CloseClientConnections()
		waitFor(t, 5*time.Second, "stream reopened", func() bool {
			return counted.streams.Load() > opened
		})
		// Acked on the new stream: the write proves it is the live one.
		if _, err := postChassis(client, leader.URL(), fmt.Sprintf("r-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	const slack = 8
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+slack {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after 20 reconnects, baseline %d (+%d allowed)",
				runtime.NumGoroutine(), baseline, slack)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// staleFirstStream rewrites the acks of a follower's first stream to
// name epoch 0, below every leader's term.
type staleFirstStream struct{ streams atomic.Int64 }

func (s *staleFirstStream) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == PathPrefix+"stream" && s.streams.Add(1) == 1 {
		req = req.Clone(req.Context())
		req.Body = epochZero{req.Body}
	}
	return http.DefaultTransport.RoundTrip(req)
}

type epochZero struct{ io.ReadCloser }

func (b epochZero) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	copy(p[:n], bytes.ReplaceAll(p[:n], []byte(`"Epoch":1,`), []byte(`"Epoch":0,`)))
	return n, err
}

// TestReplStaleEpochAckEndsStream: an ack below the hub's epoch ends its
// stream with a stale frame; a follower that gets one reconnects, and on
// the new stream its acks (under the current term) are taken.
func TestReplStaleEpochAckEndsStream(t *testing.T) {
	rewrite := &staleFirstStream{}
	c := startTestCluster(t, 2, func(i int, cfg *Config) {
		if i == 1 {
			cfg.StreamClient = &http.Client{Transport: rewrite}
		}
	})
	leader, replica := c.nodes[0], c.nodes[1]

	s := openRawStream(t, leader.URL(), "http://raw.test")
	s.ack(t, `{"Epoch":0,"Seq":0}`)
	if f := s.until(t, frameEnd); f.Reason != endStale || f.E != 1 {
		t.Fatalf("stale ack: stream ended %q at epoch %d, want %q at 1", f.Reason, f.E, endStale)
	}

	waitFor(t, 5*time.Second, "follower acked on a second stream", func() bool {
		return rewrite.streams.Load() >= 2 && len(leader.node.Status().Followers) == 1
	})
	if _, err := postChassis(leader.srv.Client(), leader.URL(), "after-stale"); err != nil {
		t.Fatalf("semi-sync write after the stale stream: %v", err)
	}
	if got := replica.node.Status().Epoch; got != 1 {
		t.Fatalf("replica epoch %d after reconnecting, want the leader's 1", got)
	}
}

// smallBuffers shrinks every accepted connection's send buffer, so a
// stream nobody reads blocks its sender within a few frames.
type smallBuffers struct{ net.Listener }

func (l smallBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4096)
	}
	return c, err
}

// TestReplDeadAckReaderEndsBusyStream: a stream whose ack body has ended
// is over even while its backlog never runs dry — the leader stops
// shipping instead of feeding a follower whose acks nobody reads.
func TestReplDeadAckReaderEndsBusyStream(t *testing.T) {
	st := store.New()
	node, err := NewNode(Config{Store: st, Self: "http://leader.test", Leader: true, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	defer node.Stop()
	srv := httptest.NewUnstartedServer(node.Handler())
	srv.Listener = smallBuffers{srv.Listener}
	srv.Start()
	defer srv.Close()
	// The client's buffer is small too, but holds several of the 4 KiB
	// writes a batch goes out in: at 4 KiB, Linux loopback moved one batch
	// in over 4 s, at 32 KiB in under 0.1 s.
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetReadBuffer(32 << 10)
			}
			return c, err
		},
	}}

	const backlog = 3 * streamBatch
	for i := 0; i < backlog; i++ {
		if err := st.Put(odata.ID(fmt.Sprintf("/redfish/v1/Chassis/c%d", i)), map[string]any{"Name": "c"}); err != nil {
			t.Fatal(err)
		}
	}
	// An empty request body: the ack reader stops at once, while the
	// leader is still blocked in the first batch on a stream read late.
	resp, err := client.Post(srv.URL+"/repl/v1/stream?from=0&peer=http://raw.test", "application/x-ndjson", http.NoBody)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open stream: %s", resp.Status)
	}
	time.Sleep(100 * time.Millisecond)
	recs := 0
	for dec := json.NewDecoder(resp.Body); ; {
		var f frame
		if err := dec.Decode(&f); err != nil {
			break
		}
		if f.T == frameRec {
			recs++
		}
	}
	if recs >= backlog {
		t.Fatalf("stream shipped all %d backlogged records after its ack body ended", recs)
	}
}

// lineCounter is a slog handler counting records whose message or an
// attribute contains a substring.
type lineCounter struct {
	substr string
	n      atomic.Int64
}

func (l *lineCounter) Enabled(context.Context, slog.Level) bool { return true }
func (l *lineCounter) Handle(_ context.Context, r slog.Record) error {
	line := r.Message
	r.Attrs(func(a slog.Attr) bool { line += " " + a.Value.String(); return true })
	if strings.Contains(line, l.substr) {
		l.n.Add(1)
	}
	return nil
}
func (l *lineCounter) WithAttrs([]slog.Attr) slog.Handler { return l }
func (l *lineCounter) WithGroup(string) slog.Handler      { return l }

// TestReplProtocolMismatch: a GET on the stream is refused by name, and
// a follower whose leader refuses its stream's method says once that the
// group must be upgraded together — while it keeps looking, so the
// upgrade heals it without a restart.
func TestReplProtocolMismatch(t *testing.T) {
	c := startTestCluster(t, 1, nil)
	resp, err := http.Get(c.nodes[0].URL() + "/repl/v1/stream?from=0")
	if err != nil {
		t.Fatal(err)
	}
	var ed errorDoc
	json.NewDecoder(resp.Body).Decode(&ed)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || ed.Code != "acks-on-stream" {
		t.Fatalf("GET stream: %s %q, want 405 acks-on-stream", resp.Status, ed.Code)
	}

	// A leader of another protocol revision: it leads, bootstraps, and
	// answers every stream 405.
	var refused atomic.Int64
	var old *httptest.Server
	old = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case PathPrefix + "status":
			writeJSON(w, http.StatusOK, Status{Self: old.URL, Role: RoleLeader, Epoch: 1})
		case PathPrefix + "snapshot":
			writeJSON(w, http.StatusOK, snapshotDoc{Epoch: 1, Resources: json.RawMessage(`{}`)})
		default:
			refused.Add(1)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	}))
	defer old.Close()
	lines := &lineCounter{substr: "upgrade every node of the group together"}
	node, err := NewNode(Config{Store: store.New(), Self: "http://replica.test", Peers: []string{old.URL},
		LeaseTimeout: 150 * time.Millisecond, Logger: slog.New(lines)})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	defer node.Stop()
	waitFor(t, 5*time.Second, "three refused streams", func() bool { return refused.Load() >= 3 })
	if got := lines.n.Load(); got != 1 {
		t.Fatalf("logged the upgrade line %d times over %d refusals, want once", got, refused.Load())
	}
}
