package events

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ofmf/internal/redfish"
)

// countingServer is an httptest destination that counts the connections
// opened to it and the requests it served.
func countingServer(t *testing.T, reply http.HandlerFunc) (srv *httptest.Server, opened, served *atomic.Int64) {
	t.Helper()
	opened, served = new(atomic.Int64), new(atomic.Int64)
	srv = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		reply(w, r)
		served.Add(1)
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, opened, served
}

// TestBusReusesConnections is the delivery-connection invariant: the
// idle pool per destination is no smaller than the worker pool, so once
// the pool is warm a delivery never dials. Eight subscriptions to one
// destination drained by four workers, publishes in lock step (the next
// publish waits for the previous one's eight POSTs, as a
// subscriber-paced writer does): the 500 publishes after a warm-up open
// no connection at all. With net/http's default of 2 idle connections
// per host they opened 244, one for every 16 deliveries. The warm-up
// opens at most one connection per worker: a worker dials only when it
// finds no idle connection, and only for itself.
func TestBusReusesConnections(t *testing.T) {
	const subs, workers, warmup, publishes = 8, 4, 100, 500
	srv, opened, served := countingServer(t, func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	b := NewBus(Config{Workers: workers})
	defer b.Close()
	start := time.Now()
	for i := 0; i < subs; i++ {
		sink, err := NewHTTPSink(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Subscribe(sink, Filter{}, ""); err != nil {
			t.Fatal(err)
		}
	}
	var warm int64
	for i := 1; i <= warmup+publishes; i++ {
		b.Publish(Record(redfish.EventResourceUpdated, "e", "updated", "/redfish/v1/Systems/S1"))
		for b.Stats().Delivered != int64(i*subs) {
			if time.Since(start) > 30*time.Second {
				t.Fatalf("publish %d: %+v", i, b.Stats())
			}
			// Sleep, not spin: a goroutine that is always runnable keeps
			// the scheduler from polling the network for the workers.
			time.Sleep(20 * time.Microsecond)
		}
		if i == warmup {
			warm = opened.Load()
		}
	}
	if st := b.Stats(); st.Failed != 0 || st.Dropped != 0 || served.Load() != (warmup+publishes)*subs {
		t.Fatalf("stats %+v, destination served %d, want %d deliveries and no loss", st, served.Load(), (warmup+publishes)*subs)
	}
	if warm > workers {
		t.Errorf("the warm-up opened %d connections for %d workers", warm, workers)
	}
	if got := opened.Load() - warm; got != 0 {
		t.Errorf("%d deliveries on a warm pool opened %d connections, want 0", publishes*subs, got)
	}
}

// TestHTTPSinkDrainsReply: a receiver that answers with a body must
// cost no more connections than one that answers 204. A reply closed
// unread cannot be reused by the transport, which made every delivery
// to such a receiver a dial (50 connections for 50 deliveries).
func TestHTTPSinkDrainsReply(t *testing.T) {
	for name, reply := range map[string]http.HandlerFunc{
		"empty": func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusNoContent) },
		"small": func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, "ok\n") },
		"error": func(w http.ResponseWriter, _ *http.Request) { http.Error(w, "try later", http.StatusTeapot) },
	} {
		t.Run(name, func(t *testing.T) {
			srv, opened, _ := countingServer(t, reply)
			sink, err := NewHTTPSink(srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				err := sink.DeliverBytes(context.Background(), "e", []byte(`{}`))
				if (err != nil) != (name == "error") {
					t.Fatalf("delivery %d: %v", i, err)
				}
			}
			if got := opened.Load(); got != 1 {
				t.Errorf("50 sequential deliveries opened %d connections, want 1", got)
			}
		})
	}
}

// TestNewHTTPSinkRejectsUnreachableDestinations: only an absolute
// http(s) URL can ever be delivered to.
func TestNewHTTPSinkRejectsUnreachableDestinations(t *testing.T) {
	for _, dest := range []string{"", "not a url", "ftp://host/x", "/relative", "http://", "host:8080", "http://a b/"} {
		if _, err := NewHTTPSink(dest); err == nil {
			t.Errorf("NewHTTPSink(%q) accepted", dest)
		}
	}
	for _, dest := range []string{"http://host", "https://host:8443/events?x=1", "http://[::1]:9/"} {
		if _, err := NewHTTPSink(dest); err != nil {
			t.Errorf("NewHTTPSink(%q): %v", dest, err)
		}
	}
	// A literal with a bad URL fails its deliveries, as it always has.
	if err := (&HTTPSink{URL: "nowhere"}).DeliverBytes(context.Background(), "e", nil); err == nil {
		t.Error("delivery to a relative URL succeeded")
	}
}

// rawReceiver listens on loopback and answers every request on every
// connection with reply, written as given. Once a connection is open it
// allocates nothing per request, so an allocation count taken around a
// delivery to it is the sender's alone.
func rawReceiver(t *testing.T, reply string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			go serveRaw(c, []byte(reply))
		}
	}()
	return "http://" + ln.Addr().String() + "/events"
}

var (
	endOfHeader   = []byte("\r\n\r\n")
	contentLength = []byte("\r\nContent-Length: ")
)

// serveRaw reads requests — a header, then Content-Length bytes of
// body — and answers each with reply, until the connection fails.
func serveRaw(c net.Conn, reply []byte) {
	buf := make([]byte, 64<<10)
	n := 0
	for {
		end := bytes.Index(buf[:n], endOfHeader)
		size := 0
		if end >= 0 {
			size = end + len(endOfHeader)
			if i := bytes.Index(buf[:end], contentLength); i >= 0 {
				size += bodyLen(buf[i+len(contentLength) : end])
			}
		}
		if end < 0 || n < size {
			m, err := c.Read(buf[n:])
			if err != nil {
				return
			}
			n += m
			continue
		}
		if _, err := c.Write(reply); err != nil {
			return
		}
		n = copy(buf, buf[size:n])
	}
}

// bodyLen parses the decimal at the start of b.
func bodyLen(b []byte) int {
	v := 0
	for _, d := range b {
		if d < '0' || d > '9' {
			break
		}
		v = v*10 + int(d-'0')
	}
	return v
}

// TestDeliverAllocs is the exact-count gate on one webhook delivery:
// everything the sending process allocates for DeliverBytes over a
// kept-alive loopback connection — the trace headers, the poster's
// attempt (breaker, deadline, the cancellation hook) and reading the
// reply with http.ReadResponse — against a receiver that answers with
// fixed bytes and allocates nothing. Measured: 5. The number is the
// gate, not a ceiling to grow into.
func TestDeliverAllocs(t *testing.T) {
	sink, err := NewHTTPSink(rawReceiver(t, "HTTP/1.1 204 No Content\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"Events":[]}`)
	ctx, cancel := context.WithCancel(context.Background()) // as a subscription's
	defer cancel()
	got := testing.AllocsPerRun(500, func() {
		if err := sink.DeliverBytes(ctx, "e", payload); err != nil {
			t.Fatal(err)
		}
	})
	if got != 5 {
		t.Errorf("one delivery = %v allocations, want exactly 5", got)
	}
}

// TestDeliveryConnectionStates: what a receiver does with its
// connection never costs a delivery. Each receiver gets 20 events on
// 4 subscriptions from a bus that makes one attempt per event, so any
// attempt that failed would count in Failed. An exchange that broke on
// a kept connection before any reply byte is redialled inside the
// attempt; a reply that forbids reuse costs only the connection.
func TestDeliveryConnectionStates(t *testing.T) {
	const subs, publishes = 4, 20
	for _, tc := range []struct {
		name string
		dest func(t *testing.T) (url string, served func() int64)
		gap  time.Duration // between publishes
	}{
		{name: "connection close", dest: func(t *testing.T) (string, func() int64) {
			srv, _, served := countingServer(t, func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Connection", "close")
				w.WriteHeader(http.StatusNoContent)
			})
			return srv.URL, served.Load
		}},
		{name: "reply over 4 KiB", dest: func(t *testing.T) (string, func() int64) {
			srv, _, served := countingServer(t, func(w http.ResponseWriter, _ *http.Request) {
				_, _ = w.Write(bytes.Repeat([]byte("x"), 8<<10))
			})
			return srv.URL, served.Load
		}},
		{name: "idle timeout closes kept connections", gap: 60 * time.Millisecond, dest: func(t *testing.T) (string, func() int64) {
			served := new(atomic.Int64)
			srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				_, _ = io.Copy(io.Discard, r.Body)
				w.WriteHeader(http.StatusNoContent)
				served.Add(1)
			}))
			srv.Config.IdleTimeout = 5 * time.Millisecond
			srv.Start()
			t.Cleanup(srv.Close)
			return srv.URL, served.Load
		}},
		{name: "100 Continue before the reply", dest: func(t *testing.T) (string, func() int64) {
			// Raw bytes: the receiver cannot count, but Delivered does.
			return rawReceiver(t, "HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 204 No Content\r\n\r\n"), nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dest, served := tc.dest(t)
			b := NewBus(Config{RetryAttempts: 1})
			defer b.Close()
			for i := 0; i < subs; i++ {
				sink, err := NewHTTPSink(dest)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := b.Subscribe(sink, Filter{}, ""); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i <= publishes; i++ {
				b.Publish(Record(redfish.EventResourceUpdated, "e", "updated", "/redfish/v1/Systems/S1"))
				waitFor(t, func() bool { st := b.Stats(); return st.Delivered+st.Failed == int64(i*subs) })
				time.Sleep(tc.gap)
			}
			if st := b.Stats(); st.Failed != 0 || st.Delivered != subs*publishes {
				t.Errorf("stats %+v, want %d delivered and none failed", st, subs*publishes)
			}
			if served != nil && served() != subs*publishes {
				t.Errorf("receiver served %d POSTs, want %d", served(), subs*publishes)
			}
		})
	}
}

// TestUnsubscribeAbortsAHungDelivery: retiring a subscription aborts
// its POST to a receiver that never answers — Unsubscribe returns
// promptly, not at the 5 s attempt deadline — and the event is counted
// with the subscription, as DroppedClosed, not as a failure.
func TestUnsubscribeAbortsAHungDelivery(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		entered <- struct{}{}
		<-release
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(release) }) // runs first: frees the handler so Close can return
	b := NewBus(Config{RetryAttempts: 1})
	defer b.Close()
	sink, err := NewHTTPSink(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := b.Subscribe(sink, Filter{}, "")
	if err != nil {
		t.Fatal(err)
	}
	b.Publish(Record(redfish.EventAlert, "e", "m", ""))
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the POST never reached the receiver")
	}
	start := time.Now()
	if err := b.Unsubscribe(sub.ID); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Unsubscribe took %v with a POST in flight, want < 1s", d)
	}
	if st := b.Stats(); st.DroppedClosed != 1 || st.Failed != 0 || st.Delivered != 0 {
		t.Errorf("stats %+v, want the event DroppedClosed", st)
	}
}

// TestRedirectIsAFailedDelivery: a 3xx is not followed. The delivery
// fails, and the host its Location names is never contacted — a
// receiver cannot point the OFMF's POSTs somewhere else.
func TestRedirectIsAFailedDelivery(t *testing.T) {
	elsewhere, opened, _ := countingServer(t, func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	for _, code := range []int{http.StatusFound, http.StatusTemporaryRedirect} {
		srv, _, served := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
			http.Redirect(w, r, elsewhere.URL+"/events", code)
		})
		sink, err := NewHTTPSink(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.DeliverBytes(context.Background(), "e", []byte(`{}`)); err == nil {
			t.Errorf("%d: delivery succeeded", code)
		}
		if served.Load() != 1 {
			t.Errorf("%d: receiver served %d POSTs, want 1", code, served.Load())
		}
	}
	if opened.Load() != 0 {
		t.Errorf("the Location host was contacted %d times", opened.Load())
	}
}
