package obsv

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// serve runs srv on a loopback listener until the test ends and returns
// its address.
func serve(t *testing.T, srv *http.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// closedWithin reads conn until the server closes it, and fails unless
// that happens within limit and carries no bytes.
func closedWithin(t *testing.T, conn net.Conn, limit time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	conn.SetReadDeadline(start.Add(limit))
	n, err := conn.Read(make([]byte, 1))
	if n != 0 || err != io.EOF {
		t.Fatalf("read %d bytes, %v; want the server to close the connection", n, err)
	}
	return time.Since(start)
}

// TestServerClosesHeaderOnlyConnection: a connection that sends part of
// its headers and then nothing is closed once ReadHeaderTimeout passes,
// a kept-alive one that goes quiet after a response once IdleTimeout
// does, while a request whose headers arrived streams for longer than
// either: the server sets no read or write deadline on a request.
func TestServerClosesHeaderOnlyConnection(t *testing.T) {
	srv := NewServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/stream" {
			io.WriteString(w, "ok")
			return
		}
		for i := 0; i < 3; i++ {
			io.WriteString(w, "tick\n")
			w.(http.Flusher).Flush()
			time.Sleep(150 * time.Millisecond)
		}
	}))
	if srv.ReadHeaderTimeout != ReadHeaderTimeout || srv.IdleTimeout != IdleTimeout || srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("deadlines: header %v idle %v read %v write %v", srv.ReadHeaderTimeout, srv.IdleTimeout, srv.ReadTimeout, srv.WriteTimeout)
	}
	const short = 100 * time.Millisecond // the constants themselves are seconds and minutes
	srv.ReadHeaderTimeout, srv.IdleTimeout = short, short
	addr := serve(t, srv)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: ofmf\r\n"); err != nil {
		t.Fatal(err)
	}
	if took := closedWithin(t, conn, 5*time.Second); took < short/2 {
		t.Fatalf("closed after %v, before the header timeout", took)
	}

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := io.WriteString(idle, "GET / HTTP/1.1\r\nHost: ofmf\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(idle)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	closedWithin(t, idle, 5*time.Second)

	stream, err := http.Get("http://" + addr + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	body, err := io.ReadAll(stream.Body)
	if err != nil || strings.Count(string(body), "tick") != 3 {
		t.Fatalf("a stream outliving the deadlines read %q, %v", body, err)
	}
}
