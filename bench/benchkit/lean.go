package benchkit

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// Conn is the lean HTTP/1.1 client: one persistent TCP connection on
// which the caller writes request bytes it built itself and parses the
// reply with http.ReadResponse. There is no http.Transport, so no
// goroutine hop sits between the timed write and the timed read — on a
// 2-vCPU host that halves the measured latency and quarters its spread.
type Conn struct {
	c    net.Conn
	br   *bufio.Reader
	host string
	req  []byte       // scratch for Request
	body bytes.Buffer // reply body, valid until the next Do
}

// Dial opens a connection to addr (host:port).
func Dial(addr string) (*Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &Conn{c: c, br: bufio.NewReaderSize(c, 64<<10), host: addr}, nil
}

// Close closes the connection.
func (c *Conn) Close() error { return c.c.Close() }

// SetDeadline bounds every request until the next call; segments set it
// once rather than per request.
func (c *Conn) SetDeadline(t time.Time) { _ = c.c.SetDeadline(t) }

// Request builds request bytes into the connection's scratch buffer.
// header is zero or more complete "Name: value\r\n" lines.
func (c *Conn) Request(method, path, header string, body []byte) []byte {
	return AppendRequest(c.req[:0], c.host, method, path, header, body)
}

// AppendRequest appends one HTTP/1.1 request to dst.
func AppendRequest(dst []byte, host, method, path, header string, body []byte) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, host...)
	dst = append(dst, "\r\n"...)
	dst = append(dst, header...)
	if body != nil {
		dst = append(dst, "Content-Type: application/json\r\nContent-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body)), 10)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	return append(dst, body...)
}

var methodReq = map[string]*http.Request{
	"GET": {Method: "GET"}, "POST": {Method: "POST"}, "PATCH": {Method: "PATCH"}, "DELETE": {Method: "DELETE"},
}

// Do writes req and reads the reply. The returned body aliases an
// internal buffer that the next Do overwrites.
func (c *Conn) Do(method string, req []byte) (status int, header http.Header, body []byte, err error) {
	c.req = req[:0]
	if _, err = c.c.Write(req); err != nil {
		return 0, nil, nil, fmt.Errorf("write: %w", err)
	}
	resp, err := http.ReadResponse(c.br, methodReq[method])
	if err != nil {
		return 0, nil, nil, fmt.Errorf("read: %w", err)
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, nil, fmt.Errorf("read body: %w", err)
	}
	return resp.StatusCode, resp.Header, c.body.Bytes(), nil
}

// nullBody is 339 bytes, the size of a testbed ComputerSystem, so the
// baseline moves as many bytes as a resource GET.
var nullBody = append(append([]byte(`{"@odata.id":"/null","Pad":"`), bytes.Repeat([]byte("x"), 309)...), '"', '}')

// NullHandler is the null baseline: the headers and body size of a
// resource GET and none of its work.
func NullHandler(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body)
	h := w.Header()
	h.Set("ETag", `"0000000000000000"`)
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", "339")
	_, _ = w.Write(nullBody)
}
