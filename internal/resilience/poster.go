package resilience

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"
)

// Poster is the webhook edge's HTTP/1.1 client: one POST per call,
// written and read on the caller's goroutine over a kept-alive
// connection. There is no transport goroutine and no per-attempt
// context — the attempt deadline is the connection's, and a cancelled
// ctx aborts the exchange by moving that deadline into the past. Each
// call is one attempt; retrying is the caller's business (the event bus
// retries with backoff, and a webhook POST is not idempotent).
//
// What net/http's client would have done at this edge is kept or
// replaced by a decision:
//   - TLS is crypto/tls with SNI and the system roots, verified as
//     net/http verifies; ALPN offers http/1.1 only.
//   - A proxy is resolved once per destination from the environment
//     (http.ProxyFromEnvironment). Plain http goes to it in absolute
//     form, https through CONNECT. Only http:// proxies are supported.
//   - Redirects are not followed: a 3xx is returned like any other
//     status, so its Location is never contacted.
//   - Interim 1xx replies are skipped.
//   - At most idlePerHost connections stay idle per route, each closed
//     after 90 s idle.
//   - A reused connection that fails before any reply byte (the
//     receiver closed it while it sat idle), or answers 408, is
//     redialled once within the same call, so a delivery may reach a
//     receiver twice.
//
// The per-host breaker counts errors and 5xx/429 replies as failures,
// as Transport does.
type Poster struct {
	policy   Policy
	breakers *BreakerSet

	// Set by NewPoster; tests replace them.
	tlsConfig   *tls.Config                           // cloned for every TLS dial
	proxy       func(*http.Request) (*url.URL, error) // resolves a destination's proxy
	idleTimeout time.Duration

	mu   sync.Mutex
	idle map[string][]*posterConn // per route, most recently used last
}

// NewPoster builds a poster whose attempts take p's AttemptTimeout
// (negative: none) and whose breakers take p's Breaker settings; p's
// retry fields do not apply.
func NewPoster(p Policy) *Poster {
	p = p.withDefaults()
	return &Poster{
		policy:      p,
		breakers:    NewBreakerSet(p.Breaker),
		tlsConfig:   &tls.Config{},
		proxy:       http.ProxyFromEnvironment,
		idleTimeout: 90 * time.Second,
		idle:        make(map[string][]*posterConn),
	}
}

// Target is a POST destination resolved once, at subscription: where
// to dial, how to route through a proxy, and the request line's target.
type Target struct {
	breaker  string // the URL's host, the breaker key
	route    string // idle-pool key: proxy and destination
	addr     string // host:port dialled, the destination's or its proxy's
	server   string // TLS server name; "" for plain http
	connect  string // CONNECT authority when https goes through a proxy
	tunnel   string // the CONNECT's Proxy-Authorization line, or ""
	reqURI   string // origin form, or absolute form through a proxy
	host     string // Host header value
	preamble string // Authorization / Proxy-Authorization lines, or ""
	err      error  // proxy resolution failure, reported by every Post
}

// Target resolves u, an absolute http or https URL, for Post. The
// proxy is resolved here, once; a proxy that cannot be used fails each
// Post rather than the resolution, so the destination stays valid.
func (p *Poster) Target(u *url.URL) (*Target, error) {
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("%q is not an absolute http(s) URL", u.Redacted())
	}
	port := u.Port()
	if port == "" {
		port = "80"
		if u.Scheme == "https" {
			port = "443"
		}
	}
	dest := net.JoinHostPort(u.Hostname(), port)
	t := &Target{breaker: u.Host, route: u.Scheme + "://" + dest, addr: dest, reqURI: u.RequestURI(), host: u.Host}
	if u.Scheme == "https" {
		t.server = u.Hostname()
	}
	if u.User != nil {
		t.preamble = basicAuth("Authorization", u.User)
	}
	proxy, err := p.proxy(&http.Request{Method: http.MethodPost, URL: u, Host: u.Host})
	switch {
	case err != nil:
		t.err = fmt.Errorf("resilience: proxy for %s: %w", u.Host, err)
	case proxy == nil:
	case proxy.Scheme != "http" || proxy.Host == "":
		t.err = fmt.Errorf("resilience: proxy %q for %s: only http:// proxies are supported", proxy.Redacted(), u.Host)
	default:
		t.addr = proxy.Host
		if proxy.Port() == "" {
			t.addr = net.JoinHostPort(proxy.Hostname(), "80")
		}
		t.route = "proxy " + t.addr + " " + t.route
		auth := ""
		if proxy.User != nil {
			auth = basicAuth("Proxy-Authorization", proxy.User)
		}
		if t.server != "" {
			t.connect, t.tunnel = dest, auth // the destination never sees the proxy's credentials
		} else {
			t.reqURI = u.Scheme + "://" + u.Host + u.RequestURI()
			t.preamble += auth
		}
	}
	return t, nil
}

// basicAuth renders a Basic credentials header line from user info.
func basicAuth(name string, u *url.Userinfo) string {
	pass, _ := u.Password()
	return name + ": Basic " + base64.StdEncoding.EncodeToString([]byte(u.Username()+":"+pass)) + "\r\n"
}

// Post writes one POST of body to t and returns the reply's status. A
// 3xx is a status like any other: it is not followed. header is zero
// or more complete "Name: value\r\n" lines, written as given after the
// Host line; the poster adds Content-Length.
func (p *Poster) Post(ctx context.Context, t *Target, header, body []byte) (int, error) {
	if t.err != nil {
		return 0, t.err
	}
	br := p.breakers.For(t.breaker)
	if err := br.Allow(); err != nil {
		return 0, err
	}
	status, err := p.post(ctx, t, header, body)
	br.Record(err == nil && !retryableStatus(status))
	return status, err
}

func (p *Poster) post(ctx context.Context, t *Target, header, body []byte) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var deadline time.Time
	if p.policy.AttemptTimeout > 0 {
		deadline = time.Now().Add(p.policy.AttemptTimeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	c := p.get(t.route)
	reused := c != nil
	for {
		if c == nil {
			var err error
			if c, err = p.dial(ctx, t, deadline); err != nil {
				return 0, fmt.Errorf("resilience: post %s: %w", t.host, err)
			}
		}
		status, keep, err := c.exchange(ctx, t, deadline, reused, header, body)
		if err == nil {
			if keep {
				p.put(c)
			} else {
				c.nc.Close()
			}
			return status, nil
		}
		c.nc.Close()
		if cerr := ctx.Err(); cerr != nil {
			return 0, fmt.Errorf("resilience: post %s: %w", t.host, cerr)
		}
		if !reused || !errors.Is(err, errNoReply) {
			return 0, fmt.Errorf("resilience: post %s: %w", t.host, err)
		}
		// The receiver closed the kept connection while it sat idle, or
		// said it timed it out: dial a fresh one, once.
		c, reused = nil, false
	}
}

// errNoReply marks an exchange that failed before any reply byte
// arrived, other than by its deadline, or whose reused connection
// answered 408.
var errNoReply = errors.New("connection failed before the reply")

// aLongTimeAgo is a deadline that has passed: setting it aborts any
// blocked read or write on the connection.
var aLongTimeAgo = time.Unix(1, 0)

// postRequest and connectRequest tell http.ReadResponse which method
// a reply answers; it only reads them.
var (
	postRequest    = &http.Request{Method: http.MethodPost}
	connectRequest = &http.Request{Method: http.MethodConnect}
)

const (
	// maxReplyDrain bounds how much of a reply body is read so the
	// connection can be kept; a larger reply costs the connection.
	maxReplyDrain = 4 << 10
	// maxInterim bounds the 1xx replies skipped before the final one.
	maxInterim = 5
)

// posterConn is one connection, owned by one caller at a time or by
// the idle pool.
type posterConn struct {
	route  string
	nc     net.Conn
	br     *bufio.Reader
	buf    []byte      // request bytes, reused across requests
	abort  func()      // moves the deadline into the past; built once
	idleAt time.Time   // guarded by Poster.mu
	timer  *time.Timer // closes the connection after idleTimeout idle
}

func (p *Poster) dial(ctx context.Context, t *Target, deadline time.Time) (*posterConn, error) {
	d := net.Dialer{Deadline: deadline}
	raw, err := d.DialContext(ctx, "tcp", t.addr)
	if err != nil {
		return nil, err
	}
	abort := func() { _ = raw.SetDeadline(aLongTimeAgo) }
	nc := raw
	if t.connect != "" || t.server != "" {
		// The tunnel and the handshake run under the attempt's deadline
		// and abort with ctx, as the exchange does.
		stop := context.AfterFunc(ctx, abort)
		err := raw.SetDeadline(deadline)
		if err == nil && t.connect != "" {
			err = tunnel(raw, t.connect, t.tunnel)
		}
		if err == nil && t.server != "" {
			cfg := p.tlsConfig.Clone()
			cfg.ServerName = t.server
			cfg.NextProtos = []string{"http/1.1"}
			tc := tls.Client(raw, cfg)
			err = tc.Handshake()
			nc = tc
		}
		if !stop() && err == nil {
			err = ctx.Err()
		}
		if err != nil {
			raw.Close()
			return nil, err
		}
	}
	return &posterConn{route: t.route, nc: nc, br: bufio.NewReader(nc), abort: abort}, nil
}

// tunnel asks the proxy on nc to CONNECT to authority; header is zero
// or more complete header lines.
func tunnel(nc net.Conn, authority, header string) error {
	if _, err := io.WriteString(nc, "CONNECT "+authority+" HTTP/1.1\r\nHost: "+authority+"\r\n"+header+"\r\n"); err != nil {
		return fmt.Errorf("proxy CONNECT: %w", err)
	}
	br := bufio.NewReader(nc)
	resp, err := http.ReadResponse(br, connectRequest)
	if err != nil {
		return fmt.Errorf("proxy CONNECT: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("proxy CONNECT: %s", resp.Status)
	}
	if br.Buffered() > 0 {
		return errors.New("proxy CONNECT: data before the TLS handshake")
	}
	return nil
}

// exchange writes one request and reads its reply. keep reports whether
// the connection may serve another request.
func (c *posterConn) exchange(ctx context.Context, t *Target, deadline time.Time, reused bool, header, body []byte) (status int, keep bool, err error) {
	if err := c.nc.SetDeadline(deadline); err != nil {
		return 0, false, err
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, c.abort)
		defer func() {
			if !stop() {
				keep = false // the deadline may have been moved: never reuse
			}
		}()
	}
	c.buf = appendPost(c.buf[:0], t, header, body)
	if _, err := c.nc.Write(c.buf); err != nil {
		return 0, false, noReply(err)
	}
	if _, err := c.br.Peek(1); err != nil {
		return 0, false, noReply(err)
	}
	for interim := 0; ; interim++ {
		resp, err := http.ReadResponse(c.br, postRequest)
		if err != nil {
			return 0, false, fmt.Errorf("read reply: %w", err)
		}
		if resp.StatusCode < 200 && resp.StatusCode != http.StatusSwitchingProtocols {
			if interim == maxInterim {
				return 0, false, fmt.Errorf("read reply: more than %d interim replies", maxInterim)
			}
			continue
		}
		if reused && resp.StatusCode == http.StatusRequestTimeout {
			// A server that times an idle connection out may say so
			// before closing it; the reply was written before our
			// request arrived (net/http's client reads it the same way).
			return 0, false, errNoReply
		}
		keep = !resp.Close && resp.StatusCode != http.StatusSwitchingProtocols
		if resp.Body != http.NoBody {
			// Read a small reply to its end so the connection can be
			// kept; the body of a larger one is not worth a dial.
			_, err := io.CopyN(io.Discard, resp.Body, maxReplyDrain+1)
			keep = keep && err == io.EOF
		}
		return resp.StatusCode, keep && c.br.Buffered() == 0, nil
	}
}

// noReply marks err as errNoReply unless it is the deadline's.
func noReply(err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return err
	}
	return fmt.Errorf("%w: %w", errNoReply, err)
}

// appendPost appends t's request for body to dst.
func appendPost(dst []byte, t *Target, header, body []byte) []byte {
	dst = append(dst, "POST "...)
	dst = append(dst, t.reqURI...)
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, t.host...)
	dst = append(dst, "\r\n"...)
	dst = append(dst, t.preamble...)
	dst = append(dst, header...)
	dst = append(dst, "Content-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}

// get takes the most recently used idle connection of route, or nil.
func (p *Poster) get(route string) *posterConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	list := p.idle[route]
	if len(list) == 0 {
		return nil
	}
	c := list[len(list)-1]
	list[len(list)-1] = nil
	p.idle[route] = list[:len(list)-1]
	c.timer.Stop()
	return c
}

// put returns c to the idle pool, or closes it when its route already
// holds idlePerHost idle connections.
func (p *Poster) put(c *posterConn) {
	p.mu.Lock()
	list := p.idle[c.route]
	if len(list) >= idlePerHost {
		p.mu.Unlock()
		c.nc.Close()
		return
	}
	p.idle[c.route] = append(list, c)
	c.idleAt = time.Now()
	if c.timer == nil {
		c.timer = time.AfterFunc(p.idleTimeout, func() { p.expire(c) })
	} else {
		c.timer.Reset(p.idleTimeout)
	}
	p.mu.Unlock()
}

// expire closes c if it has sat idle for the idle timeout. A timer that
// fires for an idle spell that already ended finds c taken, or idle
// for less, and does nothing.
func (p *Poster) expire(c *posterConn) {
	p.mu.Lock()
	list := p.idle[c.route]
	i := slices.Index(list, c)
	if i < 0 || time.Since(c.idleAt) < p.idleTimeout {
		p.mu.Unlock()
		return
	}
	list = slices.Delete(list, i, i+1)
	if len(list) == 0 {
		delete(p.idle, c.route)
	} else {
		p.idle[c.route] = list
	}
	p.mu.Unlock()
	c.nc.Close()
}
