// Package client is a typed Go client for the OFMF: tree navigation over
// the Redfish REST protocol, session authentication, fabric operations,
// event subscription with a built-in callback listener, and access to the
// Composability Layer facade. It plays the role gofish plays for generic
// Redfish services, specialized for the OFMF's composable-HPC surface.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"ofmf/internal/composer"
	"ofmf/internal/obsv"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/resilience"
	"ofmf/internal/service"
)

// HTTPError carries a non-2xx response.
type HTTPError struct {
	StatusCode int
	Body       string
}

// Error renders the failure.
func (e *HTTPError) Error() string {
	return fmt.Sprintf("client: HTTP %d: %s", e.StatusCode, e.Body)
}

// IsNotFound reports whether err is an HTTP 404.
func IsNotFound(err error) bool {
	var he *HTTPError
	return errors.As(err, &he) && he.StatusCode == http.StatusNotFound
}

// maxResponseBytes bounds response bodies read into memory.
const maxResponseBytes = 8 << 20

// Client talks to one OFMF deployment.
type Client struct {
	// BaseURL is the service base, e.g. "http://localhost:8080".
	BaseURL string
	// HTTP overrides the transport. By default requests go through a
	// resilience.Transport: per-attempt timeouts, retries with backoff for
	// idempotent methods, and a circuit breaker per service host.
	HTTP *http.Client

	mu    sync.Mutex
	token string
}

// New creates a client for the given base URL.
func New(baseURL string) *Client { return &Client{BaseURL: baseURL} }

// defaultHTTPClient is shared across Clients so breaker state follows the
// peer, not the Client instance.
var defaultHTTPClient = sync.OnceValue(func() *http.Client {
	return resilience.NewHTTPClient(resilience.DefaultPolicy())
})

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTPClient()
}

// Token returns the session token, if logged in.
func (c *Client) Token() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.token
}

func (c *Client) do(method, path string, body, out any) (*http.Response, error) {
	return c.doCtx(context.Background(), method, path, body, out)
}

func (c *Client) doCtx(ctx context.Context, method, path string, body, out any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("client: marshal: %w", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Join any distributed trace the caller is part of: traceparent and
	// X-Request-Id from ctx ride along so the server's middleware links
	// its spans under the caller's.
	obsv.InjectHeaders(ctx, req.Header)
	if tok := c.Token(); tok != "" {
		req.Header.Set("X-Auth-Token", tok)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxResponseBytes {
		return resp, fmt.Errorf("client: response for %s exceeds %d bytes", path, maxResponseBytes)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return resp, &HTTPError{StatusCode: resp.StatusCode, Body: string(bytes.TrimSpace(data))}
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp, fmt.Errorf("client: decode %s: %w", path, err)
		}
	}
	return resp, nil
}

// Login opens a session and stores the token for subsequent requests.
func (c *Client) Login(user, password string) error {
	resp, err := c.do(http.MethodPost, string(service.SessionsURI),
		map[string]string{"UserName": user, "Password": password}, nil)
	if err != nil {
		return err
	}
	tok := resp.Header.Get("X-Auth-Token")
	if tok == "" {
		return errors.New("client: no token in login response")
	}
	c.mu.Lock()
	c.token = tok
	c.mu.Unlock()
	return nil
}

// Get decodes the resource at path into out.
func (c *Client) Get(path odata.ID, out any) error {
	_, err := c.do(http.MethodGet, string(path), nil, out)
	return err
}

// Root fetches the service root.
func (c *Client) Root() (redfish.Root, error) {
	var root redfish.Root
	err := c.Get(service.RootURI, &root)
	return root, err
}

// Members lists a collection's member ids, transparently following
// Members@odata.nextLink continuations when the server pages.
func (c *Client) Members(coll odata.ID) ([]odata.ID, error) {
	type page struct {
		Members  []odata.Ref `json:"Members"`
		NextLink string      `json:"Members@odata.nextLink"`
	}
	var out []odata.ID
	next := string(coll)
	for next != "" {
		var p page
		if _, err := c.do(http.MethodGet, next, nil, &p); err != nil {
			return nil, err
		}
		out = append(out, odata.IDsOf(p.Members)...)
		next = p.NextLink
	}
	return out, nil
}

// Systems fetches every computer system.
func (c *Client) Systems() ([]redfish.ComputerSystem, error) {
	return fetchAll[redfish.ComputerSystem](c, service.SystemsURI)
}

// Fabrics fetches every fabric.
func (c *Client) Fabrics() ([]redfish.Fabric, error) {
	return fetchAll[redfish.Fabric](c, service.FabricsURI)
}

// Endpoints fetches a fabric's endpoints.
func (c *Client) Endpoints(fabric odata.ID) ([]redfish.Endpoint, error) {
	return fetchAll[redfish.Endpoint](c, fabric.Append("Endpoints"))
}

// Connections fetches a fabric's connections.
func (c *Client) Connections(fabric odata.ID) ([]redfish.Connection, error) {
	return fetchAll[redfish.Connection](c, fabric.Append("Connections"))
}

func fetchAll[T any](c *Client, coll odata.ID) ([]T, error) {
	ids, err := c.Members(coll)
	if err != nil {
		return nil, err
	}
	out := make([]T, 0, len(ids))
	for _, id := range ids {
		var v T
		if err := c.Get(id, &v); err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// PostJSON issues a generic POST (used for provisioning collections such
// as Volumes, MemoryChunks and Processors) and returns the HTTP status.
func (c *Client) PostJSON(path string, body, out any) (int, error) {
	resp, err := c.do(http.MethodPost, path, body, out)
	status := 0
	if resp != nil {
		status = resp.StatusCode
	}
	return status, err
}

// CreateConnection posts a connection into the fabric's collection.
func (c *Client) CreateConnection(fabric odata.ID, conn redfish.Connection) (redfish.Connection, error) {
	var created redfish.Connection
	_, err := c.do(http.MethodPost, string(fabric.Append("Connections")), conn, &created)
	return created, err
}

// CreateZone posts a zone into the fabric's collection.
func (c *Client) CreateZone(fabric odata.ID, zone redfish.Zone) (redfish.Zone, error) {
	var created redfish.Zone
	_, err := c.do(http.MethodPost, string(fabric.Append("Zones")), zone, &created)
	return created, err
}

// Delete removes the resource at path.
func (c *Client) Delete(path odata.ID) error {
	_, err := c.do(http.MethodDelete, string(path), nil, nil)
	return err
}

// Patch applies a property patch to the resource at path.
func (c *Client) Patch(path odata.ID, patch map[string]any) error {
	_, err := c.do(http.MethodPatch, string(path), patch, nil)
	return err
}

// PatchCtx is Patch with cancellation and trace propagation via ctx.
func (c *Client) PatchCtx(ctx context.Context, path odata.ID, patch map[string]any) error {
	_, err := c.doCtx(ctx, http.MethodPatch, string(path), patch, nil)
	return err
}

// ExportTree downloads the whole resource tree as portable JSON from the
// admin backup endpoint. The format is the store's Export format,
// independent of any on-disk WAL layout, so dumps restore across
// deployments and versions.
func (c *Client) ExportTree() ([]byte, error) {
	var dump json.RawMessage
	if _, err := c.do(http.MethodGet, string(service.AdminTreeOemURI), nil, &dump); err != nil {
		return nil, err
	}
	return dump, nil
}

// ImportTree uploads a tree dump (as produced by ExportTree) to the admin
// backup endpoint. Restore has replace semantics: the live tree is
// atomically replaced by the dumped one, and resources absent from the
// dump are removed. A dump that fails validation leaves the store
// untouched.
func (c *Client) ImportTree(dump []byte) error {
	_, err := c.do(http.MethodPost, string(service.AdminTreeOemURI), json.RawMessage(dump), nil)
	return err
}

// WaitTask polls a Redfish task monitor until the task reaches a terminal
// state or the timeout elapses, returning the final task resource.
func (c *Client) WaitTask(monitor odata.ID, timeout time.Duration) (redfish.Task, error) {
	deadline := time.Now().Add(timeout)
	for {
		var task redfish.Task
		if err := c.Get(monitor, &task); err != nil {
			return task, err
		}
		switch task.TaskState {
		case redfish.TaskCompleted, redfish.TaskException, redfish.TaskCancelled:
			return task, nil
		}
		if time.Now().After(deadline) {
			return task, fmt.Errorf("client: task %s still %s after %v", monitor, task.TaskState, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ComposeAsync submits a composition request to the Composability Layer's
// asynchronous endpoint and returns the Redfish task monitor URI.
func (c *Client) ComposeAsync(req composer.Request) (odata.ID, error) {
	resp, err := c.do(http.MethodPost, "/composer/v1/ComposeAsync", req, nil)
	if err != nil {
		return "", err
	}
	monitor := odata.ID(resp.Header.Get("Location"))
	if monitor.IsZero() {
		return "", errors.New("client: no task monitor in response")
	}
	return monitor, nil
}

// Compose submits a composition request to the Composability Layer.
func (c *Client) Compose(req composer.Request) (composer.Composition, error) {
	return c.ComposeCtx(context.Background(), req)
}

// ComposeCtx is Compose with cancellation and trace propagation via ctx.
func (c *Client) ComposeCtx(ctx context.Context, req composer.Request) (composer.Composition, error) {
	var comp composer.Composition
	_, err := c.doCtx(ctx, http.MethodPost, "/composer/v1/Compose", req, &comp)
	return comp, err
}

// Decompose tears a composition down.
func (c *Client) Decompose(id string) error {
	return c.DecomposeCtx(context.Background(), id)
}

// DecomposeCtx is Decompose with cancellation and trace propagation via
// ctx.
func (c *Client) DecomposeCtx(ctx context.Context, id string) error {
	_, err := c.doCtx(ctx, http.MethodDelete, "/composer/v1/Compositions/"+id, nil, nil)
	return err
}

// Compositions lists live compositions.
func (c *Client) Compositions() ([]composer.Composition, error) {
	var out []composer.Composition
	_, err := c.do(http.MethodGet, "/composer/v1/Compositions", nil, &out)
	return out, err
}

// ComposerStats fetches utilization counters.
func (c *Client) ComposerStats() (composer.Stats, error) {
	var out composer.Stats
	_, err := c.do(http.MethodGet, "/composer/v1/Stats", nil, &out)
	return out, err
}

// EventListener is a local HTTP endpoint receiving subscribed events.
type EventListener struct {
	URL string

	subURI odata.ID
	client *Client
	srv    *http.Server
	lis    net.Listener
	done   chan struct{}
}

// SubscribeEvents starts a local listener, registers it as an event
// destination with the given filter, and invokes handler for every
// delivered event. Close the listener to unsubscribe.
func (c *Client) SubscribeEvents(dest redfish.EventDestination, handler func(redfish.Event)) (*EventListener, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("client: listen: %w", err)
	}
	el := &EventListener{
		URL:    "http://" + lis.Addr().String(),
		client: c,
		lis:    lis,
		done:   make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		var ev redfish.Event
		if err := json.NewDecoder(r.Body).Decode(&ev); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		handler(ev)
		w.WriteHeader(http.StatusNoContent)
	})
	el.srv = &http.Server{Handler: mux}
	go func() {
		defer close(el.done)
		_ = el.srv.Serve(lis)
	}()

	dest.Destination = el.URL
	var created redfish.EventDestination
	if _, err := c.do(http.MethodPost, string(service.SubscriptionsURI), dest, &created); err != nil {
		_ = el.srv.Close()
		<-el.done
		return nil, err
	}
	el.subURI = created.ODataID
	return el, nil
}

// Close unsubscribes and stops the listener.
func (el *EventListener) Close() error {
	var first error
	if !el.subURI.IsZero() {
		if err := el.client.Delete(el.subURI); err != nil && !IsNotFound(err) {
			first = err
		}
	}
	if err := el.srv.Close(); err != nil && first == nil {
		first = err
	}
	<-el.done
	return first
}
