// Package agent provides the OFMF Agent framework. Agents are the
// technology-specific translators on the right side of the paper's
// architecture diagram: each one owns a fabric subtree of the OFMF's
// Redfish tree, publishes the resources its hardware exposes, forwards
// hardware events upward, and applies fabric mutations (zones,
// connections, port state) the OFMF forwards to it.
//
// An agent talks to the OFMF through a Conn. Local connects directly to an
// in-process service instance; Remote speaks HTTP to a standalone OFMF, so
// the same agent implementations run in both deployments.
package agent

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"ofmf/internal/obsv"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/resilience"
	"ofmf/internal/service"
)

// Conn is an agent's channel to the OFMF.
type Conn interface {
	// Register announces the agent and its owned subtrees to the
	// AggregationService, returning the AggregationSource URI.
	Register(src redfish.AggregationSource) (odata.ID, error)
	// PublishSubtree replaces the agent's resource subtree in the OFMF
	// tree. Resources absent from the map are removed, except those under
	// a keep prefix (OFMF-owned zones and connections). ctx is the request
	// the publish serves (context.Background() for reconciliation): it
	// carries the trace, and in-process the request's unit of work.
	PublishSubtree(ctx context.Context, prefix odata.ID, resources map[odata.ID]any, keep ...odata.ID) error
	// PublishEvent forwards a hardware event into the OFMF event service.
	PublishEvent(rec redfish.EventRecord)
	// AttachHandler wires the agent's handler for the subtree rooted at
	// prefix, so the OFMF forwards mutations under it to h.
	AttachHandler(prefix odata.ID, h service.FabricHandler) error
	// DetachHandler removes the handler attached for prefix.
	DetachHandler(prefix odata.ID)
	// TouchSource refreshes the aggregation source's heartbeat timestamp.
	TouchSource(sourceURI odata.ID, timestamp string) error
	// RegisterCollections declares the agent's collection URIs so the
	// OFMF serves them as browsable collections.
	RegisterCollections(colls service.CollectionsPayload) error
}

// PublishTouched pushes what one handler op changed under root, one of
// the agent's subtree roots: each removed URI's subtree is dropped and
// the touched resources are upserted. Keeping root itself turns the
// subtree refresh into a pure upsert, so nothing else under root is
// read, rebuilt or compared. The agent's full Publish stays the
// reconciliation path; the two must agree, which each agent's
// equivalence test checks.
func PublishTouched(ctx context.Context, c Conn, root odata.ID, touched map[odata.ID]any, removed ...odata.ID) error {
	for _, id := range removed {
		if err := c.PublishSubtree(ctx, id, nil); err != nil {
			return fmt.Errorf("agent: drop %s: %w", id, err)
		}
	}
	if len(touched) == 0 {
		return nil
	}
	if err := c.PublishSubtree(ctx, root, touched, root); err != nil {
		return fmt.Errorf("agent: publish under %s: %w", root, err)
	}
	return nil
}

// Start is every agent's start-up, in the one order that is safe:
// register an aggregation source claiming the owned subtrees, declare
// colls, attach h for each owned subtree — from here on the OFMF
// forwards operations, so h must be ready — and only then run publish,
// the agent's first full Publish, so the tree never shows resources
// nothing answers for. It returns the source's URI (for heartbeats) once
// registration succeeded, whatever fails later.
func Start(c Conn, name, technology string, owned []odata.ID, colls service.CollectionsPayload, h service.FabricHandler, publish func() error) (odata.ID, error) {
	uri, err := c.Register(redfish.AggregationSource{
		Resource: odata.Resource{Name: name},
		Oem:      redfish.AggSourceOem{OFMF: &redfish.AgentDescriptor{Technology: technology, Version: "1.0"}},
		Links:    redfish.AggSourceLinks{ResourcesAccessed: odata.RefSlice(owned)},
	})
	if err != nil {
		return "", fmt.Errorf("agent: register %s: %w", name, err)
	}
	if err := c.RegisterCollections(colls); err != nil {
		return uri, fmt.Errorf("agent: register collections of %s: %w", name, err)
	}
	for _, prefix := range owned {
		if err := c.AttachHandler(prefix, h); err != nil {
			return uri, fmt.Errorf("agent: attach handler for %s: %w", prefix, err)
		}
	}
	return uri, publish()
}

// Stop detaches the handlers Start attached for the agent's subtrees.
func Stop(c Conn, owned ...odata.ID) {
	for _, prefix := range owned {
		c.DetachHandler(prefix)
	}
}

// Local connects an agent to an in-process OFMF service.
type Local struct {
	Service *service.Service
}

// Register registers the aggregation source through the service's
// serialized registration path, so local agents get the same
// HostName-dedup semantics as remote ones.
func (l *Local) Register(src redfish.AggregationSource) (odata.ID, error) {
	stored, _, err := l.Service.RegisterAggregationSource(context.Background(), src)
	if err != nil {
		return "", err
	}
	return stored.ODataID, nil
}

// PublishSubtree installs the subtree into the service store.
func (l *Local) PublishSubtree(ctx context.Context, prefix odata.ID, resources map[odata.ID]any, keep ...odata.ID) error {
	return l.Service.Store().PutSubtreeCtx(ctx, prefix, resources, keep...)
}

// PublishEvent publishes through Service.Publish (silent on a replica).
func (l *Local) PublishEvent(rec redfish.EventRecord) {
	l.Service.Publish(rec)
}

// AttachHandler registers the handler with the service.
func (l *Local) AttachHandler(prefix odata.ID, h service.FabricHandler) error {
	return l.Service.RegisterFabricHandler(prefix, h)
}

// DetachHandler unregisters the handler.
func (l *Local) DetachHandler(prefix odata.ID) {
	l.Service.UnregisterFabricHandler(prefix)
}

// TouchSource patches the aggregation source's heartbeat through the
// service so liveness metrics see local heartbeats exactly like remote
// HTTP ones.
func (l *Local) TouchSource(sourceURI odata.ID, timestamp string) error {
	return l.Service.PatchResource(context.Background(), sourceURI, heartbeatPatch(timestamp), "")
}

func heartbeatPatch(timestamp string) map[string]any {
	return map[string]any{"Oem": map[string]any{"OFMF": map[string]any{"LastHeartbeat": timestamp}}}
}

// RegisterCollections registers the collections directly in the store.
func (l *Local) RegisterCollections(colls service.CollectionsPayload) error {
	for uri, meta := range colls {
		l.Service.Store().RegisterCollection(uri, meta[0], meta[1])
	}
	return nil
}

// Remote connects an agent to a standalone OFMF over HTTP. CallbackURL is
// the base URL of the agent's own ops server (see Serve); the OFMF
// forwards fabric mutations there.
//
// Unless Client overrides it, all calls run through a resilient
// transport: per-attempt timeouts, capped exponential backoff with
// jitter, and a circuit breaker that fails fast while the OFMF is down
// and probes it back. Every control-plane operation is retried — they
// are idempotent by construction (subtree publication replaces the
// subtree, heartbeats carry absolute timestamps, collection and agent
// registration are deduplicated by the OFMF).
type Remote struct {
	BaseURL     string // OFMF base, e.g. http://host:8080
	CallbackURL string
	Token       string // X-Auth-Token when the OFMF enforces auth
	// Client overrides the default resilient transport entirely.
	Client *http.Client
	// Policy tunes the default transport's fault handling; nil means
	// resilience.DefaultPolicy.
	Policy *resilience.Policy
	// SpoolSize bounds the undelivered-event spool (default 1024).
	SpoolSize int

	clientOnce sync.Once
	defClient  *http.Client

	spool eventSpool

	mu       sync.Mutex
	handlers map[odata.ID]service.FabricHandler
}

// maxResponseBytes caps OFMF response bodies read by the agent, so a
// misbehaving (or spoofed) server cannot balloon agent memory.
const maxResponseBytes = 8 << 20

func (r *Remote) client() *http.Client {
	if r.Client != nil {
		return r.Client
	}
	r.clientOnce.Do(func() {
		p := resilience.DefaultPolicy()
		if r.Policy != nil {
			p = *r.Policy
		}
		r.defClient = &http.Client{Transport: &resilience.Transport{
			Policy:    p,
			Retryable: resilience.RetryAll,
		}}
	})
	return r.defClient
}

func (r *Remote) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("agent: marshal: %w", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.BaseURL+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	// Propagate trace identity (traceparent + X-Request-Id) when the
	// caller's context carries one, so agent-initiated calls join the
	// distributed trace recorded by the OFMF's middleware.
	obsv.InjectHeaders(ctx, req.Header)
	if r.Token != "" {
		req.Header.Set("X-Auth-Token", r.Token)
	}
	resp, err := r.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return err
	}
	if len(data) > maxResponseBytes {
		return fmt.Errorf("agent: %s %s response exceeds %d bytes", method, path, maxResponseBytes)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("agent: %s %s returned %s: %s", method, path, resp.Status, data)
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// Register POSTs the aggregation source, advertising the callback URL.
func (r *Remote) Register(src redfish.AggregationSource) (odata.ID, error) {
	if src.HostName == "" {
		src.HostName = r.CallbackURL
	}
	var created redfish.AggregationSource
	if err := r.do(context.Background(), http.MethodPost, string(service.AggregationSourcesURI), src, &created); err != nil {
		return "", err
	}
	return created.ODataID, nil
}

// PublishSubtree pushes the subtree through the OFMF's OEM aggregation
// endpoint.
func (r *Remote) PublishSubtree(ctx context.Context, prefix odata.ID, resources map[odata.ID]any, keep ...odata.ID) error {
	payload := service.SubtreePayload{Prefix: prefix, Keep: keep, Resources: make(map[odata.ID]json.RawMessage, len(resources))}
	for id, v := range resources {
		b, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("agent: marshal %s: %w", id, err)
		}
		payload.Resources[id] = b
	}
	return r.do(ctx, http.MethodPost, string(service.SubtreeOemURI), payload, nil)
}

// PublishEvent pushes the record through the OFMF's OEM event endpoint.
// Records are never silently discarded: every event enters a bounded
// FIFO spool that is drained in order while the OFMF is reachable and
// retried on reconnect (the next successful heartbeat or publish).
// Only spool overflow loses records — oldest first, counted by
// EventsDropped.
func (r *Remote) PublishEvent(rec redfish.EventRecord) {
	r.spool.add(rec, r.SpoolSize)
	r.drainSpool()
}

// drainSpool delivers spooled events head-of-line until the spool is
// empty or a delivery fails. A single drainer runs at a time, keeping
// delivery FIFO. Events published mid-drain land in the spool's live
// side-buffer; endDrain merges them back and reports the remainder, so
// a healthy drainer loops until the spool is truly empty instead of
// stranding them until the next reconnect signal.
func (r *Remote) drainSpool() {
	for {
		if !r.spool.beginDrain() {
			return
		}
		healthy := true
		for {
			rec, ok := r.spool.peek()
			if !ok {
				break
			}
			if err := r.do(context.Background(), http.MethodPost, string(service.EventsOemURI), rec, nil); err != nil {
				healthy = false
				break
			}
			r.spool.pop()
		}
		if pending := r.spool.endDrain(); pending == 0 || !healthy {
			return
		}
	}
}

// EventBacklog returns the number of events spooled awaiting delivery.
func (r *Remote) EventBacklog() int { return r.spool.size() }

// DropSpool models an agent process crash: the in-memory spool dies
// with the process, so every undelivered event is discarded and counted
// as dropped (the chaos harness's conservation ledger needs the loss
// attributed, not vanished). Returns the number of records lost. Call
// it only with no drain in flight — a crashed process has no drainer.
func (r *Remote) DropSpool() int { return r.spool.reset() }

// EventsDelivered returns the number of events delivered to the OFMF.
func (r *Remote) EventsDelivered() int64 {
	delivered, _ := r.spool.stats()
	return delivered
}

// EventsDropped returns the number of events lost to spool overflow —
// the ofmf_agent_events_dropped_total metric reads it.
func (r *Remote) EventsDropped() int64 {
	_, dropped := r.spool.stats()
	return dropped
}

// TouchSource PATCHes the aggregation source's heartbeat over HTTP. A
// successful beat doubles as the reconnect signal: any spooled events
// are flushed before it returns.
func (r *Remote) TouchSource(sourceURI odata.ID, timestamp string) error {
	err := r.do(context.Background(), http.MethodPatch, string(sourceURI), heartbeatPatch(timestamp), nil)
	if err == nil && r.spool.size() > 0 {
		r.drainSpool()
	}
	return err
}

// RegisterCollections pushes the collection declarations through the
// OFMF's OEM endpoint.
func (r *Remote) RegisterCollections(colls service.CollectionsPayload) error {
	return r.do(context.Background(), http.MethodPost, string(service.CollectionsOemURI), colls, nil)
}

// AttachHandler records the handler locally; the OFMF forwards operations
// to the callback server which dispatches to it.
func (r *Remote) AttachHandler(prefix odata.ID, h service.FabricHandler) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.handlers == nil {
		r.handlers = make(map[odata.ID]service.FabricHandler)
	}
	r.handlers[prefix] = h
	return nil
}

// DetachHandler removes a handler from the callback dispatch table.
func (r *Remote) DetachHandler(prefix odata.ID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.handlers, prefix)
}

// handlerFor returns the attached handler whose subtree holds target,
// the longest prefix winning.
func (r *Remote) handlerFor(target odata.ID) service.FabricHandler {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best odata.ID
	for prefix := range r.handlers {
		if len(prefix) > len(best) && target.Under(prefix) {
			best = prefix
		}
	}
	return r.handlers[best]
}

// Handler returns the HTTP handler of the agent's ops server: its one
// route, POST /agent/ops, dispatches a forwarded operation to the
// attached handler that owns the operation's target.
func (r *Remote) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/agent/ops" {
			opsError(w, http.StatusNotFound, "Base.1.0.ResourceMissingAtURI", "no such resource: "+req.URL.Path)
			return
		}
		if req.Method != http.MethodPost {
			opsError(w, http.StatusMethodNotAllowed, "Base.1.0.OperationNotAllowed", "POST only")
			return
		}
		var op service.OpRequest
		if err := json.NewDecoder(req.Body).Decode(&op); err != nil {
			opsError(w, http.StatusBadRequest, "Base.1.0.MalformedJSON", err.Error())
			return
		}
		h := r.handlerFor(op.Target)
		if h == nil {
			opsError(w, http.StatusNotFound, "Base.1.0.ResourceMissingAtURI", "no handler for "+string(op.Target))
			return
		}
		resp, err := dispatchOp(req.Context(), h, op)
		if err != nil {
			opsError(w, http.StatusBadRequest, "OFMF.1.0.AgentOperationFailed", err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	})
}

// opsError writes the same Redfish extended-error envelope the OFMF
// itself emits, so clients see one error shape on both sides of the wire.
func opsError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(service.RedfishError(status, code, message))
}

func dispatchOp(ctx context.Context, h service.FabricHandler, op service.OpRequest) (service.OpResponse, error) {
	switch op.Op {
	case "CreateZone":
		var zone redfish.Zone
		if err := json.Unmarshal(op.Resource, &zone); err != nil {
			return service.OpResponse{}, err
		}
		if err := h.CreateZone(ctx, &zone); err != nil {
			return service.OpResponse{}, err
		}
		b, err := json.Marshal(zone)
		return service.OpResponse{Resource: b}, err
	case "DeleteZone":
		return service.OpResponse{}, h.DeleteZone(ctx, op.Target)
	case "CreateConnection":
		var conn redfish.Connection
		if err := json.Unmarshal(op.Resource, &conn); err != nil {
			return service.OpResponse{}, err
		}
		if err := h.CreateConnection(ctx, &conn); err != nil {
			return service.OpResponse{}, err
		}
		b, err := json.Marshal(conn)
		return service.OpResponse{Resource: b}, err
	case "DeleteConnection":
		return service.OpResponse{}, h.DeleteConnection(ctx, op.Target)
	case "Patch":
		return service.OpResponse{}, h.Patch(ctx, op.Target, op.Patch)
	case "CreateResource":
		prov, ok := h.(service.ResourceProvisioner)
		if !ok {
			return service.OpResponse{}, fmt.Errorf("agent: handler cannot provision resources")
		}
		res, err := prov.CreateResource(ctx, op.Target, op.URI, op.Resource)
		if err != nil {
			return service.OpResponse{}, err
		}
		b, err := json.Marshal(res)
		return service.OpResponse{Resource: b}, err
	case "DeleteResource":
		prov, ok := h.(service.ResourceProvisioner)
		if !ok {
			return service.OpResponse{}, fmt.Errorf("agent: handler cannot provision resources")
		}
		return service.OpResponse{}, prov.DeleteResource(ctx, op.Target)
	default:
		return service.OpResponse{}, fmt.Errorf("agent: unknown op %q", op.Op)
	}
}

// HeartbeatOption customizes StartHeartbeat.
type HeartbeatOption func(*heartbeatConfig)

type heartbeatConfig struct {
	report func(consecutive int, err error)
}

// WithHeartbeatReport registers a callback invoked after every beat
// with the consecutive-failure count (0 after a success) and the beat's
// error, so the agent process can see a dead OFMF instead of the
// failures vanishing. The callback runs on the heartbeat goroutine.
func WithHeartbeatReport(fn func(consecutive int, err error)) HeartbeatOption {
	return func(c *heartbeatConfig) { c.report = fn }
}

// StartHeartbeat periodically refreshes the aggregation source's
// LastHeartbeat until the returned stop function is called, letting the
// OFMF (and monitoring clients) detect dead agents. The first beat is
// sent immediately — a just-registered agent must not look dead for a
// full interval — and per-beat outcomes are surfaced through
// WithHeartbeatReport.
func StartHeartbeat(conn Conn, sourceURI odata.ID, interval time.Duration, opts ...HeartbeatOption) (stop func()) {
	var cfg heartbeatConfig
	for _, o := range opts {
		o(&cfg)
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		consecutive := 0
		beat := func() {
			err := conn.TouchSource(sourceURI, redfish.Timestamp(time.Now()))
			if err != nil {
				consecutive++
			} else {
				consecutive = 0
			}
			if cfg.report != nil {
				cfg.report(consecutive, err)
			}
		}
		beat()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				beat()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}
