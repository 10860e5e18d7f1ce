package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ofmf/internal/obsv"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/resilience"
	"ofmf/internal/store"
)

// OEM extension URIs used by out-of-process Agents. The reference OFMF
// exposes equivalent internal interfaces for its agents; they are not part
// of the standard Redfish surface.
const (
	SubtreeOemURI     = RootURI + "/Oem/OFMF/Subtree"
	EventsOemURI      = RootURI + "/Oem/OFMF/Events"
	CollectionsOemURI = RootURI + "/Oem/OFMF/Collections"
	// AdminTreeOemURI is the operator backup endpoint: GET downloads the
	// whole resource tree as portable JSON (the store's Export format,
	// independent of the WAL's on-disk layout), POST/PUT restores one.
	// Restore has replace semantics — the resource tree afterwards is
	// exactly the dumped tree, resources absent from the dump included —
	// and is all-or-nothing: the dump is fully decoded and validated
	// before the store is touched, and then applied as one atomic batch.
	// ofmfctl dump/restore drive it.
	AdminTreeOemURI = RootURI + "/Oem/OFMF/Admin/Tree"
	// TracesOemURI is the operator tracing endpoint: GET dumps the
	// tracer's ring buffer of finished spans as JSON, newest trace
	// first. Query parameters: min_ms filters to spans at least that
	// many milliseconds long, trace selects one trace id, limit caps the
	// span count (default 1000).
	TracesOemURI = RootURI + "/Oem/OFMF/Admin/Traces"
)

// maxRestoreBytes bounds an uploaded tree dump. Dumps are whole-tree, so
// the ceiling is far above the general request bound.
const maxRestoreBytes = 256 << 20

func (s *Service) handleAdminTree(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		data, err := s.store.Export()
		if err != nil {
			s.error(w, r, http.StatusInternalServerError, "Base.1.0.InternalError", err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		if r.Method != http.MethodHead {
			_, _ = w.Write(data)
		}
	case http.MethodPost, http.MethodPut:
		data, err := io.ReadAll(io.LimitReader(r.Body, maxRestoreBytes+1))
		if err != nil {
			s.error(w, r, http.StatusBadRequest, "Base.1.0.MalformedJSON", err.Error())
			return
		}
		if len(data) > maxRestoreBytes {
			s.error(w, r, http.StatusRequestEntityTooLarge, "Base.1.0.PropertyValueError",
				fmt.Sprintf("dump exceeds %d bytes", maxRestoreBytes))
			return
		}
		// Stage the whole dump before touching the live tree: decode it,
		// check every URI, and only then hand it to PutSubtree, which
		// canonicalizes every payload up front and installs the lot under
		// one write lock — a malformed dump is rejected with the store
		// unchanged, never half-applied.
		var dump map[odata.ID]json.RawMessage
		if err := json.Unmarshal(data, &dump); err != nil {
			s.error(w, r, http.StatusBadRequest, "Base.1.0.MalformedJSON", err.Error())
			return
		}
		if _, ok := dump[RootURI]; !ok {
			s.error(w, r, http.StatusBadRequest, "Base.1.0.PropertyValueError",
				"dump does not contain the service root; not a tree dump")
			return
		}
		// A restore neither mints a login nor ends one: Sessions stay.
		resources := make(map[odata.ID]any, len(dump))
		for id, raw := range dump {
			if !id.Under(RootURI) {
				s.error(w, r, http.StatusBadRequest, "Base.1.0.PropertyValueError",
					"resource outside service root: "+string(id))
				return
			}
			if !id.Under(SessionsURI) {
				resources[id] = raw
			}
		}
		if err := s.store.PutSubtreeCtx(r.Context(), RootURI, resources, SessionsURI); err != nil {
			// URIs and payload JSON were validated above, so a failure
			// here is a durability fault, not a bad request.
			s.error(w, r, http.StatusInternalServerError, "Base.1.0.InternalError", err.Error())
			return
		}
		s.log.Info("service: tree restored via admin endpoint",
			"resources", s.store.Len(), "request_id", obsv.RequestIDFrom(r.Context()))
		w.WriteHeader(http.StatusNoContent)
	default:
		s.error(w, r, http.StatusMethodNotAllowed, "Base.1.0.OperationNotAllowed", "GET, POST or PUT only")
	}
}

// handleTraces serves the tracer's ring buffer: a JSON dump of finished
// spans, newest first, filterable by minimum duration (min_ms), trace
// id (trace) and span count (limit).
func (s *Service) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		s.error(w, r, http.StatusMethodNotAllowed, "Base.1.0.OperationNotAllowed", "GET only")
		return
	}
	q := r.URL.Query()
	var minDur time.Duration
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			s.error(w, r, http.StatusBadRequest, "Base.1.0.PropertyValueError", "min_ms must be a non-negative number")
			return
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	limit := 1000
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			s.error(w, r, http.StatusBadRequest, "Base.1.0.PropertyValueError", "limit must be a positive integer")
			return
		}
		limit = n
	}
	traceID := q.Get("trace")
	spans := s.tracer.Dump() // oldest first
	out := make([]obsv.SpanRecord, 0, min(len(spans), limit))
	for i := len(spans) - 1; i >= 0 && len(out) < limit; i-- {
		sp := spans[i]
		if sp.Duration < minDur || (traceID != "" && sp.TraceID != traceID) {
			continue
		}
		out = append(out, sp)
	}
	s.json(w, http.StatusOK, map[string]any{
		"Name":  "OFMF Trace Ring",
		"Count": len(out),
		"Spans": out,
	})
}

// CollectionsPayload declares the collections an agent's subtree
// contains, so the OFMF serves them as browsable (and POSTable)
// collection resources. Each value is [@odata.type, display name].
type CollectionsPayload map[odata.ID][2]string

// SubtreePayload is the wire format of an agent subtree push. Keep lists
// sub-prefixes whose existing resources must survive the refresh (the
// OFMF-stored Zones and Connections under the agent's fabric). The
// OFMF reads what json.Marshal writes for it without encoding/json
// (subtreeEnvelope), which relies on Resources coming last.
type SubtreePayload struct {
	Prefix    odata.ID                     `json:"Prefix"`
	Keep      []odata.ID                   `json:"Keep,omitempty"`
	Resources map[odata.ID]json.RawMessage `json:"Resources"`
}

// OpRequest is the wire format of a fabric operation forwarded to a
// remote agent's ops server.
type OpRequest struct {
	Op       string          `json:"Op"` // CreateZone, DeleteZone, CreateConnection, DeleteConnection, Patch, CreateResource, DeleteResource
	Target   odata.ID        `json:"Target"`
	URI      odata.ID        `json:"URI,omitempty"` // allocated resource URI for CreateResource
	Resource json.RawMessage `json:"Resource,omitempty"`
	Patch    map[string]any  `json:"Patch,omitempty"`
}

// OpResponse carries the (possibly mutated) resource back from the agent.
type OpResponse struct {
	Resource json.RawMessage `json:"Resource,omitempty"`
}

// handleSubtreePush installs an agent's subtree. The body json.Marshal
// writes for a SubtreePayload is read once: subtreeEnvelope walks the
// envelope and the store's own walk reads the Resources document in
// place (Store.PutSubtreeDoc). Any other body is decoded by
// encoding/json, with the replies it always had.
func (s *Service) handleSubtreePush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.error(w, r, http.StatusMethodNotAllowed, "Base.1.0.OperationNotAllowed", "POST only")
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	// A bad Prefix is answered below, after encoding/json has had its say
	// on the whole body, as it always was; so is a document it rejects.
	if prefix, keep, doc, ok := subtreeEnvelope(body); ok && badPushPrefix(prefix) == "" {
		if err := s.store.PutSubtreeDoc(r.Context(), prefix, doc, keep...); !errors.Is(err, store.ErrBadDocument) {
			s.subtreePushed(w, r, err)
			return
		}
	}
	var payload SubtreePayload
	if err := json.Unmarshal(body, &payload); err != nil {
		s.error(w, r, http.StatusBadRequest, "Base.1.0.MalformedJSON", err.Error())
		return
	}
	if msg := badPushPrefix(payload.Prefix); msg != "" {
		s.error(w, r, http.StatusBadRequest, "Base.1.0.PropertyValueError", msg)
		return
	}
	resources := make(map[odata.ID]any, len(payload.Resources))
	for id, raw := range payload.Resources {
		resources[id] = raw
	}
	s.subtreePushed(w, r, s.store.PutSubtreeCtx(r.Context(), payload.Prefix, resources, payload.Keep...))
}

// badPushPrefix says what is wrong with a pushed subtree's Prefix, if
// anything.
func badPushPrefix(prefix odata.ID) string {
	if prefix.IsZero() || !prefix.Under(RootURI) {
		return "Prefix must lie under the service root"
	}
	if prefix.Under(SessionsURI) || SessionsURI.Under(prefix) {
		// A Session is what authentication trusts, so only login and
		// logout write one.
		return "Prefix must not cover the sessions"
	}
	return ""
}

func (s *Service) subtreePushed(w http.ResponseWriter, r *http.Request, err error) {
	if err != nil {
		s.error(w, r, http.StatusBadRequest, "Base.1.0.PropertyValueError", err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// subtreeEnvelope reads a push body laid out as json.Marshal writes a
// SubtreePayload, {"Prefix":"…"[,"Keep":["…",…]],"Resources":{…}}, with
// every string printable ASCII and unescaped. Resources is the last key,
// so its document runs to the body's closing brace; it is returned
// unread. ok is false for any other body.
func subtreeEnvelope(body []byte) (prefix odata.ID, keep []odata.ID, doc []byte, ok bool) {
	rest, ok := bytes.CutPrefix(body, []byte(`{"Prefix":`))
	if !ok {
		return "", nil, nil, false
	}
	if prefix, rest, ok = store.CutPlainString(rest); !ok {
		return "", nil, nil, false
	}
	if list, found := bytes.CutPrefix(rest, []byte(`,"Keep":[`)); found {
		for rest = list; len(rest) == 0 || rest[0] != ']'; {
			if len(keep) > 0 {
				if rest, ok = bytes.CutPrefix(rest, []byte(",")); !ok {
					return "", nil, nil, false
				}
			}
			var k odata.ID
			if k, rest, ok = store.CutPlainString(rest); !ok {
				return "", nil, nil, false
			}
			keep = append(keep, k)
		}
		rest = rest[1:]
	}
	doc, ok = bytes.CutPrefix(rest, []byte(`,"Resources":`))
	if !ok || len(doc) == 0 || doc[len(doc)-1] != '}' {
		return "", nil, nil, false
	}
	return prefix, keep, doc[:len(doc)-1], true
}

func (s *Service) handleCollectionsPush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.error(w, r, http.StatusMethodNotAllowed, "Base.1.0.OperationNotAllowed", "POST only")
		return
	}
	var payload CollectionsPayload
	if !s.decode(w, r, &payload) {
		return
	}
	for uri, meta := range payload {
		if !uri.Under(RootURI) {
			s.error(w, r, http.StatusBadRequest, "Base.1.0.PropertyValueError", "collection outside service root: "+string(uri))
			return
		}
		s.store.RegisterCollection(uri, meta[0], meta[1])
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleEventPush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.error(w, r, http.StatusMethodNotAllowed, "Base.1.0.OperationNotAllowed", "POST only")
		return
	}
	var rec redfish.EventRecord
	if !s.decode(w, r, &rec) {
		return
	}
	s.bus.PublishCtx(r.Context(), rec)
	w.WriteHeader(http.StatusNoContent)
}

// maxAgentResponseBytes bounds agent ops responses so a confused agent
// cannot exhaust OFMF memory.
const maxAgentResponseBytes = 8 << 20

// defaultAgentClient lazily builds the shared client for forwarded fabric
// operations: per-attempt timeouts and a per-agent circuit breaker, but
// no transport retries — fabric mutations (CreateConnection etc.) are not
// idempotent, so retry decisions stay with the composition layer.
var defaultAgentClient = sync.OnceValue(func() *http.Client {
	p := resilience.DefaultPolicy()
	p.MaxAttempts = 1
	return resilience.NewHTTPClient(p)
})

// remoteHandler forwards fabric operations to a remote agent's ops server.
// Each forwarded call runs under the request context it is given, so the
// OFMF->agent POST carries the request's trace context and cancellation.
type remoteHandler struct {
	url    string   // agent callback base URL
	source odata.ID // the AggregationSource it forwards for
}

func (h *remoteHandler) post(ctx context.Context, op OpRequest, out any) error {
	body, err := json.Marshal(op)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.url+"/agent/ops", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	obsv.InjectHeaders(ctx, req.Header)
	resp, err := defaultAgentClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxAgentResponseBytes+1))
	if err != nil {
		return err
	}
	if len(data) > maxAgentResponseBytes {
		return fmt.Errorf("agent at %s: response exceeds %d bytes", h.url, maxAgentResponseBytes)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("agent at %s: %s: %s", h.url, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		var opResp OpResponse
		if err := json.Unmarshal(data, &opResp); err != nil {
			return err
		}
		if len(opResp.Resource) > 0 {
			return json.Unmarshal(opResp.Resource, out)
		}
	}
	return nil
}

func (h *remoteHandler) CreateZone(ctx context.Context, zone *redfish.Zone) error {
	raw, err := json.Marshal(zone)
	if err != nil {
		return err
	}
	return h.post(ctx, OpRequest{Op: "CreateZone", Target: zone.ODataID, Resource: raw}, zone)
}

func (h *remoteHandler) DeleteZone(ctx context.Context, id odata.ID) error {
	return h.post(ctx, OpRequest{Op: "DeleteZone", Target: id}, nil)
}

func (h *remoteHandler) CreateConnection(ctx context.Context, conn *redfish.Connection) error {
	raw, err := json.Marshal(conn)
	if err != nil {
		return err
	}
	return h.post(ctx, OpRequest{Op: "CreateConnection", Target: conn.ODataID, Resource: raw}, conn)
}

func (h *remoteHandler) DeleteConnection(ctx context.Context, id odata.ID) error {
	return h.post(ctx, OpRequest{Op: "DeleteConnection", Target: id}, nil)
}

func (h *remoteHandler) Patch(ctx context.Context, id odata.ID, patch map[string]any) error {
	return h.post(ctx, OpRequest{Op: "Patch", Target: id, Patch: patch}, nil)
}

// CreateResource forwards a provisioning request; the remote agent carves
// capacity and returns the resource to store.
func (h *remoteHandler) CreateResource(ctx context.Context, coll, uri odata.ID, payload json.RawMessage) (any, error) {
	var out json.RawMessage
	err := h.post(ctx, OpRequest{Op: "CreateResource", Target: coll, URI: uri, Resource: payload}, &out)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DeleteResource forwards a deprovisioning request.
func (h *remoteHandler) DeleteResource(ctx context.Context, id odata.ID) error {
	return h.post(ctx, OpRequest{Op: "DeleteResource", Target: id}, nil)
}
