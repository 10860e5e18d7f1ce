package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"

	"ofmf/internal/events"
	"ofmf/internal/obsv"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/sessions"
	"ofmf/internal/store"
)

// maxBodyBytes bounds request payload size.
const maxBodyBytes = 4 << 20

// maxBodyPresize bounds how much of a declared Content-Length readBody
// allocates before the bytes arrive: an agent's subtree push (about
// 78 KB for 200 resources) fits, and a client that declares more than
// it sends holds no more than this.
const maxBodyPresize = 128 << 10

// bufPool recycles response-encoding buffers so the GET hot path does no
// per-request heap allocation; buffers that grew past maxPooledBuf are
// dropped instead of pinned.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 1 << 20

func getBuf() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuf {
		bufPool.Put(b)
	}
}

// Handler returns the service's HTTP handler, which also serves the
// SystemComposer's facade under /composer/ once one is set. Every request
// passes through the one observability middleware: it gets an entry span
// and one correlation id (echoed as X-Request-Id), and lands in the
// ofmf_http_* metrics under its bounded route class.
func (s *Service) Handler() http.Handler {
	return obsv.Middleware(http.HandlerFunc(s.dispatch), s.metrics, s.log, RouteClass, s.tracer)
}

// route is what one lookup of a request path yields: the bounded class
// the metrics label by, the resource id the path names, and where the
// request goes.
type route struct {
	class string
	id    odata.ID // the path less its trailing slash
	kind  routeKind
	// serve handles a fixed endpoint (Oem, SSE); nil on a resource route.
	serve func(*Service, http.ResponseWriter, *http.Request)
}

type routeKind int

const (
	routeResource routeKind = iota // the Redfish tree: authorize, then serve or dispatch by method
	routeVersions                  // GET /redfish
	routeMetadata                  // $metadata and odata, open like the service root
	routeComposer                  // the Composability Layer facade, when mounted
	routeOutside                   // not under /redfish or /composer: 404
)

// topClasses is the closed set of top-level tree segments (besides
// Fabrics) that keep their name as the route class; the values are the
// interned names, so a label never pins a request's path. fabricClasses
// is the same for the fabric sub-collections (the forwarding hot paths,
// distinguishable per collection, not per fabric). Everything a client
// can invent beyond them is "Other", so the class label's cardinality
// is fixed.
var (
	topClasses = map[string]string{
		"Systems": "Systems", "Chassis": "Chassis", "Storage": "Storage",
		"EventService": "EventService", "TaskService": "TaskService", "SessionService": "SessionService",
		"TelemetryService": "TelemetryService", "AggregationService": "AggregationService",
		"CompositionService": "CompositionService", "Registries": "Registries", "Oem": "Oem",
	}
	fabricClasses = map[string]string{
		"AddressPools":   "Fabrics.AddressPools",
		"Connections":    "Fabrics.Connections",
		"EndpointGroups": "Fabrics.EndpointGroups",
		"Endpoints":      "Fabrics.Endpoints",
		"Switches":       "Fabrics.Switches",
		"Zones":          "Fabrics.Zones",
	}
	// fixedRoutes are the endpoints below the tree that are not store
	// resources, by full path.
	fixedRoutes = map[odata.ID]func(*Service, http.ResponseWriter, *http.Request){
		SubtreeOemURI:     (*Service).handleSubtreePush,
		EventsOemURI:      (*Service).handleEventPush,
		CollectionsOemURI: (*Service).handleCollectionsPush,
		AdminTreeOemURI:   (*Service).handleAdminTree,
		TracesOemURI:      (*Service).handleTraces,
		SSEURI:            (*Service).handleSSE,
	}
)

// lookupRoute resolves a request path once; both the metric label
// (RouteClass) and dispatch read its result. It allocates nothing.
func lookupRoute(path string) route {
	path = strings.TrimSuffix(path, "/")
	rt := route{class: "Other", id: odata.ID(path), kind: routeOutside}
	switch {
	case path == "":
		rt.class = "Root"
		return rt
	case path == "/redfish":
		rt.class, rt.kind = "Versions", routeVersions
		return rt
	case strings.HasPrefix(path, "/composer"):
		rt.class, rt.kind = "Composer", routeComposer
		return rt
	}
	rel, ok := strings.CutPrefix(path, string(RootURI))
	if !ok || (rel != "" && rel[0] != '/') {
		return rt
	}
	rt.kind = routeResource
	if rel == "" {
		rt.class = "ServiceRoot"
		return rt
	}
	top, rest, _ := strings.Cut(rel[1:], "/")
	switch top {
	case "$metadata", "odata":
		rt.class = "Metadata"
		if rest == "" {
			rt.kind = routeMetadata
		}
	case "Fabrics":
		rt.class = "Fabrics"
		// rest is {fabric}/{sub-collection}/...
		if _, below, ok := strings.Cut(rest, "/"); ok {
			sub, _, _ := strings.Cut(below, "/")
			if rt.class, ok = fabricClasses[sub]; !ok {
				rt.class = "Other"
			}
		}
	default:
		if class, ok := topClasses[top]; ok {
			rt.class = class
			rt.serve = fixedRoutes[rt.id]
		}
	}
	return rt
}

// RouteClass maps a request path to the bounded route class used as the
// "class" metric label, collapsing per-resource ids:
// /redfish/v1/Systems/node001 -> Systems,
// /redfish/v1/Fabrics/CXL/Connections/7 -> Fabrics.Connections. The set
// of classes is closed — a path segment the service does not know is
// "Other" — because the label is assigned before authorization, where
// any client can choose the path.
func RouteClass(path string) string { return lookupRoute(path).class }

func (s *Service) handleVersions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		s.error(w, r, http.StatusMethodNotAllowed, "Base.1.0.OperationNotAllowed", "only GET is supported")
		return
	}
	s.json(w, http.StatusOK, map[string]string{"v1": "/redfish/v1/"})
}

func (s *Service) dispatch(w http.ResponseWriter, r *http.Request) {
	rt := lookupRoute(r.URL.Path)
	var composer SystemComposer
	switch rt.kind {
	case routeVersions:
		s.handleVersions(w, r)
		return
	case routeMetadata:
		s.json(w, http.StatusOK, map[string]string{"@odata.context": string(RootURI) + "/$metadata"})
		return
	case routeComposer:
		if composer = s.systemComposer(); composer != nil {
			break
		}
		fallthrough
	case routeOutside:
		s.error(w, r, http.StatusNotFound, "Base.1.0.ResourceMissingAtURI", "no such resource: "+r.URL.Path)
		return
	}
	id := rt.id
	if !s.authorize(w, r, id) {
		return
	}
	// Replica serving: reads come from the local replicated tree (and the
	// composer's projection of it); mutations, composing among them, and
	// SSE (the event plane is leader-owned) go to the leader. One atomic
	// load — the GET hot path stays allocation free when the pointer is
	// nil (the normal, non-replica case).
	if leader := s.replica.Load(); leader != nil {
		if (r.Method != http.MethodGet && r.Method != http.MethodHead) || id == SSEURI {
			s.forwardToLeader(w, r, *leader)
			return
		}
	}
	if composer != nil {
		composer.ServeHTTP(w, r)
		return
	}
	if rt.serve != nil {
		rt.serve(s, w, r)
		return
	}
	// A ResourceBlock is the composer's record of what it composed: only
	// composing and decomposing a system write one.
	if r.Method != http.MethodGet && r.Method != http.MethodHead && id.Under(ResourceBlocksURI) && s.systemComposer() != nil {
		s.error(w, r, http.StatusMethodNotAllowed, "Base.1.0.OperationNotAllowed", "compose or decompose a system instead")
		return
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		s.handleGet(w, r, id)
	case http.MethodPost:
		s.handlePost(w, r, id)
	case http.MethodPatch:
		s.handlePatch(w, r, id)
	case http.MethodDelete:
		s.handleDelete(w, r, id)
	default:
		s.error(w, r, http.StatusMethodNotAllowed, "Base.1.0.OperationNotAllowed", r.Method+" not supported")
	}
}

// authorize enforces token auth when credentials are configured. The
// service root and session creation remain reachable without a token, as
// the Redfish protocol requires.
func (s *Service) authorize(w http.ResponseWriter, r *http.Request, id odata.ID) bool {
	if s.cfg.Credentials == nil {
		return true
	}
	if id == RootURI {
		return true
	}
	if r.Method == http.MethodPost && id == SessionsURI {
		return true
	}
	token := r.Header.Get("X-Auth-Token")
	if token == "" {
		s.error(w, r, http.StatusUnauthorized, "Base.1.0.NoValidSession", "X-Auth-Token required")
		return false
	}
	if _, err := s.sessions.Validate(token); err != nil {
		s.error(w, r, http.StatusUnauthorized, "Base.1.0.NoValidSession", "invalid or expired token")
		return false
	}
	return true
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request, id odata.ID) {
	if s.store.IsCollection(id) {
		// The overwhelmingly common collection GET carries no query
		// options: serve the store's memoized payload bytes directly —
		// no member re-sort, no encoding, no copy.
		if r.URL.RawQuery == "" {
			s.serveCollection(w, r, id)
			return
		}
		coll, err := s.store.Collection(id)
		if err != nil {
			s.fail(w, r, err)
			return
		}
		query := r.URL.Query()
		// $expand inlines member payloads (the ?$expand=. / ?$expand=*
		// subset of the Redfish query spec).
		expand := query.Get("$expand")
		expanded := expand == "." || expand == "*" || expand == "Members"
		// $skip / $top paging per the Redfish query spec. Members@odata.count
		// keeps the total size; nextLink carries the continuation, and the
		// $expand the page was asked with, so following it stays expanded.
		skip, top := parsePaging(query.Get("$skip")), parsePaging(query.Get("$top"))
		nextLink := ""
		if skip > 0 || top > 0 {
			total := len(coll.Members)
			if skip > total {
				skip = total
			}
			end := total
			if top > 0 && skip+top < total {
				end = skip + top
				nextLink = fmt.Sprintf("%s?$skip=%d&$top=%d", id, end, top)
				if expanded {
					nextLink += "&$expand=" + expand
				}
			}
			coll.Members = coll.Members[skip:end]
		}
		if expanded {
			s.expandedCollection(w, coll, nextLink)
			return
		}
		if nextLink != "" {
			s.json(w, http.StatusOK, pagedCollection{Collection: coll, NextLink: nextLink})
			return
		}
		s.json(w, http.StatusOK, coll)
		return
	}
	s.serveResource(w, r, id)
}

// serveCollection writes the collection's memoized payload straight to
// the wire. If-None-Match is answered from the cached entity tag alone,
// without touching the payload.
func (s *Service) serveCollection(w http.ResponseWriter, r *http.Request, id odata.ID) {
	match := r.Header.Get("If-None-Match")
	err := s.store.CollectionView(id, func(payload []byte, etag string) {
		if match != "" && match == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("ETag", etag)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		if r.Method != http.MethodHead {
			_, _ = w.Write(payload)
		}
	})
	if err != nil {
		s.fail(w, r, err)
	}
}

// serveResource streams a resource through the store's zero-copy view: a
// single locked lookup checks If-None-Match against the entity tag before
// any bytes are materialized, and a hit copies the payload once into a
// pooled buffer (never to a fresh heap slice). The buffer, not the store's
// internal slice, is what reaches the (possibly slow) client.
func (s *Service) serveResource(w http.ResponseWriter, r *http.Request, id odata.ID) {
	match := r.Header.Get("If-None-Match")
	buf := getBuf()
	defer putBuf(buf)
	etag := ""
	notModified := false
	err := s.store.View(id, func(raw json.RawMessage, tag string) {
		etag = tag
		if match != "" && match == tag {
			notModified = true
			return
		}
		if r.Method != http.MethodHead {
			buf.Write(raw)
		}
	})
	if err != nil {
		s.fail(w, r, err)
		return
	}
	if notModified {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		_, _ = w.Write(buf.Bytes())
	}
}

// pagedCollection decorates a collection with the continuation link.
type pagedCollection struct {
	odata.Collection
	NextLink string `json:"Members@odata.nextLink,omitempty"`
}

// parsePaging parses a non-negative integer query value; malformed or
// missing values yield zero (no paging).
func parsePaging(v string) int {
	if v == "" {
		return 0
	}
	n := 0
	for _, c := range v {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
		if n > 1<<30 {
			return 1 << 30
		}
	}
	return n
}

// expandedHead is the part of an expanded collection that is encoded per
// request; the members are spliced in after it.
type expandedHead struct {
	ODataID   odata.ID `json:"@odata.id"`
	ODataType string   `json:"@odata.type"`
	Name      string   `json:"Name"`
	Count     int      `json:"Members@odata.count"`
}

// expandedCollection renders a collection with member resources inlined.
// Only the four head fields (and the continuation link) go through the
// encoder: each member is the bytes the store already holds, copied out
// of its zero-copy view and joined with commas. Every stored payload is
// json.Marshal output (see store.canonicalize), which the encoder would
// reproduce byte for byte, so the reply is exactly what encoding the
// members as json.RawMessage produced — without re-validating and
// re-compacting ~22 KB per request. Nothing is memoized: there is no
// second copy to invalidate, and paged and unpaged requests share the
// path.
func (s *Service) expandedCollection(w http.ResponseWriter, coll odata.Collection, nextLink string) {
	members := getBuf()
	defer putBuf(members)
	found := 0
	for _, ref := range coll.Members {
		// A member that raced a delete is omitted: ViewRaw fails and the
		// callback, which alone writes, never runs. The splice needs no
		// entity tag, so it hashes nothing.
		_ = s.store.ViewRaw(ref.ODataID, func(raw json.RawMessage) {
			if found > 0 {
				members.WriteByte(',')
			}
			members.Write(raw)
			found++
		})
	}
	out := getBuf()
	defer putBuf(out)
	enc := json.NewEncoder(out)
	// coll.Members is this page; Count stays the collection total, less
	// the members that vanished between the listing and their view.
	_ = enc.Encode(expandedHead{
		ODataID:   coll.ODataID,
		ODataType: coll.ODataType,
		Name:      coll.Name,
		Count:     coll.Count - (len(coll.Members) - found),
	})
	out.Truncate(out.Len() - len("}\n")) // reopen the object for Members
	out.WriteString(`,"Members":[`)
	out.Write(members.Bytes())
	out.WriteByte(']')
	if nextLink != "" {
		out.WriteString(`,"Members@odata.nextLink":`)
		_ = enc.Encode(nextLink)
		out.Truncate(out.Len() - len("\n"))
	}
	out.WriteString("}\n")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out.Bytes())
}

func (s *Service) handlePost(w http.ResponseWriter, r *http.Request, id odata.ID) {
	switch {
	case id == SystemsURI && s.systemComposer() != nil:
		s.postComposeSystem(w, r)
	case id == SessionsURI:
		s.postSession(w, r)
	case id == SubscriptionsURI:
		s.postSubscription(w, r)
	case id == AggregationSourcesURI:
		s.postAggregationSource(w, r)
	case s.isFabricCollection(id, "Zones"):
		s.postZone(w, r, id)
	case s.isFabricCollection(id, "Connections"):
		s.postConnection(w, r, id)
	case s.store.IsCollection(id) && s.ownedByProvisioner(id):
		s.postProvision(w, r, id)
	case s.store.IsCollection(id) && s.cfg.DirectWrites:
		s.postGeneric(w, r, id)
	case s.store.IsCollection(id):
		s.error(w, r, http.StatusMethodNotAllowed, "Base.1.0.OperationNotAllowed", "collection does not accept POST")
	default:
		s.error(w, r, http.StatusMethodNotAllowed, "Base.1.0.OperationNotAllowed", "resource does not accept POST")
	}
}

// ownedByProvisioner reports whether id lies in a subtree whose agent can
// provision resources.
func (s *Service) ownedByProvisioner(id odata.ID) bool {
	_, _, err := s.provisionerFor(id)
	return err == nil
}

func (s *Service) postProvision(w http.ResponseWriter, r *http.Request, coll odata.ID) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	uri, err := s.ProvisionResource(r.Context(), coll, body)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	s.created(w, r, uri)
}

// created answers 201 with the stored resource at uri, which an agent or
// the composer has just published, and its Location.
func (s *Service) created(w http.ResponseWriter, r *http.Request, uri odata.ID) {
	raw, _, err := s.store.Get(uri)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	w.Header().Set("Location", string(uri))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_, _ = w.Write(raw)
}

// isFabricCollection reports whether id is /redfish/v1/Fabrics/{f}/{leaf}.
func (s *Service) isFabricCollection(id odata.ID, leaf string) bool {
	if id.Leaf() != leaf {
		return false
	}
	fab := id.Parent()
	return fab.Parent() == FabricsURI
}

// readBody reads the request payload, bounded by maxBodyBytes. It is
// io.ReadAll with the buffer's first size taken from Content-Length, up
// to maxBodyPresize, and one byte more to see the end: a body within
// that is read into one allocation, where io.ReadAll would start at 512
// bytes and grow a 78 KB push about 18 times. Past it, the buffer grows
// as bytes arrive.
func (s *Service) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	lr := io.LimitedReader{R: r.Body, N: maxBodyBytes}
	body := make([]byte, 0, max(min(r.ContentLength, maxBodyPresize)+1, 512))
	for {
		n, err := lr.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err == io.EOF {
			return body, true
		}
		if err != nil {
			s.error(w, r, http.StatusBadRequest, "Base.1.0.MalformedJSON", "unreadable body")
			return nil, false
		}
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)]
		}
	}
}

func (s *Service) decode(w http.ResponseWriter, r *http.Request, out any) bool {
	body, ok := s.readBody(w, r)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, out); err != nil {
		s.error(w, r, http.StatusBadRequest, "Base.1.0.MalformedJSON", err.Error())
		return false
	}
	return true
}

// postComposeSystem realizes the DMTF specific-composition pattern: the
// POSTed payload describes the wanted system; the Composability Manager
// assembles it and the created system is returned.
func (s *Service) postComposeSystem(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	sysURI, err := s.systemComposer().ComposeSystem(r.Context(), body)
	switch {
	case errors.Is(err, ErrInvalidRequest):
		s.fail(w, r, err)
	case err != nil:
		s.error(w, r, http.StatusConflict, "OFMF.1.0.CompositionFailed", err.Error())
	default:
		s.created(w, r, sysURI)
	}
}

func (s *Service) postSession(w http.ResponseWriter, r *http.Request) {
	var creds struct {
		UserName string `json:"UserName"`
		Password string `json:"Password"`
	}
	if !s.decode(w, r, &creds) {
		return
	}
	sess, err := s.sessions.Login(r.Context(), creds.UserName, creds.Password)
	switch {
	case errors.Is(err, sessions.ErrInvalidCredentials):
		s.error(w, r, http.StatusUnauthorized, "Base.1.0.NoValidSession", "invalid credentials")
		return
	case err != nil:
		s.fail(w, r, err)
		return
	}
	// The reply is the stored Session, which holds the token's hash;
	// the token itself travels only in the X-Auth-Token header.
	uri := SessionsURI.Append(sess.ID)
	raw, _, err := s.store.Get(uri)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	w.Header().Set("X-Auth-Token", sess.Token)
	w.Header().Set("Location", string(uri))
	s.json(w, http.StatusCreated, raw)
}

func (s *Service) postSubscription(w http.ResponseWriter, r *http.Request) {
	var dest redfish.EventDestination
	if !s.decode(w, r, &dest) {
		return
	}
	if dest.Destination == "" {
		s.error(w, r, http.StatusBadRequest, "Base.1.0.PropertyMissing", "Destination is required")
		return
	}
	// A string no delivery could ever reach is refused now instead of
	// failing every event later.
	if _, err := events.NewHTTPSink(dest.Destination); err != nil {
		s.error(w, r, http.StatusBadRequest, "Base.1.0.PropertyValueFormatError", err.Error())
		return
	}
	var uri odata.ID
	_, err := s.createInCollection(r.Context(), SubscriptionsURI, func(_ context.Context, u odata.ID) (any, error) {
		uri = u
		dest.Resource = odata.NewResource(u, redfish.TypeEventDestination, "Subscription "+u.Leaf())
		dest.Protocol = "Redfish"
		dest.Status = odata.StatusOK()
		return dest, nil
	})
	if err != nil {
		// No resource, no subscription: a create the log refused leaves
		// the tree, and with it the bus, so nothing keeps delivering to a
		// destination no client was told about.
		_ = s.store.Delete(uri)
		s.fail(w, r, err)
		return
	}
	w.Header().Set("Location", string(uri))
	s.json(w, http.StatusCreated, dest)
}

// subscription is what of a stored EventDestination shapes its bus
// subscription.
type subscription struct {
	Destination          string
	Context              string
	EventTypes           []string
	OriginResources      []odata.Ref
	SubordinateResources bool
}

// applySubscription brings the bus to the stored EventDestination at id
// (raw nil: deleted); its store.Projection calls it with s.subsMu held. A
// changed destination, filter or context replaces the bus subscription.
// Bus.Set keeps an unchanged one, so any other change — the
// Status.Health PATCHes OnDeliveryFailure writes — leaves it, its queue
// and its failure count alone. Bus.Set never waits for a delivery
// worker, so a failure callback re-entering here from a worker cannot
// deadlock against it.
func (s *Service) applySubscription(id odata.ID, raw json.RawMessage) {
	var dest subscription
	if raw != nil && json.Unmarshal(raw, &dest) == nil {
		if sink, err := events.NewHTTPSink(dest.Destination); err == nil {
			filter := events.Filter{
				EventTypes:  dest.EventTypes,
				Origins:     odata.IDsOf(dest.OriginResources),
				Subordinate: dest.SubordinateResources,
			}
			_, _ = s.bus.Set(id.Leaf(), sink, filter, dest.Context)
			return
		}
	}
	_, _ = s.bus.Set(id.Leaf(), nil, events.Filter{}, "")
}

// createInCollection atomically allocates the next id in coll, invokes
// build with the resulting URI (build may forward to an agent and mutate
// the payload), and stores the built resource. Allocation is serialized so
// concurrent POSTs never collide. The whole creation is one unit of work
// (store.Deferred): whatever the agent publishes under the context build
// receives and the final put share one durability wait, taken after
// allocMu is released.
func (s *Service) createInCollection(ctx context.Context, coll odata.ID, build func(ctx context.Context, uri odata.ID) (any, error)) (odata.ID, error) {
	var uri odata.ID
	err := s.store.Deferred(ctx, func(ctx context.Context) error {
		s.allocMu.Lock()
		defer s.allocMu.Unlock()
		uri = coll.Append(s.store.NextID(coll))
		v, err := build(ctx, uri)
		if err != nil {
			return err
		}
		// Put rather than Create: a provisioning agent has usually published
		// the new resource before build returned; allocation collisions are
		// excluded by allocMu.
		return s.store.PutCtx(ctx, uri, v)
	})
	if err != nil {
		return "", err
	}
	return uri, nil
}

func (s *Service) postAggregationSource(w http.ResponseWriter, r *http.Request) {
	var src redfish.AggregationSource
	if !s.decode(w, r, &src) {
		return
	}
	// The stored source is all it takes: the AggregationSources
	// projection forwards a remote agent's claimed subtrees to its
	// callback URL (see LivenessSweeper).
	src, created, err := s.RegisterAggregationSource(r.Context(), src)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	w.Header().Set("Location", string(src.ODataID))
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	s.json(w, status, src)
}

func (s *Service) postZone(w http.ResponseWriter, r *http.Request, coll odata.ID) {
	var zone redfish.Zone
	if !s.decode(w, r, &zone) {
		return
	}
	zone, err := s.CreateZone(r.Context(), coll, zone)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	w.Header().Set("Location", string(zone.ODataID))
	s.json(w, http.StatusCreated, zone)
}

func (s *Service) postConnection(w http.ResponseWriter, r *http.Request, coll odata.ID) {
	var conn redfish.Connection
	if !s.decode(w, r, &conn) {
		return
	}
	conn, err := s.CreateConnection(r.Context(), coll, conn)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	w.Header().Set("Location", string(conn.ODataID))
	s.json(w, http.StatusCreated, conn)
}

func (s *Service) postGeneric(w http.ResponseWriter, r *http.Request, coll odata.ID) {
	var payload map[string]any
	if !s.decode(w, r, &payload) {
		return
	}
	uri, err := s.createInCollection(r.Context(), coll, func(_ context.Context, uri odata.ID) (any, error) {
		payload["@odata.id"] = string(uri)
		if _, ok := payload["Id"]; !ok {
			payload["Id"] = uri.Leaf()
		}
		return payload, nil
	})
	if err != nil {
		s.fail(w, r, err)
		return
	}
	w.Header().Set("Location", string(uri))
	s.json(w, http.StatusCreated, payload)
}

func (s *Service) handlePatch(w http.ResponseWriter, r *http.Request, id odata.ID) {
	if s.store.IsCollection(id) {
		s.error(w, r, http.StatusMethodNotAllowed, "Base.1.0.OperationNotAllowed", "collections cannot be patched")
		return
	}
	var patch map[string]any
	if !s.decode(w, r, &patch) {
		return
	}
	if _, _, owned := s.handlerFor(id); id.Under(SessionsURI) || !owned && !s.cfg.DirectWrites && !s.patchableAlways(id) {
		// A Session is what authentication trusts, so only login and
		// logout write one.
		s.error(w, r, http.StatusMethodNotAllowed, "Base.1.0.OperationNotAllowed", "resource is read-only")
		return
	}
	if id.Parent() == SubscriptionsURI {
		if err := checkSubscriptionPatch(patch); err != nil {
			s.error(w, r, http.StatusBadRequest, "Base.1.0.PropertyValueFormatError", err.Error())
			return
		}
	}
	// The reply is the bytes and entity tag the patch just wrote, not a
	// second lookup that a concurrent writer could get in front of.
	raw, etag, err := s.patchResource(r.Context(), id, patch, r.Header.Get("If-Match"))
	if err != nil {
		s.fail(w, r, err)
		return
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(raw)
}

// checkSubscriptionPatch refuses what a POST would refuse: a property of
// the wrong type or a Destination no delivery could reach. Stored, either
// would silently drop the bus subscription.
func checkSubscriptionPatch(patch map[string]any) error {
	raw, _ := json.Marshal(patch) // decoded JSON always encodes
	var dest subscription
	err := json.Unmarshal(raw, &dest)
	if _, ok := patch["Destination"]; ok && err == nil {
		_, err = events.NewHTTPSink(dest.Destination)
	}
	return err
}

// patchableAlways lists resources clients may patch even without
// DirectWrites: their own subscriptions, and aggregation sources (agents
// refresh their heartbeat there).
func (s *Service) patchableAlways(id odata.ID) bool {
	return id.Parent() == SubscriptionsURI || id.Parent() == AggregationSourcesURI
}

func (s *Service) handleDelete(w http.ResponseWriter, r *http.Request, id odata.ID) {
	if s.store.IsCollection(id) {
		s.error(w, r, http.StatusMethodNotAllowed, "Base.1.0.OperationNotAllowed", "collections cannot be deleted")
		return
	}
	parent := id.Parent()
	switch {
	case parent == SessionsURI || parent == SubscriptionsURI:
		// Deleting the resource is the whole logout or unsubscribe: the
		// session table and the bus are projections of the tree.
	case parent == AggregationSourcesURI:
		// Deleting an aggregation source also drops the subtrees it holds
		// in the handler index: not a stored claim the index refused.
		for _, prefix := range s.liveness.held(id) {
			if _, err := s.store.DeleteSubtreeCtx(r.Context(), prefix); err != nil {
				s.fail(w, r, err)
				return
			}
		}
	default:
		// DELETE of a composed system routes through the Composability
		// Manager, releasing its resources; a system it did not compose is
		// deleted like any other resource.
		if parent == SystemsURI && s.systemComposer() != nil {
			switch err := s.systemComposer().DecomposeSystem(r.Context(), id); {
			case err == nil:
				w.WriteHeader(http.StatusNoContent)
				return
			case !errors.Is(err, store.ErrNotFound):
				s.error(w, r, http.StatusConflict, "OFMF.1.0.DecompositionFailed", err.Error())
				return
			}
		}
		if _, h, ok := s.handlerFor(id); ok {
			var err error
			switch {
			case parent.Leaf() == "Connections":
				err = s.DeleteConnection(r.Context(), id)
			case parent.Leaf() == "Zones":
				err = s.DeleteZone(r.Context(), id)
			default:
				if _, ok := h.(ResourceProvisioner); ok {
					err = s.DeprovisionResource(r.Context(), id)
				} else {
					s.error(w, r, http.StatusMethodNotAllowed, "Base.1.0.OperationNotAllowed", "agent-owned resource cannot be deleted")
					return
				}
			}
			if err != nil {
				s.fail(w, r, err)
				return
			}
			w.WriteHeader(http.StatusNoContent)
			return
		} else if !s.cfg.DirectWrites {
			s.error(w, r, http.StatusMethodNotAllowed, "Base.1.0.OperationNotAllowed", "resource is read-only")
			return
		}
	}
	if err := s.store.DeleteCtx(r.Context(), id); err != nil {
		s.fail(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// json encodes v into a pooled buffer and writes it in one shot, so slow
// clients never stall inside the encoder and the hot path avoids
// per-response encoder allocations.
func (s *Service) json(w http.ResponseWriter, status int, v any) {
	buf := getBuf()
	defer putBuf(buf)
	_ = json.NewEncoder(buf).Encode(v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// error emits the Redfish extended-error envelope. Every error body
// carries a @Message.ExtendedInfo entry whose MessageId repeats the
// message registry code, so clients get one consistent shape regardless
// of which handler failed; the failure is also logged with the request id.
func (s *Service) error(w http.ResponseWriter, r *http.Request, status int, code, message string) {
	s.json(w, status, RedfishError(status, code, message))
	if r != nil {
		s.log.LogAttrs(r.Context(), slog.LevelDebug, "request error",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.String("code", code),
			slog.String("message", message),
		)
	}
}

// RedfishError builds the extended-error envelope used for every failed
// request, including the consistent @Message.ExtendedInfo entry.
func RedfishError(status int, code, message string) odata.ErrorEnvelope {
	return odata.NewError(code, message, odata.Message{
		MessageID:  code,
		Message:    message,
		Severity:   severityFor(status),
		Resolution: "None",
	})
}

// severityFor maps an HTTP status to the Redfish message severity.
func severityFor(status int) string {
	switch {
	case status >= 500:
		return "Critical"
	case status >= 400:
		return "Warning"
	}
	return "OK"
}

// fail maps an operation's error to its HTTP reply: the one place that
// decides status and message registry code for store errors, agent
// refusals and requests refused as invalid or conflicting.
func (s *Service) fail(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case IsAgentError(err):
		s.error(w, r, http.StatusBadRequest, "OFMF.1.0.AgentRejectedRequest", fmt.Sprintf("fabric agent rejected request: %v", err))
	case errors.Is(err, ErrInvalidRequest):
		s.error(w, r, http.StatusBadRequest, "Base.1.0.PropertyValueError", err.Error())
	case errors.Is(err, ErrPrefixConflict):
		s.error(w, r, http.StatusConflict, "Base.1.0.ResourceInUse", err.Error())
	case errors.Is(err, store.ErrNotFound), errors.Is(err, store.ErrNotCollection):
		s.error(w, r, http.StatusNotFound, "Base.1.0.ResourceMissingAtURI", err.Error())
	case errors.Is(err, store.ErrEtagMismatch):
		s.error(w, r, http.StatusPreconditionFailed, "Base.1.0.PreconditionFailed", err.Error())
	case errors.Is(err, store.ErrExists):
		s.error(w, r, http.StatusConflict, "Base.1.0.ResourceAlreadyExists", err.Error())
	case errors.Is(err, store.ErrBadPayload):
		s.error(w, r, http.StatusBadRequest, "Base.1.0.MalformedJSON", err.Error())
	default:
		s.error(w, r, http.StatusInternalServerError, "Base.1.0.InternalError", err.Error())
	}
}
