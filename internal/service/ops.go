package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"path"
	"strings"
	"time"

	"ofmf/internal/obsv"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/store"
)

// Sentinel errors for requests refused before any resource is touched.
var (
	// ErrInvalidRequest marks content the service cannot use: a composed
	// system's name that is not one path segment, a claim on a subtree no
	// agent may own. It maps to 400.
	ErrInvalidRequest = errors.New("invalid request")
	// ErrPrefixConflict marks a claim or handler whose subtree another
	// source or handler serves, or nests with one it serves. It maps to
	// 409.
	ErrPrefixConflict = errors.New("service: subtree already has a handler")
)

// AgentError wraps a rejection from a fabric agent so callers can
// distinguish hardware-level refusals from store errors.
type AgentError struct{ Err error }

// Error returns the wrapped message.
func (e *AgentError) Error() string { return fmt.Sprintf("agent rejected request: %v", e.Err) }

// Unwrap exposes the underlying agent error.
func (e *AgentError) Unwrap() error { return e.Err }

// IsAgentError reports whether err originated from a fabric agent.
func IsAgentError(err error) bool {
	var ae *AgentError
	return errors.As(err, &ae)
}

// forward runs one operation on the agent registered under prefix (see
// handlerFor): timed into the ofmf_agent_* metrics under the prefix's
// leaf, traced as agent.<op>, logged at debug with the request id. call
// gets the (possibly span-carrying) context to pass on. A refusal comes
// back as *AgentError, which createInCollection and store.Deferred hand
// on untouched (fn's error wins).
func (s *Service) forward(ctx context.Context, prefix odata.ID, op string, call func(ctx context.Context) error) error {
	ctx, span := s.tracer.StartIfTraced(ctx, "agent."+op)
	span.SetAttr("fabric", string(prefix))
	start := time.Now()
	err := call(ctx)
	elapsed := time.Since(start)
	span.EndErr(err)
	outcome := obsv.Outcome(err)
	s.metrics.AgentOps.With(prefix.Leaf(), op, outcome).Inc()
	s.metrics.AgentOpDuration.With(prefix.Leaf(), op).Observe(elapsed.Seconds())
	s.log.LogAttrs(ctx, slog.LevelDebug, "agent op",
		slog.String("fabric", string(prefix)),
		slog.String("op", op),
		slog.String("outcome", outcome),
		slog.Duration("duration", elapsed),
	)
	if err != nil {
		return &AgentError{Err: err}
	}
	return nil
}

// RegisterAggregationSource registers an agent's aggregation source,
// returning the stored source and whether it was newly created (false
// means an existing source was revived).
//
// A source is revived in place — same URI, the new HostName, Status OK,
// a fresh heartbeat — when it holds the same non-empty set of claims
// (an agent restarted on another port), or else when it was registered
// from the same HostName: agents retry the POST through their resilient
// transport, and a retry of a POST that in fact succeeded must not mint
// a duplicate. A claim that overlaps a subtree another source or
// handler serves, including one equal to a claim of a source claiming a
// different set, is ErrPrefixConflict. The match and the create run
// under allocMu, and the store notifies the AggregationSources
// projection (LivenessSweeper) on the mutating goroutine, so by the time
// allocMu is released its indexes reflect this registration.
func (s *Service) RegisterAggregationSource(ctx context.Context, src redfish.AggregationSource) (redfish.AggregationSource, bool, error) {
	start := time.Now()
	created, err := s.registerSourceLocked(ctx, &src)
	outcome := "created"
	switch {
	case err != nil:
		outcome = "error"
	case !created:
		outcome = "revived"
	}
	s.metrics.Registrations.With(outcome).Inc()
	s.metrics.RegistrationSeconds.Observe(time.Since(start).Seconds())
	return src, created, err
}

// claimable reports whether an aggregation source may claim the subtree
// rooted at id: a clean path strictly below a top-level collection
// (/redfish/v1/Fabrics/CXL, never /redfish/v1/Systems itself or a
// service's own resources). Claims route forwarded operations and are
// what deleting the source removes, and they arrive from outside.
func (s *Service) claimable(id odata.ID) bool {
	rel, ok := strings.CutPrefix(string(id), string(RootURI)+"/")
	if !ok || path.Clean(string(id)) != string(id) {
		return false
	}
	top, _, below := strings.Cut(rel, "/")
	return below && s.store.IsCollection(RootURI.Append(top))
}

// registerSourceLocked is RegisterAggregationSource's critical section:
// the claims checked, the source they name revived or a new one
// created, the store write, all under allocMu.
func (s *Service) registerSourceLocked(ctx context.Context, src *redfish.AggregationSource) (bool, error) {
	claims := odata.IDsOf(src.Links.ResourcesAccessed)
	for _, c := range claims {
		if !s.claimable(c) {
			return false, fmt.Errorf("%w: ResourcesAccessed %q is not a subtree below a top-level collection", ErrInvalidRequest, c)
		}
	}
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	uri, err := s.liveness.match(src.HostName, claims)
	if err != nil {
		return false, err
	}
	if src.HostName != "" {
		// A remote source is stored with a heartbeat, so its staleness is
		// measured from the tree: a source re-created at a URI starts
		// fresh, and one that never beats still goes stale.
		if src.Oem.OFMF == nil {
			src.Oem.OFMF = &redfish.AgentDescriptor{}
		}
		if src.Oem.OFMF.LastHeartbeat == "" {
			src.Oem.OFMF.LastHeartbeat = redfish.Timestamp(s.liveness.clock())
		}
	}
	if uri != "" {
		var existing redfish.AggregationSource
		if err := s.store.GetAs(uri, &existing); err == nil {
			src.Resource = existing.Resource
			if src.Name == "" {
				src.Name = existing.Name
			}
			src.Status = odata.StatusOK()
			return false, s.store.PutCtx(ctx, uri, *src)
		}
	}
	id := s.store.NextID(AggregationSourcesURI)
	uri = AggregationSourcesURI.Append(id)
	name := src.Name
	if name == "" {
		name = "Agent " + id
	}
	src.Resource = odata.NewResource(uri, redfish.TypeAggregationSource, name)
	src.Status = odata.StatusOK()
	return true, s.store.PutCtx(ctx, uri, *src)
}

// ResourceProvisioner is an optional extension of FabricHandler: agents
// whose hardware can provision resources (memory chunks, volumes, GPU
// partitions) implement it so POSTs to their collections carve real
// capacity. The returned value is stored at the allocated URI.
type ResourceProvisioner interface {
	CreateResource(ctx context.Context, coll, uri odata.ID, payload json.RawMessage) (any, error)
	DeleteResource(ctx context.Context, id odata.ID) error
}

// CreateZone creates a zone in the given zone collection, forwarding to
// the owning agent when one is registered.
func (s *Service) CreateZone(ctx context.Context, coll odata.ID, zone redfish.Zone) (redfish.Zone, error) {
	_, err := s.createInCollection(ctx, coll, func(ctx context.Context, uri odata.ID) (any, error) {
		name := zone.Name
		if name == "" {
			name = "Zone " + uri.Leaf()
		}
		zone.Resource = odata.NewResource(uri, redfish.TypeZone, name)
		if zone.ZoneType == "" {
			zone.ZoneType = redfish.ZoneTypeZoneOfEndpoints
		}
		zone.Status = odata.StatusOK()
		if prefix, h, ok := s.handlerFor(uri); ok {
			if err := s.forward(ctx, prefix, "CreateZone", func(ctx context.Context) error {
				return h.CreateZone(ctx, &zone)
			}); err != nil {
				return nil, err
			}
		}
		return zone, nil
	})
	return zone, err
}

// CreateConnection creates a connection in the given collection,
// forwarding to the owning agent so the hardware attachment is made
// before the resource becomes visible.
func (s *Service) CreateConnection(ctx context.Context, coll odata.ID, conn redfish.Connection) (redfish.Connection, error) {
	_, err := s.createInCollection(ctx, coll, func(ctx context.Context, uri odata.ID) (any, error) {
		name := conn.Name
		if name == "" {
			name = "Connection " + uri.Leaf()
		}
		conn.Resource = odata.NewResource(uri, redfish.TypeConnection, name)
		conn.Status = odata.StatusOK()
		if prefix, h, ok := s.handlerFor(uri); ok {
			if err := s.forward(ctx, prefix, "CreateConnection", func(ctx context.Context) error {
				return h.CreateConnection(ctx, &conn)
			}); err != nil {
				return nil, err
			}
		}
		return conn, nil
	})
	return conn, err
}

// deleteForwarded removes id once the agent owning it, if any, has done
// its part (call). Deletion is serialized with id allocation so a freed
// URI cannot be reused until the old resource is fully gone, and it is
// one unit of work (store.Deferred): the agent's publishes and the store
// delete share one durability wait, taken after allocMu is released.
func (s *Service) deleteForwarded(ctx context.Context, id odata.ID, op string, call func(ctx context.Context, h FabricHandler) error) error {
	return s.store.Deferred(ctx, func(ctx context.Context) error {
		s.allocMu.Lock()
		defer s.allocMu.Unlock()
		if prefix, h, ok := s.handlerFor(id); ok {
			if err := s.forward(ctx, prefix, op, func(ctx context.Context) error { return call(ctx, h) }); err != nil {
				return err
			}
		}
		return s.store.DeleteCtx(ctx, id)
	})
}

// DeleteZone removes a zone, the owning agent first.
func (s *Service) DeleteZone(ctx context.Context, id odata.ID) error {
	return s.deleteForwarded(ctx, id, "DeleteZone", func(ctx context.Context, h FabricHandler) error {
		return h.DeleteZone(ctx, id)
	})
}

// DeleteConnection tears down a connection, the owning agent first so
// the hardware detachment precedes the resource's disappearance.
func (s *Service) DeleteConnection(ctx context.Context, id odata.ID) error {
	return s.deleteForwarded(ctx, id, "DeleteConnection", func(ctx context.Context, h FabricHandler) error {
		return h.DeleteConnection(ctx, id)
	})
}

// PatchResource applies a patch, forwarding to the owning agent for
// agent-owned resources (one unit of work around whatever the agent
// publishes). For store-resident resources the patch is applied directly
// with optional If-Match semantics: one mutation, its own wait.
func (s *Service) PatchResource(ctx context.Context, id odata.ID, patch map[string]any, ifMatch string) error {
	_, _, err := s.patchResource(ctx, id, patch, ifMatch)
	return err
}

// patchResource is PatchResource returning what a reply needs: the
// resource as the patch left it (the store's own bytes, read-only) and
// its entity tag. A store-resident resource's come from the mutation
// itself; an agent's publish is read back.
func (s *Service) patchResource(ctx context.Context, id odata.ID, patch map[string]any, ifMatch string) (json.RawMessage, string, error) {
	prefix, h, ok := s.handlerFor(id)
	if !ok {
		return s.store.PatchReturning(ctx, id, patch, ifMatch)
	}
	err := s.store.Deferred(ctx, func(ctx context.Context) error {
		return s.forward(ctx, prefix, "Patch", func(ctx context.Context) error {
			return h.Patch(ctx, id, patch)
		})
	})
	if err != nil {
		return nil, "", err
	}
	return s.store.Get(id)
}

// provisionerFor returns the provisioning agent whose subtree holds id
// and the prefix it serves.
func (s *Service) provisionerFor(id odata.ID) (odata.ID, ResourceProvisioner, error) {
	prefix, h, ok := s.handlerFor(id)
	if !ok {
		return "", nil, fmt.Errorf("service: no agent owns %s", id)
	}
	prov, ok := h.(ResourceProvisioner)
	if !ok {
		return "", nil, fmt.Errorf("service: agent for %s cannot provision resources", id)
	}
	return prefix, prov, nil
}

// ProvisionResource creates a resource in an agent-owned collection by
// forwarding to the agent's provisioner; the agent carves real capacity
// and returns the resource to store. It fails when the owning agent does
// not support provisioning.
func (s *Service) ProvisionResource(ctx context.Context, coll odata.ID, payload json.RawMessage) (odata.ID, error) {
	prefix, prov, err := s.provisionerFor(coll)
	if err != nil {
		return "", err
	}
	return s.createInCollection(ctx, coll, func(ctx context.Context, uri odata.ID) (any, error) {
		var res any
		err := s.forward(ctx, prefix, "CreateResource", func(ctx context.Context) error {
			var err error
			res, err = prov.CreateResource(ctx, coll, uri, payload)
			return err
		})
		return res, err
	})
}

// DeprovisionResource deletes an agent-provisioned resource, releasing
// the hardware capacity first. Serialized with id allocation so the
// trailing store delete can never clobber a reused URI's new resource.
// An id the tree does not hold is not found, whatever the agent holds.
func (s *Service) DeprovisionResource(ctx context.Context, id odata.ID) error {
	return s.store.Deferred(ctx, func(ctx context.Context) error {
		s.allocMu.Lock()
		defer s.allocMu.Unlock()
		prefix, prov, err := s.provisionerFor(id)
		if err != nil {
			return err
		}
		if !s.store.Exists(id) {
			return fmt.Errorf("%w: %s", store.ErrNotFound, id)
		}
		if err := s.forward(ctx, prefix, "DeleteResource", func(ctx context.Context) error {
			return prov.DeleteResource(ctx, id)
		}); err != nil {
			return err
		}
		// The agent's publish has usually dropped the resource already.
		if err := s.store.DeleteCtx(ctx, id); err != nil && !errors.Is(err, store.ErrNotFound) {
			return err
		}
		return nil
	})
}
