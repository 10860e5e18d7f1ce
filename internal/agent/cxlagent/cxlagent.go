// Package cxlagent implements the OFMF Agent for CXL fabric-attached
// memory. It publishes a CXL fabric subtree (switch, ports, endpoints,
// zones, connections) and a memory-appliance chassis subtree (memory
// devices, a memory domain, carved memory chunks) into the OFMF tree, and
// translates forwarded OFMF operations into cxlsim appliance operations:
// a Connection binds a memory chunk to a host port; a MemoryChunks POST
// carves capacity.
package cxlagent

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"ofmf/internal/agent"
	"ofmf/internal/emul/cxlsim"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
)

// Sentinel errors.
var (
	ErrUnknownEndpoint = errors.New("cxlagent: unknown endpoint")
	ErrUnknownChunk    = errors.New("cxlagent: unknown memory chunk")
	ErrBadConnection   = errors.New("cxlagent: connection must name one initiator endpoint and one memory chunk")
	ErrUnsupported     = errors.New("cxlagent: unsupported operation")
)

// Agent is the CXL fabric agent.
type Agent struct {
	conn      agent.Conn
	appliance *cxlsim.Appliance

	fabricID  odata.ID
	chassisID odata.ID
	domainID  odata.ID

	// pubMu serializes every publish — the full Publish and the handler
	// ops' touched-resource publishes, each of which snapshots the hardware
	// inside it — so a stale snapshot can never overwrite a newer one in
	// the OFMF store (which would delete freshly provisioned resources and
	// let their URIs be reused).
	pubMu sync.Mutex

	mu sync.Mutex
	// chunkByURI maps MemoryChunks resource URIs to appliance chunk ids.
	chunkByURI map[odata.ID]string
	// bindings maps Connection URIs to the (chunk, port) pairs they bound.
	bindings map[odata.ID][]binding
	// eventSeq numbers forwarded hardware events.
	eventSeq  int
	sourceURI odata.ID
}

type binding struct {
	uri   odata.ID // the chunk's MemoryChunks resource
	chunk string
	port  string
}

// New creates a CXL agent for the given appliance. fabricName and
// chassisName choose the subtree leaf names (e.g. "CXL",
// "CXLMemoryAppliance").
func New(conn agent.Conn, appliance *cxlsim.Appliance, fabricName, chassisName string) *Agent {
	a := &Agent{
		conn:       conn,
		appliance:  appliance,
		fabricID:   service.FabricsURI.Append(fabricName),
		chassisID:  service.ChassisURI.Append(chassisName),
		chunkByURI: make(map[odata.ID]string),
		bindings:   make(map[odata.ID][]binding),
	}
	a.domainID = a.chassisID.Append("MemoryDomains", "Domain0")
	return a
}

// FabricID returns the fabric subtree root the agent owns.
func (a *Agent) FabricID() odata.ID { return a.fabricID }

// SourceURI returns the AggregationSource resource created at Start,
// used for heartbeat refreshes.
func (a *Agent) SourceURI() odata.ID {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sourceURI
}

// ChassisID returns the chassis subtree root the agent owns.
func (a *Agent) ChassisID() odata.ID { return a.chassisID }

// Start registers the agent with the OFMF, attaches it as the handler of
// both subtrees, and publishes the initial resource state (agent.Start).
func (a *Agent) Start() error {
	uri, err := agent.Start(a.conn, "CXL Agent ("+a.fabricID.Leaf()+")", redfish.ProtocolCXL,
		[]odata.ID{a.fabricID, a.chassisID}, a.Collections(), a, func() error {
			a.appliance.Subscribe(a.onHardwareEvent)
			return a.Publish()
		})
	a.mu.Lock()
	a.sourceURI = uri
	a.mu.Unlock()
	return err
}

// Stop detaches the agent's handlers.
func (a *Agent) Stop() { agent.Stop(a.conn, a.fabricID, a.chassisID) }

func (a *Agent) onHardwareEvent(ev cxlsim.Event) {
	a.mu.Lock()
	a.eventSeq++
	id := fmt.Sprintf("cxl-%d", a.eventSeq)
	a.mu.Unlock()
	rec := redfish.EventRecord{
		EventType: redfish.EventAlert,
		EventID:   id,
		Message:   fmt.Sprintf("cxl appliance: %s chunk=%s port=%s", ev.Kind, ev.Chunk, ev.Port),
		MessageID: "OFMF.1.0.CXL" + ev.Kind,
		Severity:  "OK",
	}
	a.conn.PublishEvent(rec)
}

// endpoint URIs: host ports and memory devices each get an endpoint.
func (a *Agent) hostEndpointURI(port string) odata.ID {
	return a.fabricID.Append("Endpoints", port)
}

func (a *Agent) deviceEndpointURI(dev string) odata.ID {
	return a.fabricID.Append("Endpoints", dev)
}

// portFromEndpoint maps an initiator endpoint URI back to an appliance
// port id.
func (a *Agent) portFromEndpoint(ep odata.ID) (string, error) {
	if ep.Parent() != a.fabricID.Append("Endpoints") {
		return "", fmt.Errorf("%w: %s", ErrUnknownEndpoint, ep)
	}
	leaf := ep.Leaf()
	for _, p := range a.appliance.Ports() {
		if p == leaf {
			return p, nil
		}
	}
	return "", fmt.Errorf("%w: %s", ErrUnknownEndpoint, ep)
}

// CreateConnection binds the referenced memory chunk to the initiator
// endpoint's port.
func (a *Agent) CreateConnection(ctx context.Context, conn *redfish.Connection) error {
	if len(conn.Links.InitiatorEndpoints) == 0 || len(conn.MemoryChunkInfo) == 0 {
		return ErrBadConnection
	}
	var binds []binding
	undo := func() {
		for _, b := range binds {
			_ = a.appliance.Unbind(b.chunk, b.port)
		}
	}
	for _, info := range conn.MemoryChunkInfo {
		if info.MemoryChunk == nil {
			undo()
			return ErrBadConnection
		}
		a.mu.Lock()
		chunk, ok := a.chunkByURI[info.MemoryChunk.ODataID]
		a.mu.Unlock()
		if !ok {
			undo()
			return fmt.Errorf("%w: %s", ErrUnknownChunk, info.MemoryChunk.ODataID)
		}
		for _, ini := range conn.Links.InitiatorEndpoints {
			port, err := a.portFromEndpoint(ini.ODataID)
			if err != nil {
				undo()
				return err
			}
			if err := a.appliance.Bind(chunk, port); err != nil {
				undo()
				return fmt.Errorf("cxlagent: bind %s to %s: %w", chunk, port, err)
			}
			binds = append(binds, binding{uri: info.MemoryChunk.ODataID, chunk: chunk, port: port})
		}
	}
	conn.ConnectionType = "Memory"
	a.mu.Lock()
	a.bindings[conn.ODataID] = binds
	a.mu.Unlock()
	return a.publishBound(ctx, binds)
}

// DeleteConnection unbinds everything the connection bound.
func (a *Agent) DeleteConnection(ctx context.Context, id odata.ID) error {
	// A connection made before the agent restarted has no bindings to undo.
	a.mu.Lock()
	binds := a.bindings[id]
	delete(a.bindings, id)
	a.mu.Unlock()
	var firstErr error
	for _, b := range binds {
		if err := a.appliance.Unbind(b.chunk, b.port); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return a.publishBound(ctx, binds)
}

// publishBound publishes the chunks a connection bound or unbound, with
// their current bindings.
func (a *Agent) publishBound(ctx context.Context, binds []binding) error {
	a.pubMu.Lock()
	defer a.pubMu.Unlock()
	touched := make(map[odata.ID]any, len(binds))
	for _, b := range binds {
		if _, done := touched[b.uri]; done {
			continue
		}
		c, err := a.appliance.Chunk(b.chunk)
		if err != nil {
			continue // released since; its DeleteResource dropped it
		}
		touched[b.uri] = a.chunkResource(b.uri, c)
	}
	return agent.PublishTouched(ctx, a.conn, a.chassisID, touched)
}

// CreateZone accepts the zone: CXL zoning is realized through bindings.
func (a *Agent) CreateZone(context.Context, *redfish.Zone) error { return nil }

// DeleteZone has nothing to undo.
func (a *Agent) DeleteZone(context.Context, odata.ID) error { return nil }

// Patch rejects hardware property changes the appliance cannot make.
func (a *Agent) Patch(_ context.Context, id odata.ID, patch map[string]any) error {
	return fmt.Errorf("%w: PATCH %s", ErrUnsupported, id)
}

// chunkRequest is the accepted payload for MemoryChunks provisioning.
type chunkRequest struct {
	MemoryChunkSizeMiB int64 `json:"MemoryChunkSizeMiB"`
	Oem                struct {
		OFMF struct {
			MaxHeads int    `json:"MaxHeads"`
			Device   string `json:"Device"`
		} `json:"OFMF"`
	} `json:"Oem"`
}

// CreateResource provisions a memory chunk when the target collection is
// the agent's MemoryChunks collection.
func (a *Agent) CreateResource(ctx context.Context, coll, uri odata.ID, payload json.RawMessage) (any, error) {
	if coll != a.domainID.Append("MemoryChunks") {
		return nil, fmt.Errorf("%w: POST %s", ErrUnsupported, coll)
	}
	var req chunkRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("cxlagent: bad chunk request: %w", err)
	}
	if req.MemoryChunkSizeMiB <= 0 {
		return nil, fmt.Errorf("cxlagent: MemoryChunkSizeMiB must be positive")
	}
	var chunkID string
	var err error
	if req.Oem.OFMF.Device != "" {
		chunkID, err = a.appliance.Carve(req.Oem.OFMF.Device, req.MemoryChunkSizeMiB, req.Oem.OFMF.MaxHeads)
	} else {
		chunkID, err = a.appliance.CarveAny(req.MemoryChunkSizeMiB, req.Oem.OFMF.MaxHeads)
	}
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	a.chunkByURI[uri] = chunkID
	a.mu.Unlock()

	a.pubMu.Lock()
	defer a.pubMu.Unlock()
	c, err := a.appliance.Chunk(chunkID)
	if err != nil {
		return nil, err
	}
	res := a.chunkResource(uri, c)
	touched := map[odata.ID]any{uri: res}
	a.touchDevice(touched, c.Device)
	if err := agent.PublishTouched(ctx, a.conn, a.chassisID, touched); err != nil {
		return nil, err
	}
	return res, nil
}

// DeleteResource releases a carved memory chunk.
func (a *Agent) DeleteResource(ctx context.Context, id odata.ID) error {
	a.mu.Lock()
	chunkID, ok := a.chunkByURI[id]
	a.mu.Unlock()
	if !ok {
		return nil // carved before the agent restarted: nothing to release
	}
	c, err := a.appliance.Chunk(chunkID)
	if err != nil {
		return err
	}
	if err := a.appliance.Release(chunkID); err != nil {
		return err
	}
	a.mu.Lock()
	delete(a.chunkByURI, id)
	a.mu.Unlock()

	a.pubMu.Lock()
	defer a.pubMu.Unlock()
	touched := make(map[odata.ID]any, 1)
	a.touchDevice(touched, c.Device)
	return agent.PublishTouched(ctx, a.conn, a.chassisID, touched, id)
}

// The builders below render one resource each from a hardware snapshot.
// Publish and the handler ops both go through them, so a handler op's
// touched-resource publish and the next full Publish agree byte for byte.

// chunkResource renders a carved chunk with its current bindings.
func (a *Agent) chunkResource(uri odata.ID, c cxlsim.Chunk) redfish.MemoryChunks {
	res := redfish.MemoryChunks{
		Resource:           odata.NewResource(uri, redfish.TypeMemoryChunks, c.ID),
		MemoryChunkSizeMiB: c.SizeMiB,
		AddressRangeType:   "Volatile",
		Status:             odata.StatusOK(),
	}
	for _, p := range c.BoundPorts() {
		res.Links.Endpoints = append(res.Links.Endpoints, odata.NewRef(a.hostEndpointURI(p)))
	}
	return res
}

func (a *Agent) memoryURI(dev string) odata.ID { return a.chassisID.Append("Memory", dev) }

// memoryResource renders a memory device with its current allocation.
func (a *Agent) memoryResource(d cxlsim.Device) redfish.Memory {
	return redfish.Memory{
		Resource:         odata.NewResource(a.memoryURI(d.ID), redfish.TypeMemory, "CXL memory "+d.ID),
		MemoryType:       d.MediaType,
		MemoryDeviceType: "CXL",
		CapacityMiB:      d.CapacityMiB,
		AllocatedMiB:     d.AllocatedMiB(),
		Status:           odata.StatusOK(),
		Links: redfish.MemLinks{
			Endpoints: []odata.Ref{odata.NewRef(a.deviceEndpointURI(d.ID))},
		},
	}
}

// touchDevice adds the device's current state to touched: carving and
// releasing move its AllocatedMiB.
func (a *Agent) touchDevice(touched map[odata.ID]any, dev string) {
	if d, err := a.appliance.Device(dev); err == nil {
		touched[a.memoryURI(d.ID)] = a.memoryResource(d)
	}
}

// Publish rebuilds and pushes the agent's complete resource subtrees from
// current appliance state: the reconciliation path, run at Start and
// whenever the tree may have drifted from the hardware. Handler ops
// publish only what they touched. Publishes are serialized: the snapshot
// is taken inside the critical section, so store contents advance
// monotonically.
func (a *Agent) Publish() error {
	ctx := context.Background()
	a.pubMu.Lock()
	defer a.pubMu.Unlock()
	fab := make(map[odata.ID]any)
	cha := make(map[odata.ID]any)

	fabName := a.fabricID.Leaf()
	fab[a.fabricID] = redfish.Fabric{
		Resource:    odata.NewResource(a.fabricID, redfish.TypeFabric, fabName+" Fabric"),
		FabricType:  redfish.ProtocolCXL,
		Status:      odata.StatusOK(),
		Switches:    redfish.Ref(a.fabricID.Append("Switches")),
		Endpoints:   redfish.Ref(a.fabricID.Append("Endpoints")),
		Zones:       redfish.Ref(a.fabricID.Append("Zones")),
		Connections: redfish.Ref(a.fabricID.Append("Connections")),
	}

	// One logical switch whose ports are the appliance's host ports.
	swURI := a.fabricID.Append("Switches", "Switch0")
	fab[swURI] = redfish.Switch{
		Resource:   odata.NewResource(swURI, redfish.TypeSwitch, "CXL Switch 0"),
		SwitchType: redfish.ProtocolCXL,
		Status:     odata.StatusOK(),
		Ports:      redfish.Ref(swURI.Append("Ports")),
		Links:      redfish.SwitchLinks{Chassis: redfish.Ref(a.chassisID)},
	}
	for _, p := range a.appliance.Ports() {
		portURI := swURI.Append("Ports", p)
		fab[portURI] = redfish.Port{
			Resource:     odata.NewResource(portURI, redfish.TypePort, "Port "+p),
			PortID:       p,
			PortProtocol: redfish.ProtocolCXL,
			PortType:     "UpstreamPort",
			LinkState:    "Enabled",
			LinkStatus:   "LinkUp",
			Status:       odata.StatusOK(),
			Links: redfish.PortLinks{
				AssociatedEndpoints: []odata.Ref{odata.NewRef(a.hostEndpointURI(p))},
			},
		}
		epURI := a.hostEndpointURI(p)
		fab[epURI] = redfish.Endpoint{
			Resource:         odata.NewResource(epURI, redfish.TypeEndpoint, "Host endpoint "+p),
			EndpointProtocol: redfish.ProtocolCXL,
			ConnectedEntities: []redfish.ConnectedEntity{{
				EntityType: "ComputerSystem",
				EntityRole: "Initiator",
			}},
			Status: odata.StatusOK(),
			Links:  redfish.EndpointLinks{Ports: []odata.Ref{odata.NewRef(portURI)}},
		}
	}

	// Chassis with memory devices and the memory domain.
	cha[a.chassisID] = redfish.Chassis{
		Resource:    odata.NewResource(a.chassisID, redfish.TypeChassis, a.chassisID.Leaf()),
		ChassisType: "Shelf",
		Status:      odata.StatusOK(),
	}
	var deviceRefs []odata.Ref
	for _, d := range a.appliance.Devices() {
		memURI := a.memoryURI(d.ID)
		cha[memURI] = a.memoryResource(d)
		epURI := a.deviceEndpointURI(d.ID)
		fab[epURI] = redfish.Endpoint{
			Resource:         odata.NewResource(epURI, redfish.TypeEndpoint, "Memory endpoint "+d.ID),
			EndpointProtocol: redfish.ProtocolCXL,
			ConnectedEntities: []redfish.ConnectedEntity{{
				EntityType: "Memory",
				EntityRole: "Target",
				EntityLink: redfish.Ref(memURI),
			}},
			Status: odata.StatusOK(),
		}
		deviceRefs = append(deviceRefs, odata.NewRef(memURI))
	}
	cha[a.domainID] = redfish.MemoryDomain{
		Resource:                  odata.NewResource(a.domainID, redfish.TypeMemoryDomain, "Pooled CXL domain"),
		AllowsMemoryChunkCreation: true,
		MemoryChunks:              redfish.Ref(a.domainID.Append("MemoryChunks")),
		InterleavableMemorySets:   []redfish.MemorySet{{MemorySet: deviceRefs}},
		Status:                    odata.StatusOK(),
	}

	// Carved chunks with their current bindings.
	a.mu.Lock()
	chunkURIs := make(map[string]odata.ID, len(a.chunkByURI))
	for uri, id := range a.chunkByURI {
		chunkURIs[id] = uri
	}
	a.mu.Unlock()
	for _, c := range a.appliance.Chunks() {
		uri, ok := chunkURIs[c.ID]
		if !ok {
			continue // carved outside the OFMF path
		}
		cha[uri] = a.chunkResource(uri, c)
	}

	keep := []odata.ID{a.fabricID.Append("Zones"), a.fabricID.Append("Connections")}
	if err := a.conn.PublishSubtree(ctx, a.fabricID, fab, keep...); err != nil {
		return fmt.Errorf("cxlagent: publish fabric: %w", err)
	}
	if err := a.conn.PublishSubtree(ctx, a.chassisID, cha); err != nil {
		return fmt.Errorf("cxlagent: publish chassis: %w", err)
	}
	return nil
}

// Collections returns the collection URIs the OFMF must register so the
// agent's subtree renders as browsable collections. The core facade calls
// this when wiring an in-process testbed.
func (a *Agent) Collections() service.CollectionsPayload {
	sw := a.fabricID.Append("Switches", "Switch0")
	return service.CollectionsPayload{
		a.fabricID.Append("Switches"):       {redfish.TypeSwitchCollection, "Switches"},
		sw.Append("Ports"):                  {redfish.TypePortCollection, "Ports"},
		a.fabricID.Append("Endpoints"):      {redfish.TypeEndpointCollection, "Endpoints"},
		a.fabricID.Append("Zones"):          {redfish.TypeZoneCollection, "Zones"},
		a.fabricID.Append("Connections"):    {redfish.TypeConnectionCollection, "Connections"},
		a.chassisID.Append("Memory"):        {redfish.TypeMemoryCollection, "Memory"},
		a.chassisID.Append("MemoryDomains"): {redfish.TypeMemoryDomainCollection, "Memory Domains"},
		a.domainID.Append("MemoryChunks"):   {redfish.TypeMemoryChunksCollection, "Memory Chunks"},
	}
}
