// Package gpuagent implements the OFMF Agent for a pooled GPU appliance.
// It publishes the pool as a chassis holding accelerator Processor
// resources, provisions partitions via Processor POSTs, and realizes
// Connections as partition-to-host attachments.
package gpuagent

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"ofmf/internal/agent"
	"ofmf/internal/emul/gpusim"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
)

// Sentinel errors.
var (
	ErrUnknownPartition = errors.New("gpuagent: unknown partition")
	ErrBadConnection    = errors.New("gpuagent: connection must name one initiator endpoint and one partition")
	ErrUnsupported      = errors.New("gpuagent: unsupported operation")
)

// Agent is the GPU pool agent.
type Agent struct {
	conn agent.Conn
	pool *gpusim.Pool

	fabricID  odata.ID
	chassisID odata.ID

	// pubMu serializes Publish; see cxlagent.Agent.pubMu.
	pubMu sync.Mutex

	mu        sync.Mutex
	partByURI map[odata.ID]string
	conns     map[odata.ID]attachment // by connection URI
	eventSeq  int
	sourceURI odata.ID
}

// attachment is the partition a connection attached.
type attachment struct {
	uri  odata.ID // the partition's Processors resource
	part string
}

// New creates a GPU pool agent.
func New(conn agent.Conn, pool *gpusim.Pool, fabricName, chassisName string) *Agent {
	return &Agent{
		conn:      conn,
		pool:      pool,
		fabricID:  service.FabricsURI.Append(fabricName),
		chassisID: service.ChassisURI.Append(chassisName),
		partByURI: make(map[odata.ID]string),
		conns:     make(map[odata.ID]attachment),
	}
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

// Start registers with the OFMF, attaches the agent as the handler of
// both subtrees and publishes (agent.Start).
func (a *Agent) Start() error {
	uri, err := agent.Start(a.conn, "GPU Agent ("+a.chassisID.Leaf()+")", "GPU",
		[]odata.ID{a.fabricID, a.chassisID}, a.Collections(), a, func() error {
			a.pool.Subscribe(a.onHardwareEvent)
			return a.Publish()
		})
	a.mu.Lock()
	a.sourceURI = uri
	a.mu.Unlock()
	return err
}

// Stop detaches the agent's handlers.
func (a *Agent) Stop() { agent.Stop(a.conn, a.fabricID, a.chassisID) }

func (a *Agent) onHardwareEvent(ev gpusim.Event) {
	a.mu.Lock()
	a.eventSeq++
	id := fmt.Sprintf("gpu-%d", a.eventSeq)
	a.mu.Unlock()
	a.conn.PublishEvent(redfish.EventRecord{
		EventType: redfish.EventAlert,
		EventID:   id,
		Severity:  "OK",
		Message:   fmt.Sprintf("gpu pool: %s partition=%s host=%s", ev.Kind, ev.Partition, ev.Host),
		MessageID: "OFMF.1.0.GPU" + ev.Kind,
	})
}

// partitionRequest is the accepted payload for partition provisioning.
type partitionRequest struct {
	Oem struct {
		OFMF struct {
			Slices int    `json:"Slices"`
			GPU    string `json:"GPU"`
		} `json:"OFMF"`
	} `json:"Oem"`
}

// CreateResource provisions a GPU partition when the target collection is
// the agent's Processors collection.
func (a *Agent) CreateResource(ctx context.Context, coll, uri odata.ID, payload json.RawMessage) (any, error) {
	if coll != a.chassisID.Append("Processors") {
		return nil, fmt.Errorf("%w: POST %s", ErrUnsupported, coll)
	}
	var req partitionRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("gpuagent: bad partition request: %w", err)
	}
	slices := req.Oem.OFMF.Slices
	if slices < 1 {
		slices = 1
	}
	var partID string
	var err error
	if req.Oem.OFMF.GPU != "" {
		partID, err = a.pool.Carve(req.Oem.OFMF.GPU, slices)
	} else {
		partID, err = a.pool.CarveAny(slices)
	}
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	a.partByURI[uri] = partID
	a.mu.Unlock()

	a.pubMu.Lock()
	defer a.pubMu.Unlock()
	p, err := a.pool.Partition(partID)
	if err != nil {
		return nil, err
	}
	// The partition's target endpoint appears in the fabric subtree.
	epURI, ep := a.partitionEndpoint(uri, p)
	if err := agent.PublishTouched(ctx, a.conn, a.fabricID, map[odata.ID]any{epURI: ep}); err != nil {
		return nil, err
	}
	res := a.partitionResource(uri, p)
	if err := agent.PublishTouched(ctx, a.conn, a.chassisID, map[odata.ID]any{uri: res}); err != nil {
		return nil, err
	}
	return res, nil
}

// DeleteResource releases a GPU partition.
func (a *Agent) DeleteResource(ctx context.Context, id odata.ID) error {
	a.mu.Lock()
	partID, ok := a.partByURI[id]
	a.mu.Unlock()
	// An unknown partition has nothing to delete; its endpoint still goes.
	if ok {
		if err := a.pool.Delete(partID); err != nil {
			return err
		}
		a.mu.Lock()
		delete(a.partByURI, id)
		a.mu.Unlock()
	}

	a.pubMu.Lock()
	defer a.pubMu.Unlock()
	if err := agent.PublishTouched(ctx, a.conn, a.fabricID, nil, a.endpointURI(id)); err != nil {
		return err
	}
	return agent.PublishTouched(ctx, a.conn, a.chassisID, nil, id)
}

// CreateConnection attaches the referenced partition to the initiator.
// The partition is referenced through the connection's target endpoint
// whose leaf is the partition resource id.
func (a *Agent) CreateConnection(ctx context.Context, conn *redfish.Connection) error {
	if len(conn.Links.InitiatorEndpoints) != 1 || len(conn.Links.TargetEndpoints) != 1 {
		return ErrBadConnection
	}
	host := conn.Links.InitiatorEndpoints[0].ODataID.Leaf()
	partURI := a.chassisID.Append("Processors", conn.Links.TargetEndpoints[0].ODataID.Leaf())
	a.mu.Lock()
	partID, ok := a.partByURI[partURI]
	a.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPartition, partURI)
	}
	if err := a.pool.Attach(partID, host); err != nil {
		return fmt.Errorf("gpuagent: attach: %w", err)
	}
	conn.ConnectionType = "Memory"
	a.mu.Lock()
	a.conns[conn.ODataID] = attachment{uri: partURI, part: partID}
	a.mu.Unlock()
	return a.publishPartition(ctx, partURI, partID)
}

// DeleteConnection detaches the partition.
func (a *Agent) DeleteConnection(ctx context.Context, id odata.ID) error {
	a.mu.Lock()
	att, ok := a.conns[id]
	delete(a.conns, id)
	a.mu.Unlock()
	if !ok {
		return nil // made before the agent restarted: nothing to undo
	}
	if err := a.pool.Detach(att.part); err != nil {
		return err
	}
	return a.publishPartition(ctx, att.uri, att.part)
}

// publishPartition publishes the partition's current attachment: what a
// connection changes.
func (a *Agent) publishPartition(ctx context.Context, uri odata.ID, partID string) error {
	a.pubMu.Lock()
	defer a.pubMu.Unlock()
	p, err := a.pool.Partition(partID)
	if err != nil {
		return nil // deleted since; its DeleteResource dropped it
	}
	return agent.PublishTouched(ctx, a.conn, a.chassisID, map[odata.ID]any{uri: a.partitionResource(uri, p)})
}

// CreateZone accepts zone bookkeeping.
func (a *Agent) CreateZone(context.Context, *redfish.Zone) error { return nil }

// DeleteZone accepts zone removal.
func (a *Agent) DeleteZone(context.Context, odata.ID) error { return nil }

// Patch rejects hardware property changes.
func (a *Agent) Patch(_ context.Context, id odata.ID, patch map[string]any) error {
	return fmt.Errorf("%w: PATCH %s", ErrUnsupported, id)
}

// The builders below render one resource each from a pool snapshot.
// Publish and the handler ops both go through them, so a handler op's
// touched-resource publish and the next full Publish agree byte for byte.

// partitionResource renders a partition with its current attachment.
func (a *Agent) partitionResource(uri odata.ID, p gpusim.Partition) redfish.Processor {
	res := redfish.Processor{
		Resource:      odata.NewResource(uri, redfish.TypeProcessor, p.ID),
		ProcessorType: "GPU",
		Status:        odata.StatusOK(),
		TotalCores:    p.Slices,
	}
	if p.Host != "" {
		res.Desc = "attached to " + p.Host
		res.Status.State = odata.StateComposed
	}
	return res
}

// endpointURI is the fabric endpoint of the partition stored at partURI.
func (a *Agent) endpointURI(partURI odata.ID) odata.ID {
	return a.fabricID.Append("Endpoints", partURI.Leaf())
}

// partitionEndpoint renders the target endpoint of a partition.
func (a *Agent) partitionEndpoint(partURI odata.ID, p gpusim.Partition) (odata.ID, redfish.Endpoint) {
	uri := a.endpointURI(partURI)
	return uri, redfish.Endpoint{
		Resource:         odata.NewResource(uri, redfish.TypeEndpoint, "Partition "+p.ID),
		EndpointProtocol: redfish.ProtocolPCIe,
		ConnectedEntities: []redfish.ConnectedEntity{{
			EntityType: "Processor", EntityRole: "Target", EntityLink: redfish.Ref(partURI),
		}},
		Status: odata.StatusOK(),
	}
}

// Publish rebuilds and pushes the agent's complete subtrees from pool
// state: the reconciliation path, run at Start and whenever the tree may
// have drifted from the pool. Handler ops publish only what they touched.
// Publishes are serialized so snapshots advance monotonically.
func (a *Agent) Publish() error {
	ctx := context.Background()
	a.pubMu.Lock()
	defer a.pubMu.Unlock()
	fab := make(map[odata.ID]any)
	cha := make(map[odata.ID]any)

	fab[a.fabricID] = redfish.Fabric{
		Resource:    odata.NewResource(a.fabricID, redfish.TypeFabric, a.fabricID.Leaf()+" Fabric"),
		FabricType:  redfish.ProtocolPCIe,
		Status:      odata.StatusOK(),
		Endpoints:   redfish.Ref(a.fabricID.Append("Endpoints")),
		Zones:       redfish.Ref(a.fabricID.Append("Zones")),
		Connections: redfish.Ref(a.fabricID.Append("Connections")),
	}
	cha[a.chassisID] = redfish.Chassis{
		Resource:    odata.NewResource(a.chassisID, redfish.TypeChassis, a.chassisID.Leaf()),
		ChassisType: "Shelf",
		Status:      odata.StatusOK(),
	}

	for _, g := range a.pool.GPUs() {
		gpuURI := a.chassisID.Append("GPUs", g.ID)
		cha[gpuURI] = redfish.Processor{
			Resource:      odata.NewResource(gpuURI, redfish.TypeProcessor, g.ID),
			ProcessorType: "GPU",
			Model:         g.Model,
			TotalCores:    g.Slices,
			Status:        odata.StatusOK(),
		}
	}

	a.mu.Lock()
	partURIs := make(map[string]odata.ID, len(a.partByURI))
	for uri, id := range a.partByURI {
		partURIs[id] = uri
	}
	a.mu.Unlock()
	for _, p := range a.pool.Partitions() {
		uri, ok := partURIs[p.ID]
		if !ok {
			continue
		}
		cha[uri] = a.partitionResource(uri, p)
		epURI, ep := a.partitionEndpoint(uri, p)
		fab[epURI] = ep
	}

	keep := []odata.ID{a.fabricID.Append("Zones"), a.fabricID.Append("Connections")}
	if err := a.conn.PublishSubtree(ctx, a.fabricID, fab, keep...); err != nil {
		return fmt.Errorf("gpuagent: publish fabric: %w", err)
	}
	if err := a.conn.PublishSubtree(ctx, a.chassisID, cha); err != nil {
		return fmt.Errorf("gpuagent: publish chassis: %w", err)
	}
	return nil
}

// Collections returns the collection URIs to register for this agent.
func (a *Agent) Collections() service.CollectionsPayload {
	return service.CollectionsPayload{
		a.fabricID.Append("Endpoints"):   {redfish.TypeEndpointCollection, "Endpoints"},
		a.fabricID.Append("Zones"):       {redfish.TypeZoneCollection, "Zones"},
		a.fabricID.Append("Connections"): {redfish.TypeConnectionCollection, "Connections"},
		a.chassisID.Append("GPUs"):       {redfish.TypeProcessorCollection, "GPUs"},
		a.chassisID.Append("Processors"): {redfish.TypeProcessorCollection, "GPU Partitions"},
	}
}
