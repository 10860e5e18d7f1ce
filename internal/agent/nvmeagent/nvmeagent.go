// Package nvmeagent implements the OFMF Agent for NVMe-over-Fabrics
// storage. It publishes a storage subtree (pools, volumes) and an NVMe
// fabric subtree (host and subsystem endpoints, connections) and
// translates OFMF operations into nvmesim target operations: a Volumes
// POST provisions a namespace, a Connection attaches a volume to the
// initiating host's subsystem and connects the host.
package nvmeagent

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"ofmf/internal/agent"
	"ofmf/internal/emul/nvmesim"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
)

// Sentinel errors.
var (
	ErrUnknownEndpoint = errors.New("nvmeagent: unknown endpoint")
	ErrUnknownVolume   = errors.New("nvmeagent: unknown volume")
	ErrBadConnection   = errors.New("nvmeagent: connection must name one initiator endpoint and one volume")
	ErrUnsupported     = errors.New("nvmeagent: unsupported operation")
)

// Agent is the NVMe-oF fabric agent.
type Agent struct {
	conn   agent.Conn
	target *nvmesim.Target

	fabricID  odata.ID
	storageID odata.ID

	// pubMu serializes Publish; see cxlagent.Agent.pubMu.
	pubMu sync.Mutex

	mu        sync.Mutex
	hosts     map[string]string   // endpoint leaf -> host NQN
	volByURI  map[odata.ID]string // volume resource URI -> target volume id
	conns     map[odata.ID]attachment
	sourceURI odata.ID
	eventSeq  int
}

type attachment struct {
	volURI  odata.ID
	volume  string
	hostNQN string
	subsys  string
}

// New creates an NVMe-oF agent for the given target.
func New(conn agent.Conn, target *nvmesim.Target, fabricName, storageName string) *Agent {
	return &Agent{
		conn:      conn,
		target:    target,
		fabricID:  service.FabricsURI.Append(fabricName),
		storageID: service.StorageURI.Append(storageName),
		hosts:     make(map[string]string),
		volByURI:  make(map[odata.ID]string),
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

// StorageID returns the storage subtree root the agent owns.
func (a *Agent) StorageID() odata.ID { return a.storageID }

// RegisterHost adds an initiator endpoint for a compute host. A dedicated
// subsystem for the host is created lazily on first connection.
func (a *Agent) RegisterHost(name string) odata.ID {
	nqn := "nqn.2023-05.org.ofmf:host:" + name
	a.mu.Lock()
	a.hosts[name] = nqn
	a.mu.Unlock()
	return a.fabricID.Append("Endpoints", name)
}

// Start registers the agent with the OFMF, attaches it as the handler of
// both subtrees and publishes initial state (agent.Start).
func (a *Agent) Start() error {
	uri, err := agent.Start(a.conn, "NVMe-oF Agent ("+a.fabricID.Leaf()+")", redfish.ProtocolNVMeOF,
		[]odata.ID{a.fabricID, a.storageID}, a.Collections(), a, func() error {
			a.target.Subscribe(a.onHardwareEvent)
			return a.Publish()
		})
	a.mu.Lock()
	a.sourceURI = uri
	a.mu.Unlock()
	return err
}

// Stop detaches the agent's handlers.
func (a *Agent) Stop() { agent.Stop(a.conn, a.fabricID, a.storageID) }

func (a *Agent) onHardwareEvent(ev nvmesim.Event) {
	a.mu.Lock()
	a.eventSeq++
	id := fmt.Sprintf("nvme-%d", a.eventSeq)
	a.mu.Unlock()
	a.conn.PublishEvent(redfish.EventRecord{
		EventType: redfish.EventAlert,
		EventID:   id,
		Message:   fmt.Sprintf("nvme target: %s volume=%s subsystem=%s host=%s", ev.Kind, ev.Volume, ev.Subsystem, ev.Host),
		MessageID: "OFMF.1.0.NVMe" + ev.Kind,
		Severity:  "OK",
	})
}

func (a *Agent) hostSubsysNQN(host string) string {
	return "nqn.2023-05.org.ofmf:subsys:" + host
}

// ensureSubsystem lazily creates the per-host subsystem with an ACL
// admitting only that host, and publishes the endpoint that appears
// with it.
func (a *Agent) ensureSubsystem(ctx context.Context, host, hostNQN string) (string, error) {
	nqn := a.hostSubsysNQN(host)
	for _, s := range a.target.Subsystems() {
		if s == nqn {
			return nqn, nil
		}
	}
	if err := a.target.AddSubsystem(nqn, []string{hostNQN}); err != nil {
		return "", err
	}
	a.pubMu.Lock()
	defer a.pubMu.Unlock()
	epURI, ep := a.subsystemEndpoint(nqn)
	if err := agent.PublishTouched(ctx, a.conn, a.fabricID, map[odata.ID]any{epURI: ep}); err != nil {
		return "", err
	}
	return nqn, nil
}

// CreateConnection attaches the referenced volume to the initiator host's
// subsystem and connects the host.
func (a *Agent) CreateConnection(ctx context.Context, conn *redfish.Connection) error {
	if len(conn.Links.InitiatorEndpoints) != 1 || len(conn.VolumeInfo) != 1 || conn.VolumeInfo[0].Volume == nil {
		return ErrBadConnection
	}
	epURI := conn.Links.InitiatorEndpoints[0].ODataID
	volURI := conn.VolumeInfo[0].Volume.ODataID
	host := epURI.Leaf()
	a.mu.Lock()
	hostNQN, ok := a.hosts[host]
	volID, vok := a.volByURI[volURI]
	a.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownEndpoint, epURI)
	}
	if !vok {
		return fmt.Errorf("%w: %s", ErrUnknownVolume, volURI)
	}
	subsys, err := a.ensureSubsystem(ctx, host, hostNQN)
	if err != nil {
		return err
	}
	if err := a.target.Attach(volID, subsys); err != nil {
		return fmt.Errorf("nvmeagent: attach: %w", err)
	}
	if err := a.target.Connect(hostNQN, subsys); err != nil && !errors.Is(err, nvmesim.ErrAlreadyConnected) {
		_ = a.target.Detach(volID)
		return fmt.Errorf("nvmeagent: connect: %w", err)
	}
	conn.ConnectionType = "Storage"
	a.mu.Lock()
	a.conns[conn.ODataID] = attachment{volURI: volURI, volume: volID, hostNQN: hostNQN, subsys: subsys}
	a.mu.Unlock()
	return a.publishVolume(ctx, volURI, volID)
}

// DeleteConnection detaches the volume and disconnects the host when no
// other connection uses the same subsystem.
func (a *Agent) DeleteConnection(ctx context.Context, id odata.ID) error {
	a.mu.Lock()
	att, ok := a.conns[id]
	delete(a.conns, id)
	remaining := 0
	for _, other := range a.conns {
		if other.subsys == att.subsys {
			remaining++
		}
	}
	a.mu.Unlock()
	if !ok {
		return nil // made before the agent restarted: nothing to undo
	}
	if err := a.target.Detach(att.volume); err != nil {
		return err
	}
	if remaining == 0 {
		if err := a.target.Disconnect(att.hostNQN, att.subsys); err != nil && !errors.Is(err, nvmesim.ErrNotConnected) {
			return err
		}
	}
	return a.publishVolume(ctx, att.volURI, att.volume)
}

// publishVolume publishes the volume's current attachment: what a
// connection changes.
func (a *Agent) publishVolume(ctx context.Context, uri odata.ID, volID string) error {
	a.pubMu.Lock()
	defer a.pubMu.Unlock()
	v, err := a.target.Volume(volID)
	if err != nil {
		return nil // deleted since; its DeleteResource dropped it
	}
	return agent.PublishTouched(ctx, a.conn, a.storageID, map[odata.ID]any{uri: a.volumeResource(uri, v)})
}

// CreateZone records zone membership as subsystem ACL bookkeeping.
func (a *Agent) CreateZone(context.Context, *redfish.Zone) error { return nil }

// DeleteZone accepts zone removal.
func (a *Agent) DeleteZone(context.Context, odata.ID) error { return nil }

// Patch rejects hardware property changes the target cannot make.
func (a *Agent) Patch(_ context.Context, id odata.ID, patch map[string]any) error {
	return fmt.Errorf("%w: PATCH %s", ErrUnsupported, id)
}

// volumeRequest is the accepted payload for volume provisioning.
type volumeRequest struct {
	CapacityBytes int64 `json:"CapacityBytes"`
	Oem           struct {
		OFMF struct {
			Pool string `json:"Pool"`
		} `json:"OFMF"`
	} `json:"Oem"`
}

// CreateResource provisions a volume when the target collection is the
// agent's Volumes collection.
func (a *Agent) CreateResource(ctx context.Context, coll, uri odata.ID, payload json.RawMessage) (any, error) {
	if coll != a.storageID.Append("Volumes") {
		return nil, fmt.Errorf("%w: POST %s", ErrUnsupported, coll)
	}
	var req volumeRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("nvmeagent: bad volume request: %w", err)
	}
	if req.CapacityBytes <= 0 {
		return nil, fmt.Errorf("nvmeagent: CapacityBytes must be positive")
	}
	pool := req.Oem.OFMF.Pool
	if pool == "" {
		pools := a.target.Pools()
		if len(pools) == 0 {
			return nil, fmt.Errorf("nvmeagent: no pools configured")
		}
		// Pick the pool with the most free capacity.
		sort.Slice(pools, func(i, j int) bool {
			fi := pools[i].CapacityBytes - pools[i].AllocatedBytes()
			fj := pools[j].CapacityBytes - pools[j].AllocatedBytes()
			return fi > fj
		})
		pool = pools[0].ID
	}
	volID, err := a.target.CreateVolume(pool, req.CapacityBytes)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	a.volByURI[uri] = volID
	a.mu.Unlock()

	a.pubMu.Lock()
	defer a.pubMu.Unlock()
	v, err := a.target.Volume(volID)
	if err != nil {
		return nil, err
	}
	res := a.volumeResource(uri, v)
	touched := map[odata.ID]any{uri: res}
	a.touchPool(touched, v.Pool)
	if err := agent.PublishTouched(ctx, a.conn, a.storageID, touched); err != nil {
		return nil, err
	}
	return res, nil
}

// DeleteResource deletes a provisioned volume.
func (a *Agent) DeleteResource(ctx context.Context, id odata.ID) error {
	a.mu.Lock()
	volID, ok := a.volByURI[id]
	a.mu.Unlock()
	if !ok {
		return nil // created before the agent restarted: nothing to delete
	}
	v, err := a.target.Volume(volID)
	if err != nil {
		return err
	}
	if err := a.target.DeleteVolume(volID); err != nil {
		return err
	}
	a.mu.Lock()
	delete(a.volByURI, id)
	a.mu.Unlock()

	a.pubMu.Lock()
	defer a.pubMu.Unlock()
	touched := make(map[odata.ID]any, 1)
	a.touchPool(touched, v.Pool)
	return agent.PublishTouched(ctx, a.conn, a.storageID, touched, id)
}

// The builders below render one resource each from a target snapshot.
// Publish and the handler ops both go through them, so a handler op's
// touched-resource publish and the next full Publish agree byte for byte.

// volumeResource renders a volume with its current attachment.
func (a *Agent) volumeResource(uri odata.ID, v nvmesim.Volume) redfish.Volume {
	res := redfish.Volume{
		Resource:      odata.NewResource(uri, redfish.TypeVolume, v.ID),
		Status:        odata.StatusOK(),
		CapacityBytes: v.Bytes,
		Identifiers:   []redfish.Identifier{{DurableName: "uuid:" + v.ID, DurableNameFormat: "UUID"}},
	}
	if v.Subsystem != "" {
		epID, _ := a.subsystemEndpoint(v.Subsystem)
		res.Links.ClientEndpoints = []odata.Ref{odata.NewRef(epID)}
	}
	return res
}

// poolResource renders a storage pool with its current consumption.
func (a *Agent) poolResource(p nvmesim.Pool) (odata.ID, redfish.StoragePool) {
	uri := a.storageID.Append("StoragePools", p.ID)
	return uri, redfish.StoragePool{
		Resource: odata.NewResource(uri, redfish.TypeStoragePool, p.ID),
		Status:   odata.StatusOK(),
		Capacity: redfish.Capacity{Data: redfish.CapacityInfo{
			AllocatedBytes: p.CapacityBytes,
			ConsumedBytes:  p.AllocatedBytes(),
		}},
	}
}

// touchPool adds the pool's current state to touched: creating and
// deleting volumes move its ConsumedBytes.
func (a *Agent) touchPool(touched map[odata.ID]any, pool string) {
	if p, err := a.target.Pool(pool); err == nil {
		uri, res := a.poolResource(p)
		touched[uri] = res
	}
}

// subsystemEndpoint renders the target endpoint of a subsystem.
func (a *Agent) subsystemEndpoint(nqn string) (odata.ID, redfish.Endpoint) {
	uri := a.fabricID.Append("Endpoints", sanitize(nqn))
	return uri, redfish.Endpoint{
		Resource:         odata.NewResource(uri, redfish.TypeEndpoint, nqn),
		EndpointProtocol: redfish.ProtocolNVMeOF,
		Identifiers:      []redfish.Identifier{{DurableName: nqn, DurableNameFormat: "NQN"}},
		ConnectedEntities: []redfish.ConnectedEntity{{
			EntityType: "Volume", EntityRole: "Target",
		}},
		Status: odata.StatusOK(),
	}
}

// Publish rebuilds and pushes the agent's complete subtrees from target
// state: the reconciliation path, run at Start and whenever the tree may
// have drifted from the target. Handler ops publish only what they
// touched. Publishes are serialized so snapshots advance monotonically.
func (a *Agent) Publish() error {
	ctx := context.Background()
	a.pubMu.Lock()
	defer a.pubMu.Unlock()
	fab := make(map[odata.ID]any)
	sto := make(map[odata.ID]any)

	fab[a.fabricID] = redfish.Fabric{
		Resource:    odata.NewResource(a.fabricID, redfish.TypeFabric, a.fabricID.Leaf()+" Fabric"),
		FabricType:  redfish.ProtocolNVMeOF,
		Status:      odata.StatusOK(),
		Endpoints:   redfish.Ref(a.fabricID.Append("Endpoints")),
		Zones:       redfish.Ref(a.fabricID.Append("Zones")),
		Connections: redfish.Ref(a.fabricID.Append("Connections")),
	}

	a.mu.Lock()
	hosts := make(map[string]string, len(a.hosts))
	for k, v := range a.hosts {
		hosts[k] = v
	}
	volURIs := make(map[string]odata.ID, len(a.volByURI))
	for uri, id := range a.volByURI {
		volURIs[id] = uri
	}
	a.mu.Unlock()

	for host, nqn := range hosts {
		epURI := a.fabricID.Append("Endpoints", host)
		fab[epURI] = redfish.Endpoint{
			Resource:         odata.NewResource(epURI, redfish.TypeEndpoint, "Host "+host),
			EndpointProtocol: redfish.ProtocolNVMeOF,
			Identifiers:      []redfish.Identifier{{DurableName: nqn, DurableNameFormat: "NQN"}},
			ConnectedEntities: []redfish.ConnectedEntity{{
				EntityType: "ComputerSystem", EntityRole: "Initiator",
			}},
			Status: odata.StatusOK(),
		}
	}
	for _, nqn := range a.target.Subsystems() {
		epURI, ep := a.subsystemEndpoint(nqn)
		fab[epURI] = ep
	}

	sto[a.storageID] = redfish.Storage{
		Resource:     odata.NewResource(a.storageID, redfish.TypeStorage, a.storageID.Leaf()),
		Status:       odata.StatusOK(),
		StoragePools: redfish.Ref(a.storageID.Append("StoragePools")),
		Volumes:      redfish.Ref(a.storageID.Append("Volumes")),
	}
	for _, p := range a.target.Pools() {
		poolURI, pool := a.poolResource(p)
		sto[poolURI] = pool
	}
	for _, v := range a.target.Volumes() {
		uri, ok := volURIs[v.ID]
		if !ok {
			continue
		}
		sto[uri] = a.volumeResource(uri, v)
	}

	keep := []odata.ID{a.fabricID.Append("Zones"), a.fabricID.Append("Connections")}
	if err := a.conn.PublishSubtree(ctx, a.fabricID, fab, keep...); err != nil {
		return fmt.Errorf("nvmeagent: publish fabric: %w", err)
	}
	if err := a.conn.PublishSubtree(ctx, a.storageID, sto); err != nil {
		return fmt.Errorf("nvmeagent: publish storage: %w", err)
	}
	return nil
}

// sanitize turns an NQN into a URI-safe path segment.
func sanitize(nqn string) string {
	out := make([]rune, 0, len(nqn))
	for _, r := range nqn {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// Collections returns the collection URIs the OFMF must register for this
// agent's subtrees.
func (a *Agent) Collections() service.CollectionsPayload {
	return service.CollectionsPayload{
		a.fabricID.Append("Endpoints"):     {redfish.TypeEndpointCollection, "Endpoints"},
		a.fabricID.Append("Zones"):         {redfish.TypeZoneCollection, "Zones"},
		a.fabricID.Append("Connections"):   {redfish.TypeConnectionCollection, "Connections"},
		a.storageID.Append("StoragePools"): {redfish.TypeStoragePoolCollection, "Storage Pools"},
		a.storageID.Append("Volumes"):      {redfish.TypeVolumeCollection, "Volumes"},
	}
}
