// Package fabagent implements the OFMF Agent for a general network fabric
// (InfiniBand/Slingshot-class). It publishes the fabric's switches, ports
// and endpoints from the fabsim emulator, maps OFMF Zones onto fabric
// zoning, realizes Connections as bandwidth-reserved flows, forwards
// link-state events upward, and applies Port PATCHes (LinkState) to the
// emulated hardware — the dynamic network fail-over path the paper calls
// out.
package fabagent

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"ofmf/internal/agent"
	"ofmf/internal/emul/fabsim"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
)

// Sentinel errors.
var (
	ErrUnknownEndpoint = errors.New("fabagent: unknown endpoint")
	ErrUnknownPort     = errors.New("fabagent: unknown port")
	ErrBadConnection   = errors.New("fabagent: connection must name one initiator and one target endpoint")
	ErrUnsupported     = errors.New("fabagent: unsupported operation")
)

// Agent is the network fabric agent.
type Agent struct {
	conn   agent.Conn
	fabric *fabsim.Fabric

	fabricID odata.ID
	protocol string

	// pubMu serializes Publish; see cxlagent.Agent.pubMu.
	pubMu sync.Mutex

	mu        sync.Mutex
	zoneByURI map[odata.ID]string // zone resource URI -> fabsim zone id
	flowByURI map[odata.ID]string // connection URI -> fabsim flow id
	eventSeq  int
	sourceURI odata.ID
}

// New creates a network fabric agent. protocol names the fabric technology
// (redfish.ProtocolInfiniBand, redfish.ProtocolEthernet, ...).
func New(conn agent.Conn, fabric *fabsim.Fabric, fabricName, protocol string) *Agent {
	return &Agent{
		conn:      conn,
		fabric:    fabric,
		fabricID:  service.FabricsURI.Append(fabricName),
		protocol:  protocol,
		zoneByURI: make(map[odata.ID]string),
		flowByURI: make(map[odata.ID]string),
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

// Start registers with the OFMF, attaches the agent as its fabric's
// handler and publishes (agent.Start).
func (a *Agent) Start() error {
	uri, err := agent.Start(a.conn, "Fabric Agent ("+a.fabricID.Leaf()+")", a.protocol,
		[]odata.ID{a.fabricID}, a.Collections(), a, func() error {
			a.fabric.Subscribe(a.onHardwareEvent)
			return a.Publish()
		})
	a.mu.Lock()
	a.sourceURI = uri
	a.mu.Unlock()
	return err
}

// Stop detaches the agent's handler.
func (a *Agent) Stop() { agent.Stop(a.conn, a.fabricID) }

func (a *Agent) onHardwareEvent(ev fabsim.Event) {
	a.mu.Lock()
	a.eventSeq++
	id := fmt.Sprintf("fab-%d", a.eventSeq)
	a.mu.Unlock()
	severity := "OK"
	eventType := redfish.EventStatusChange
	if ev.Kind == "LinkDown" {
		severity = "Critical"
		eventType = redfish.EventAlert
	}
	var origin odata.ID
	if ev.Link != "" {
		parts := strings.SplitN(ev.Link, "|", 2)
		if len(parts) == 2 {
			origin = a.portURI(parts[0], parts[1])
		}
	}
	a.conn.PublishEvent(redfish.EventRecord{
		EventType:         eventType,
		EventID:           id,
		Severity:          severity,
		Message:           fmt.Sprintf("fabric %s: %s %s%s", a.fabricID.Leaf(), ev.Kind, ev.Link, ev.Zone),
		MessageID:         "OFMF.1.0.Fabric" + ev.Kind,
		OriginOfCondition: refOrNil(origin),
	})
	if ev.Kind == "LinkDown" || ev.Kind == "LinkUp" {
		// Reflect the new hardware state (and any reroute) in the tree.
		if ev.Kind == "LinkDown" {
			a.fabric.RerouteBroken()
		}
		_ = a.Publish()
	}
}

func refOrNil(id odata.ID) *odata.Ref {
	if id.IsZero() {
		return nil
	}
	r := odata.NewRef(id)
	return &r
}

// portURI names the port on node a facing node b.
func (a *Agent) portURI(node, peer string) odata.ID {
	return a.fabricID.Append("Switches", node, "Ports", peer)
}

func (a *Agent) endpointURI(ep string) odata.ID {
	return a.fabricID.Append("Endpoints", ep)
}

// endpointFromURI maps an endpoint URI back to a fabsim endpoint id.
func (a *Agent) endpointFromURI(uri odata.ID) (string, error) {
	if uri.Parent() != a.fabricID.Append("Endpoints") {
		return "", fmt.Errorf("%w: %s", ErrUnknownEndpoint, uri)
	}
	leaf := uri.Leaf()
	for _, ep := range a.fabric.Endpoints() {
		if ep == leaf {
			return ep, nil
		}
	}
	return "", fmt.Errorf("%w: %s", ErrUnknownEndpoint, uri)
}

// CreateZone maps the OFMF zone onto a fabsim zone.
func (a *Agent) CreateZone(_ context.Context, zone *redfish.Zone) error {
	var members []string
	for _, ref := range zone.Links.Endpoints {
		ep, err := a.endpointFromURI(ref.ODataID)
		if err != nil {
			return err
		}
		members = append(members, ep)
	}
	zid := "zone-" + zone.ODataID.Leaf()
	if err := a.fabric.CreateZone(zid, members); err != nil {
		return err
	}
	a.mu.Lock()
	a.zoneByURI[zone.ODataID] = zid
	a.mu.Unlock()
	return nil
}

// DeleteZone removes the mapped fabsim zone.
func (a *Agent) DeleteZone(_ context.Context, id odata.ID) error {
	a.mu.Lock()
	zid, ok := a.zoneByURI[id]
	delete(a.zoneByURI, id)
	a.mu.Unlock()
	if !ok {
		return nil // made before the agent restarted: nothing to undo
	}
	return a.fabric.DeleteZone(zid)
}

// connOem reads the OFMF bandwidth extension from a connection payload.
type connOem struct {
	Oem struct {
		OFMF struct {
			BandwidthGbps float64 `json:"BandwidthGbps"`
		} `json:"OFMF"`
	} `json:"Oem"`
}

// CreateConnection reserves a bandwidth flow between the initiator and
// target endpoints.
func (a *Agent) CreateConnection(ctx context.Context, conn *redfish.Connection) error {
	if len(conn.Links.InitiatorEndpoints) != 1 || len(conn.Links.TargetEndpoints) != 1 {
		return ErrBadConnection
	}
	from, err := a.endpointFromURI(conn.Links.InitiatorEndpoints[0].ODataID)
	if err != nil {
		return err
	}
	to, err := a.endpointFromURI(conn.Links.TargetEndpoints[0].ODataID)
	if err != nil {
		return err
	}
	gbps := 1.0
	if conn.Desc != "" {
		// Bandwidth may be embedded in Description as "<N>Gbps" by simple clients.
		var n float64
		if _, err := fmt.Sscanf(conn.Desc, "%fGbps", &n); err == nil && n > 0 {
			gbps = n
		}
	}
	flow, err := a.fabric.Reserve(from, to, gbps)
	if err != nil {
		return fmt.Errorf("fabagent: reserve: %w", err)
	}
	a.mu.Lock()
	a.flowByURI[conn.ODataID] = flow.ID
	a.mu.Unlock()
	if conn.ConnectionType == "" {
		conn.ConnectionType = "Storage"
	}
	return a.publish(ctx)
}

// DeleteConnection releases the reserved flow.
func (a *Agent) DeleteConnection(ctx context.Context, id odata.ID) error {
	a.mu.Lock()
	flowID, ok := a.flowByURI[id]
	delete(a.flowByURI, id)
	a.mu.Unlock()
	if !ok {
		return nil // made before the agent restarted: nothing to undo
	}
	if err := a.fabric.Release(flowID); err != nil {
		return err
	}
	return a.publish(ctx)
}

// Patch applies LinkState changes to ports: Disabled fails the underlying
// link, Enabled restores it.
func (a *Agent) Patch(ctx context.Context, id odata.ID, patch map[string]any) error {
	// Expected shape: /Fabrics/F/Switches/{node}/Ports/{peer}
	ports := id.Parent()
	if ports.Leaf() != "Ports" {
		return fmt.Errorf("%w: PATCH %s", ErrUnsupported, id)
	}
	node := ports.Parent().Leaf()
	peer := id.Leaf()
	state, ok := patch["LinkState"].(string)
	if !ok {
		return fmt.Errorf("%w: only LinkState is patchable", ErrUnsupported)
	}
	var err error
	switch state {
	case "Disabled":
		err = a.fabric.FailLink(node, peer)
	case "Enabled":
		err = a.fabric.RestoreLink(node, peer)
	default:
		return fmt.Errorf("fabagent: unknown LinkState %q", state)
	}
	if err != nil {
		return err
	}
	return a.publish(ctx)
}

// Publish rebuilds and pushes the fabric subtree from emulator state.
// Publishes are serialized so snapshots advance monotonically.
func (a *Agent) Publish() error { return a.publish(context.Background()) }

// publish is Publish on behalf of the request ctx belongs to.
func (a *Agent) publish(ctx context.Context) error {
	a.pubMu.Lock()
	defer a.pubMu.Unlock()
	res := make(map[odata.ID]any)
	res[a.fabricID] = redfish.Fabric{
		Resource:    odata.NewResource(a.fabricID, redfish.TypeFabric, a.fabricID.Leaf()+" Fabric"),
		FabricType:  a.protocol,
		Status:      odata.StatusOK(),
		Switches:    redfish.Ref(a.fabricID.Append("Switches")),
		Endpoints:   redfish.Ref(a.fabricID.Append("Endpoints")),
		Zones:       redfish.Ref(a.fabricID.Append("Zones")),
		Connections: redfish.Ref(a.fabricID.Append("Connections")),
	}

	links := a.fabric.Links()
	for _, sw := range a.fabric.Switches() {
		swURI := a.fabricID.Append("Switches", sw)
		res[swURI] = redfish.Switch{
			Resource:   odata.NewResource(swURI, redfish.TypeSwitch, "Switch "+sw),
			SwitchType: a.protocol,
			Status:     odata.StatusOK(),
			Ports:      redfish.Ref(swURI.Append("Ports")),
		}
	}
	for _, l := range links {
		for _, pair := range [][2]string{{l.A, l.B}, {l.B, l.A}} {
			node, peer := pair[0], pair[1]
			if !a.isSwitch(node) {
				continue // endpoints do not publish port resources
			}
			portURI := a.portURI(node, peer)
			linkState, linkStatus := "Enabled", "LinkUp"
			health := odata.StatusOK()
			if !l.Up() {
				linkState, linkStatus = "Disabled", "LinkDown"
				health = odata.Status{State: odata.StateDisabled, Health: odata.HealthCritical}
			}
			port := redfish.Port{
				Resource:         odata.NewResource(portURI, redfish.TypePort, fmt.Sprintf("Port %s->%s", node, peer)),
				PortID:           peer,
				PortProtocol:     a.protocol,
				MaxSpeedGbps:     l.CapacityGbps,
				CurrentSpeedGbps: l.CapacityGbps - l.ReservedGbps(),
				LinkState:        linkState,
				LinkStatus:       linkStatus,
				Status:           health,
			}
			if a.isSwitch(peer) {
				port.PortType = "InterswitchPort"
				port.Links.ConnectedSwitches = []odata.Ref{odata.NewRef(a.fabricID.Append("Switches", peer))}
			} else {
				port.PortType = "DownstreamPort"
				port.Links.AssociatedEndpoints = []odata.Ref{odata.NewRef(a.endpointURI(peer))}
			}
			res[portURI] = port
		}
	}
	for _, ep := range a.fabric.Endpoints() {
		epURI := a.endpointURI(ep)
		res[epURI] = redfish.Endpoint{
			Resource:         odata.NewResource(epURI, redfish.TypeEndpoint, "Endpoint "+ep),
			EndpointProtocol: a.protocol,
			ConnectedEntities: []redfish.ConnectedEntity{{
				EntityType: "ComputerSystem", EntityRole: "Both",
			}},
			Status: odata.StatusOK(),
		}
	}
	return a.conn.PublishSubtree(ctx, a.fabricID, res,
		a.fabricID.Append("Zones"), a.fabricID.Append("Connections"))
}

func (a *Agent) isSwitch(node string) bool {
	for _, sw := range a.fabric.Switches() {
		if sw == node {
			return true
		}
	}
	return false
}

// Collections returns the collection URIs to register for this agent.
func (a *Agent) Collections() service.CollectionsPayload {
	out := service.CollectionsPayload{
		a.fabricID.Append("Switches"):    {redfish.TypeSwitchCollection, "Switches"},
		a.fabricID.Append("Endpoints"):   {redfish.TypeEndpointCollection, "Endpoints"},
		a.fabricID.Append("Zones"):       {redfish.TypeZoneCollection, "Zones"},
		a.fabricID.Append("Connections"): {redfish.TypeConnectionCollection, "Connections"},
	}
	for _, sw := range a.fabric.Switches() {
		out[a.fabricID.Append("Switches", sw, "Ports")] = [2]string{redfish.TypePortCollection, "Ports"}
	}
	return out
}
