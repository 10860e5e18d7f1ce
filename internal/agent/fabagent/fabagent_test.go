package fabagent

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"ofmf/internal/agent"
	"ofmf/internal/emul/fabsim"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
)

func newAgent(t *testing.T) (*service.Service, *fabsim.Fabric, *Agent) {
	t.Helper()
	svc := service.New(service.Config{DirectWrites: true})
	t.Cleanup(svc.Close)
	fab := fabsim.New()
	if _, err := fabsim.BuildStar(fab, "h", 4, 100); err != nil {
		t.Fatal(err)
	}
	ag := New(&agent.Local{Service: svc}, fab, "IB", redfish.ProtocolInfiniBand)
	for uri, meta := range ag.Collections() {
		svc.Store().RegisterCollection(uri, meta[0], meta[1])
	}
	if err := ag.Start(); err != nil {
		t.Fatal(err)
	}
	return svc, fab, ag
}

func epRef(ag *Agent, name string) odata.Ref {
	return odata.NewRef(ag.FabricID().Append("Endpoints", name))
}

func TestPublishContents(t *testing.T) {
	svc, _, ag := newAgent(t)
	st := svc.Store()
	for _, id := range []odata.ID{
		ag.FabricID(),
		ag.FabricID().Append("Switches", "sw0"),
		ag.FabricID().Append("Switches", "sw0", "Ports", "h0"),
		ag.FabricID().Append("Endpoints", "h0"),
	} {
		if !st.Exists(id) {
			t.Errorf("missing %s", id)
		}
	}
	var port redfish.Port
	if err := st.GetAs(ag.FabricID().Append("Switches", "sw0", "Ports", "h0"), &port); err != nil {
		t.Fatal(err)
	}
	if port.PortType != "DownstreamPort" || port.LinkStatus != "LinkUp" {
		t.Errorf("port = %+v", port)
	}
	if port.MaxSpeedGbps != 100 {
		t.Errorf("speed = %f", port.MaxSpeedGbps)
	}
}

func TestZoneMapping(t *testing.T) {
	svc, fab, ag := newAgent(t)
	zone := redfish.Zone{
		Resource: odata.NewResource(ag.FabricID().Append("Zones", "1"), redfish.TypeZone, "z"),
		Links:    redfish.ZoneLinks{Endpoints: []odata.Ref{epRef(ag, "h0"), epRef(ag, "h1")}},
	}
	if err := ag.CreateZone(context.Background(), &zone); err != nil {
		t.Fatal(err)
	}
	if got := len(fab.Zones()); got != 1 {
		t.Fatalf("zones = %d", got)
	}
	// Unknown endpoint in zone.
	bad := redfish.Zone{
		Resource: odata.NewResource(ag.FabricID().Append("Zones", "2"), redfish.TypeZone, "z"),
		Links:    redfish.ZoneLinks{Endpoints: []odata.Ref{epRef(ag, "ghost")}},
	}
	if err := ag.CreateZone(context.Background(), &bad); !errors.Is(err, ErrUnknownEndpoint) {
		t.Errorf("err = %v", err)
	}
	if err := ag.DeleteZone(context.Background(), zone.ODataID); err != nil {
		t.Fatal(err)
	}
	if got := len(fab.Zones()); got != 0 {
		t.Errorf("zones = %d", got)
	}
	deleteLeavesTree(t, svc, func() error { return ag.DeleteZone(context.Background(), zone.ODataID) })
}

func TestConnectionFlows(t *testing.T) {
	svc, fab, ag := newAgent(t)
	conn := redfish.Connection{
		Resource: odata.NewResource(ag.FabricID().Append("Connections", "1"), redfish.TypeConnection, "c"),
		Links: redfish.ConnectionLinks{
			InitiatorEndpoints: []odata.Ref{epRef(ag, "h0")},
			TargetEndpoints:    []odata.Ref{epRef(ag, "h1")},
		},
	}
	if err := ag.CreateConnection(context.Background(), &conn); err != nil {
		t.Fatal(err)
	}
	flows := fab.Flows()
	if len(flows) != 1 {
		t.Fatalf("flows = %d", len(flows))
	}
	// The published port reflects reserved bandwidth.
	var port redfish.Port
	if err := svc.Store().GetAs(ag.FabricID().Append("Switches", "sw0", "Ports", "h0"), &port); err != nil {
		t.Fatal(err)
	}
	if port.CurrentSpeedGbps >= port.MaxSpeedGbps {
		t.Errorf("reservation not reflected: %f of %f", port.CurrentSpeedGbps, port.MaxSpeedGbps)
	}
	if err := ag.DeleteConnection(context.Background(), conn.ODataID); err != nil {
		t.Fatal(err)
	}
	if len(fab.Flows()) != 0 {
		t.Error("flow leaked")
	}
}

func TestConnectionValidation(t *testing.T) {
	_, _, ag := newAgent(t)
	if err := ag.CreateConnection(context.Background(), &redfish.Connection{}); !errors.Is(err, ErrBadConnection) {
		t.Errorf("err = %v", err)
	}
	conn := redfish.Connection{
		Links: redfish.ConnectionLinks{
			InitiatorEndpoints: []odata.Ref{epRef(ag, "ghost")},
			TargetEndpoints:    []odata.Ref{epRef(ag, "h1")},
		},
	}
	if err := ag.CreateConnection(context.Background(), &conn); !errors.Is(err, ErrUnknownEndpoint) {
		t.Errorf("err = %v", err)
	}
}

func TestPatchLinkState(t *testing.T) {
	svc, fab, ag := newAgent(t)
	port := ag.FabricID().Append("Switches", "sw0", "Ports", "h0")
	if err := ag.Patch(context.Background(), port, map[string]any{"LinkState": "Disabled"}); err != nil {
		t.Fatal(err)
	}
	l, _ := fab.Link("sw0", "h0")
	if l.Up() {
		t.Error("link still up")
	}
	var res redfish.Port
	if err := svc.Store().GetAs(port, &res); err != nil {
		t.Fatal(err)
	}
	if res.LinkStatus != "LinkDown" || res.Status.Health != "Critical" {
		t.Errorf("published port = %+v", res)
	}
	if err := ag.Patch(context.Background(), port, map[string]any{"LinkState": "Enabled"}); err != nil {
		t.Fatal(err)
	}
	l, _ = fab.Link("sw0", "h0")
	if !l.Up() {
		t.Error("link not restored")
	}
	// Invalid patches.
	if err := ag.Patch(context.Background(), port, map[string]any{"LinkState": "Sideways"}); err == nil {
		t.Error("bad state accepted")
	}
	if err := ag.Patch(context.Background(), port, map[string]any{"Name": "x"}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("err = %v", err)
	}
	if err := ag.Patch(context.Background(), ag.FabricID().Append("Endpoints", "h0"), map[string]any{"LinkState": "Disabled"}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("err = %v", err)
	}
}

func TestLinkEventPublishesAlert(t *testing.T) {
	svc, fab, _ := newAgent(t)
	before := svc.Bus().Stats().Published
	if err := fab.FailLink("sw0", "h0"); err != nil {
		t.Fatal(err)
	}
	if after := svc.Bus().Stats().Published; after <= before {
		t.Error("no alert published on link failure")
	}
}

func TestFailureTriggersReroute(t *testing.T) {
	svc := service.New(service.Config{DirectWrites: true})
	defer svc.Close()
	fab := fabsim.New()
	spec, err := fabsim.BuildFatTree(fab, "n", 2, 2, 1, 100, 400)
	if err != nil {
		t.Fatal(err)
	}
	ag := New(&agent.Local{Service: svc}, fab, "IB", redfish.ProtocolInfiniBand)
	for uri, meta := range ag.Collections() {
		svc.Store().RegisterCollection(uri, meta[0], meta[1])
	}
	if err := ag.Start(); err != nil {
		t.Fatal(err)
	}
	conn := redfish.Connection{
		Resource: odata.NewResource(ag.FabricID().Append("Connections", "1"), redfish.TypeConnection, "c"),
		Links: redfish.ConnectionLinks{
			InitiatorEndpoints: []odata.Ref{odata.NewRef(ag.FabricID().Append("Endpoints", spec.Endpoints[0]))},
			TargetEndpoints:    []odata.Ref{odata.NewRef(ag.FabricID().Append("Endpoints", spec.Endpoints[1]))},
		},
	}
	if err := ag.CreateConnection(context.Background(), &conn); err != nil {
		t.Fatal(err)
	}
	route := fab.Flows()[0].Route
	spine := route[2]
	if err := fab.FailLink(route[1], spine); err != nil {
		t.Fatal(err)
	}
	// The agent's event hook reroutes synchronously (Local conn).
	newRoute := fab.Flows()[0].Route
	if newRoute[2] == spine {
		t.Errorf("flow not rerouted: %v", newRoute)
	}
}

// deleteLeavesTree runs a delete of an id the agent does not hold (one
// made before it restarted, say): there is nothing to undo, so it
// succeeds and leaves the tree as it was.
func deleteLeavesTree(t *testing.T, svc *service.Service, del func() error) {
	t.Helper()
	before, err := svc.Store().Export()
	if err != nil {
		t.Fatal(err)
	}
	if err := del(); err != nil {
		t.Errorf("delete of an id the agent does not hold: %v", err)
	}
	if after, _ := svc.Store().Export(); !bytes.Equal(before, after) {
		t.Error("delete of an id the agent does not hold changed the tree")
	}
}
