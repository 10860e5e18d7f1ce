package nvmeagent

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"ofmf/internal/agent"
	"ofmf/internal/emul/nvmesim"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
)

func newAgent(t *testing.T) (*service.Service, *nvmesim.Target, *Agent) {
	t.Helper()
	svc := service.New(service.Config{DirectWrites: true})
	t.Cleanup(svc.Close)
	target := nvmesim.New()
	if err := target.AddPool("pool0", 1<<30); err != nil {
		t.Fatal(err)
	}
	ag := New(&agent.Local{Service: svc}, target, "NVMe", "JBOF")
	for uri, meta := range ag.Collections() {
		svc.Store().RegisterCollection(uri, meta[0], meta[1])
	}
	ag.RegisterHost("hostA")
	if err := ag.Start(); err != nil {
		t.Fatal(err)
	}
	return svc, target, ag
}

func provision(t *testing.T, svc *service.Service, ag *Agent, bytes int64) odata.ID {
	t.Helper()
	uri, err := svc.ProvisionResource(context.Background(), ag.StorageID().Append("Volumes"),
		[]byte(`{"CapacityBytes": 1048576}`))
	if err != nil {
		t.Fatal(err)
	}
	return uri
}

func TestPublishContents(t *testing.T) {
	svc, _, ag := newAgent(t)
	st := svc.Store()
	for _, id := range []odata.ID{
		ag.FabricID(),
		ag.FabricID().Append("Endpoints", "hostA"),
		ag.StorageID(),
		ag.StorageID().Append("StoragePools", "pool0"),
	} {
		if !st.Exists(id) {
			t.Errorf("missing %s", id)
		}
	}
	var pool redfish.StoragePool
	if err := st.GetAs(ag.StorageID().Append("StoragePools", "pool0"), &pool); err != nil {
		t.Fatal(err)
	}
	if pool.Capacity.Data.AllocatedBytes != 1<<30 {
		t.Errorf("pool = %+v", pool)
	}
}

func TestConnectionValidation(t *testing.T) {
	svc, _, ag := newAgent(t)
	if err := ag.CreateConnection(context.Background(), &redfish.Connection{}); !errors.Is(err, ErrBadConnection) {
		t.Errorf("err = %v", err)
	}
	vol := provision(t, svc, ag, 1<<20)
	// Unknown host endpoint.
	err := ag.CreateConnection(context.Background(), &redfish.Connection{
		VolumeInfo: []redfish.VolumeInfo{{Volume: redfish.Ref(vol)}},
		Links: redfish.ConnectionLinks{
			InitiatorEndpoints: []odata.Ref{odata.NewRef(ag.FabricID().Append("Endpoints", "ghost"))},
		},
	})
	if !errors.Is(err, ErrUnknownEndpoint) {
		t.Errorf("err = %v", err)
	}
	// Unknown volume.
	err = ag.CreateConnection(context.Background(), &redfish.Connection{
		VolumeInfo: []redfish.VolumeInfo{{Volume: redfish.Ref("/redfish/v1/ghost")}},
		Links: redfish.ConnectionLinks{
			InitiatorEndpoints: []odata.Ref{odata.NewRef(ag.FabricID().Append("Endpoints", "hostA"))},
		},
	})
	if !errors.Is(err, ErrUnknownVolume) {
		t.Errorf("err = %v", err)
	}
}

func TestConnectionLifecycleCreatesSubsystem(t *testing.T) {
	svc, target, ag := newAgent(t)
	vol := provision(t, svc, ag, 1<<20)
	conn := redfish.Connection{
		Resource:   odata.NewResource(ag.FabricID().Append("Connections", "1"), redfish.TypeConnection, "1"),
		VolumeInfo: []redfish.VolumeInfo{{Volume: redfish.Ref(vol)}},
		Links: redfish.ConnectionLinks{
			InitiatorEndpoints: []odata.Ref{odata.NewRef(ag.FabricID().Append("Endpoints", "hostA"))},
		},
	}
	if err := ag.CreateConnection(context.Background(), &conn); err != nil {
		t.Fatal(err)
	}
	subs := target.Subsystems()
	if len(subs) != 1 {
		t.Fatalf("subsystems = %v", subs)
	}
	info, _ := target.SubsystemInfo(subs[0])
	if len(info.Hosts()) != 1 || len(info.Namespaces()) != 1 {
		t.Errorf("subsystem = hosts %v namespaces %v", info.Hosts(), info.Namespaces())
	}
	// The subsystem endpoint appears in the published fabric.
	members, err := svc.Store().Members(ag.FabricID().Append("Endpoints"))
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 { // hostA + subsystem
		t.Errorf("endpoints = %v", members)
	}
	// Teardown disconnects the host when it was the last user.
	if err := ag.DeleteConnection(context.Background(), conn.ODataID); err != nil {
		t.Fatal(err)
	}
	info, _ = target.SubsystemInfo(subs[0])
	if len(info.Hosts()) != 0 {
		t.Errorf("host still connected: %v", info.Hosts())
	}
	deleteLeavesTree(t, svc, func() error { return ag.DeleteConnection(context.Background(), conn.ODataID) })
}

func TestSharedSubsystemRefcounting(t *testing.T) {
	svc, target, ag := newAgent(t)
	v1 := provision(t, svc, ag, 1<<20)
	v2 := provision(t, svc, ag, 1<<20)
	mk := func(name string, vol odata.ID) redfish.Connection {
		return redfish.Connection{
			Resource:   odata.NewResource(ag.FabricID().Append("Connections", name), redfish.TypeConnection, name),
			VolumeInfo: []redfish.VolumeInfo{{Volume: redfish.Ref(vol)}},
			Links: redfish.ConnectionLinks{
				InitiatorEndpoints: []odata.Ref{odata.NewRef(ag.FabricID().Append("Endpoints", "hostA"))},
			},
		}
	}
	c1, c2 := mk("1", v1), mk("2", v2)
	if err := ag.CreateConnection(context.Background(), &c1); err != nil {
		t.Fatal(err)
	}
	if err := ag.CreateConnection(context.Background(), &c2); err != nil {
		t.Fatal(err)
	}
	// Deleting one connection keeps the host connected for the other.
	if err := ag.DeleteConnection(context.Background(), c1.ODataID); err != nil {
		t.Fatal(err)
	}
	info, _ := target.SubsystemInfo(ag.hostSubsysNQN("hostA"))
	if len(info.Hosts()) != 1 {
		t.Errorf("host disconnected while still using a namespace: %v", info.Hosts())
	}
	if err := ag.DeleteConnection(context.Background(), c2.ODataID); err != nil {
		t.Fatal(err)
	}
	info, _ = target.SubsystemInfo(ag.hostSubsysNQN("hostA"))
	if len(info.Hosts()) != 0 {
		t.Errorf("host still connected: %v", info.Hosts())
	}
}

func TestProvisionValidation(t *testing.T) {
	svc, _, ag := newAgent(t)
	vols := ag.StorageID().Append("Volumes")
	if _, err := ag.CreateResource(context.Background(), ag.FabricID().Append("Endpoints"), "/x", []byte(`{}`)); !errors.Is(err, ErrUnsupported) {
		t.Errorf("err = %v", err)
	}
	if _, err := ag.CreateResource(context.Background(), vols, vols.Append("1"), []byte(`{"CapacityBytes":0}`)); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := ag.CreateResource(context.Background(), vols, vols.Append("1"), []byte(`{"CapacityBytes": 99999999999999}`)); err == nil {
		t.Error("over-capacity accepted")
	}
	deleteLeavesTree(t, svc, func() error { return ag.DeleteResource(context.Background(), vols.Append("42")) })
}

func TestSanitize(t *testing.T) {
	if got := sanitize("nqn.2023-05.org.ofmf:subsys:hostA"); got != "nqn.2023-05.org.ofmf_subsys_hostA" {
		t.Errorf("sanitize = %q", got)
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
