package cxlagent

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"testing"

	"ofmf/internal/agent"
	"ofmf/internal/emul/cxlsim"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
)

func newAgent(t *testing.T) (*service.Service, *cxlsim.Appliance, *Agent) {
	t.Helper()
	svc := service.New(service.Config{DirectWrites: true})
	t.Cleanup(svc.Close)
	app := cxlsim.New(cxlsim.WithoutSleep())
	if err := app.AddDevice("dev0", 4096, "DRAM"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"hostA", "hostB"} {
		if err := app.AddPort(p); err != nil {
			t.Fatal(err)
		}
	}
	ag := New(&agent.Local{Service: svc}, app, "CXL", "MemApp")
	for uri, meta := range ag.Collections() {
		svc.Store().RegisterCollection(uri, meta[0], meta[1])
	}
	if err := ag.Start(); err != nil {
		t.Fatal(err)
	}
	return svc, app, ag
}

func carve(t *testing.T, svc *service.Service, ag *Agent, sizeMiB int) odata.ID {
	t.Helper()
	payload := json.RawMessage([]byte(`{"MemoryChunkSizeMiB": ` + strconv.Itoa(sizeMiB) + `}`))
	uri, err := svc.ProvisionResource(context.Background(), ag.ChassisID().Append("MemoryDomains", "Domain0", "MemoryChunks"), payload)
	if err != nil {
		t.Fatal(err)
	}
	return uri
}

func TestPublishContents(t *testing.T) {
	svc, _, ag := newAgent(t)
	st := svc.Store()
	// Fabric root, switch, host endpoints, device endpoint, memory device,
	// memory domain all present.
	for _, id := range []odata.ID{
		ag.FabricID(),
		ag.FabricID().Append("Switches", "Switch0"),
		ag.FabricID().Append("Switches", "Switch0", "Ports", "hostA"),
		ag.FabricID().Append("Endpoints", "hostA"),
		ag.FabricID().Append("Endpoints", "dev0"),
		ag.ChassisID(),
		ag.ChassisID().Append("Memory", "dev0"),
		ag.ChassisID().Append("MemoryDomains", "Domain0"),
	} {
		if !st.Exists(id) {
			t.Errorf("missing %s", id)
		}
	}
	var mem redfish.Memory
	if err := st.GetAs(ag.ChassisID().Append("Memory", "dev0"), &mem); err != nil {
		t.Fatal(err)
	}
	if mem.CapacityMiB != 4096 || mem.AllocatedMiB != 0 {
		t.Errorf("memory = %+v", mem)
	}
}

func TestPublishReflectsAllocation(t *testing.T) {
	svc, _, ag := newAgent(t)
	carve(t, svc, ag, 1024)
	var mem redfish.Memory
	if err := svc.Store().GetAs(ag.ChassisID().Append("Memory", "dev0"), &mem); err != nil {
		t.Fatal(err)
	}
	if mem.AllocatedMiB != 1024 {
		t.Errorf("allocated = %d", mem.AllocatedMiB)
	}
}

func TestCreateConnectionValidation(t *testing.T) {
	svc, _, ag := newAgent(t)
	// No initiators / no chunk info.
	if err := ag.CreateConnection(context.Background(), &redfish.Connection{}); !errors.Is(err, ErrBadConnection) {
		t.Errorf("err = %v", err)
	}
	// Unknown chunk reference.
	err := ag.CreateConnection(context.Background(), &redfish.Connection{
		MemoryChunkInfo: []redfish.MemoryChunkInfo{{MemoryChunk: redfish.Ref("/redfish/v1/ghost")}},
		Links: redfish.ConnectionLinks{
			InitiatorEndpoints: []odata.Ref{odata.NewRef(ag.FabricID().Append("Endpoints", "hostA"))},
		},
	})
	if !errors.Is(err, ErrUnknownChunk) {
		t.Errorf("err = %v", err)
	}
	// Unknown endpoint.
	chunk := carve(t, svc, ag, 256)
	err = ag.CreateConnection(context.Background(), &redfish.Connection{
		MemoryChunkInfo: []redfish.MemoryChunkInfo{{MemoryChunk: redfish.Ref(chunk)}},
		Links: redfish.ConnectionLinks{
			InitiatorEndpoints: []odata.Ref{odata.NewRef(ag.FabricID().Append("Endpoints", "ghost"))},
		},
	})
	if !errors.Is(err, ErrUnknownEndpoint) {
		t.Errorf("err = %v", err)
	}
}

func TestCreateConnectionRollbackOnHeadLimit(t *testing.T) {
	svc, app, ag := newAgent(t)
	chunk := carve(t, svc, ag, 256) // MaxHeads defaults to 1
	conn := redfish.Connection{
		Resource:        odata.NewResource(ag.FabricID().Append("Connections", "X"), redfish.TypeConnection, "X"),
		MemoryChunkInfo: []redfish.MemoryChunkInfo{{MemoryChunk: redfish.Ref(chunk)}},
		Links: redfish.ConnectionLinks{
			InitiatorEndpoints: []odata.Ref{
				odata.NewRef(ag.FabricID().Append("Endpoints", "hostA")),
				odata.NewRef(ag.FabricID().Append("Endpoints", "hostB")), // exceeds heads
			},
		},
	}
	if err := ag.CreateConnection(context.Background(), &conn); err == nil {
		t.Fatal("two-headed bind on single-head chunk accepted")
	}
	// Rollback: nothing left bound.
	for _, c := range app.Chunks() {
		if len(c.BoundPorts()) != 0 {
			t.Errorf("leaked binding: %v", c.BoundPorts())
		}
	}
}

func TestDeleteConnectionUnknown(t *testing.T) {
	svc, _, ag := newAgent(t)
	deleteLeavesTree(t, svc, func() error {
		return ag.DeleteConnection(context.Background(), "/redfish/v1/Fabrics/CXL/Connections/99")
	})
}

func TestProvisionValidation(t *testing.T) {
	svc, _, ag := newAgent(t)
	// Wrong collection.
	if _, err := ag.CreateResource(context.Background(), "/redfish/v1/Chassis/MemApp/Memory", "/x", []byte(`{}`)); !errors.Is(err, ErrUnsupported) {
		t.Errorf("err = %v", err)
	}
	chunks := ag.ChassisID().Append("MemoryDomains", "Domain0", "MemoryChunks")
	// Zero size.
	if _, err := ag.CreateResource(context.Background(), chunks, chunks.Append("1"), []byte(`{"MemoryChunkSizeMiB":0}`)); err == nil {
		t.Error("zero-size chunk accepted")
	}
	// Malformed payload.
	if _, err := ag.CreateResource(context.Background(), chunks, chunks.Append("1"), []byte(`{`)); err == nil {
		t.Error("malformed payload accepted")
	}
	// Over capacity.
	if _, err := ag.CreateResource(context.Background(), chunks, chunks.Append("1"), []byte(`{"MemoryChunkSizeMiB":999999}`)); err == nil {
		t.Error("oversized chunk accepted")
	}
	deleteLeavesTree(t, svc, func() error { return ag.DeleteResource(context.Background(), chunks.Append("77")) })
}

func TestExplicitDeviceSelection(t *testing.T) {
	svc, app, ag := newAgent(t)
	if err := app.AddDevice("dev1", 8192, "DRAM"); err != nil {
		t.Fatal(err)
	}
	if err := ag.Publish(); err != nil {
		t.Fatal(err)
	}
	chunks := ag.ChassisID().Append("MemoryDomains", "Domain0", "MemoryChunks")
	uri, err := svc.ProvisionResource(context.Background(), chunks, []byte(`{"MemoryChunkSizeMiB":512,"Oem":{"OFMF":{"Device":"dev0"}}}`))
	if err != nil {
		t.Fatal(err)
	}
	_ = uri
	for _, d := range app.Devices() {
		switch d.ID {
		case "dev0":
			if d.AllocatedMiB() != 512 {
				t.Errorf("dev0 allocated = %d", d.AllocatedMiB())
			}
		case "dev1":
			if d.AllocatedMiB() != 0 {
				t.Errorf("dev1 allocated = %d", d.AllocatedMiB())
			}
		}
	}
}

func TestZoneBookkeeping(t *testing.T) {
	svc, _, ag := newAgent(t)
	zone := redfish.Zone{Resource: odata.NewResource(ag.FabricID().Append("Zones", "1"), redfish.TypeZone, "z")}
	if err := ag.CreateZone(context.Background(), &zone); err != nil {
		t.Fatal(err)
	}
	if err := ag.DeleteZone(context.Background(), zone.ODataID); err != nil {
		t.Fatal(err)
	}
	deleteLeavesTree(t, svc, func() error { return ag.DeleteZone(context.Background(), zone.ODataID) })
}

func TestPatchUnsupported(t *testing.T) {
	_, _, ag := newAgent(t)
	if err := ag.Patch(context.Background(), ag.FabricID().Append("Endpoints", "hostA"), map[string]any{"Name": "x"}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("err = %v", err)
	}
}

func TestHardwareEventsForwarded(t *testing.T) {
	svc, app, ag := newAgent(t)
	_ = ag
	recs := make(chan redfish.EventRecord, 16)
	svc.Store() // ensure wired
	// Listen directly on the bus via a synchronous subscription substitute:
	// drive the appliance and check the bus counters instead.
	before := svc.Bus().Stats().Published
	id, err := app.Carve("dev0", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = app.Bind(id, "hostA")
	close(recs)
	after := svc.Bus().Stats().Published
	if after <= before {
		t.Errorf("no events published: %d -> %d", before, after)
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
