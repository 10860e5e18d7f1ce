package gpuagent

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"ofmf/internal/agent"
	"ofmf/internal/emul/gpusim"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
)

func newAgent(t *testing.T) (*service.Service, *gpusim.Pool, *Agent) {
	t.Helper()
	svc := service.New(service.Config{DirectWrites: true})
	t.Cleanup(svc.Close)
	pool := gpusim.New()
	if err := pool.AddGPU("gpu0", "A100", 40960, 7); err != nil {
		t.Fatal(err)
	}
	ag := New(&agent.Local{Service: svc}, pool, "PCIe", "GPUPool")
	for uri, meta := range ag.Collections() {
		svc.Store().RegisterCollection(uri, meta[0], meta[1])
	}
	if err := ag.Start(); err != nil {
		t.Fatal(err)
	}
	return svc, pool, ag
}

func TestPublishContents(t *testing.T) {
	svc, _, ag := newAgent(t)
	st := svc.Store()
	for _, id := range []odata.ID{
		ag.FabricID(),
		ag.ChassisID(),
		ag.ChassisID().Append("GPUs", "gpu0"),
	} {
		if !st.Exists(id) {
			t.Errorf("missing %s", id)
		}
	}
	var gpu redfish.Processor
	if err := st.GetAs(ag.ChassisID().Append("GPUs", "gpu0"), &gpu); err != nil {
		t.Fatal(err)
	}
	if gpu.ProcessorType != "GPU" || gpu.TotalCores != 7 {
		t.Errorf("gpu = %+v", gpu)
	}
}

func TestPartitionLifecycle(t *testing.T) {
	svc, pool, ag := newAgent(t)
	procs := ag.ChassisID().Append("Processors")
	uri, err := svc.ProvisionResource(context.Background(), procs, []byte(`{"Oem":{"OFMF":{"Slices":3}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if pool.FreeSlices() != 4 {
		t.Errorf("free = %d", pool.FreeSlices())
	}
	// Endpoint published for the partition.
	ep := ag.FabricID().Append("Endpoints", uri.Leaf())
	if !svc.Store().Exists(ep) {
		t.Errorf("missing endpoint %s", ep)
	}
	// Attach.
	conn := redfish.Connection{
		Resource: odata.NewResource(ag.FabricID().Append("Connections", "1"), redfish.TypeConnection, "c"),
		Links: redfish.ConnectionLinks{
			InitiatorEndpoints: []odata.Ref{odata.NewRef(service.SystemsURI.Append("nodeX"))},
			TargetEndpoints:    []odata.Ref{odata.NewRef(ep)},
		},
	}
	if err := ag.CreateConnection(context.Background(), &conn); err != nil {
		t.Fatal(err)
	}
	parts := pool.Partitions()
	if parts[0].Host != "nodeX" {
		t.Errorf("host = %q", parts[0].Host)
	}
	// Published partition shows the attachment.
	var proc redfish.Processor
	if err := svc.Store().GetAs(uri, &proc); err != nil {
		t.Fatal(err)
	}
	if proc.Status.State != odata.StateComposed {
		t.Errorf("state = %s", proc.Status.State)
	}
	// Deleting an attached partition fails; detach first.
	if err := ag.DeleteResource(context.Background(), uri); err == nil {
		t.Error("attached partition deleted")
	}
	if err := ag.DeleteConnection(context.Background(), conn.ODataID); err != nil {
		t.Fatal(err)
	}
	if err := ag.DeleteResource(context.Background(), uri); err != nil {
		t.Fatal(err)
	}
	if pool.FreeSlices() != 7 {
		t.Errorf("free = %d", pool.FreeSlices())
	}
}

func TestConnectionValidation(t *testing.T) {
	svc, _, ag := newAgent(t)
	if err := ag.CreateConnection(context.Background(), &redfish.Connection{}); !errors.Is(err, ErrBadConnection) {
		t.Errorf("err = %v", err)
	}
	conn := redfish.Connection{
		Links: redfish.ConnectionLinks{
			InitiatorEndpoints: []odata.Ref{odata.NewRef(service.SystemsURI.Append("nodeX"))},
			TargetEndpoints:    []odata.Ref{odata.NewRef(ag.FabricID().Append("Endpoints", "ghost"))},
		},
	}
	if err := ag.CreateConnection(context.Background(), &conn); !errors.Is(err, ErrUnknownPartition) {
		t.Errorf("err = %v", err)
	}
	deleteLeavesTree(t, svc, func() error {
		return ag.DeleteConnection(context.Background(), "/redfish/v1/Fabrics/PCIe/Connections/9")
	})
}

func TestProvisionValidation(t *testing.T) {
	svc, _, ag := newAgent(t)
	procs := ag.ChassisID().Append("Processors")
	if _, err := ag.CreateResource(context.Background(), ag.ChassisID().Append("GPUs"), "/x", []byte(`{}`)); !errors.Is(err, ErrUnsupported) {
		t.Errorf("err = %v", err)
	}
	// Default slice count is 1.
	uri, err := ag.CreateResource(context.Background(), procs, procs.Append("d"), []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	proc := uri.(redfish.Processor)
	if proc.TotalCores != 1 {
		t.Errorf("default slices = %d", proc.TotalCores)
	}
	// Over capacity.
	if _, err := ag.CreateResource(context.Background(), procs, procs.Append("e"), []byte(`{"Oem":{"OFMF":{"Slices":100}}}`)); err == nil {
		t.Error("oversized partition accepted")
	}
	// Explicit GPU selection.
	if _, err := ag.CreateResource(context.Background(), procs, procs.Append("f"), []byte(`{"Oem":{"OFMF":{"GPU":"ghost"}}}`)); err == nil {
		t.Error("unknown gpu accepted")
	}
	deleteLeavesTree(t, svc, func() error { return ag.DeleteResource(context.Background(), procs.Append("nope")) })
}

func TestPatchUnsupported(t *testing.T) {
	_, _, ag := newAgent(t)
	if err := ag.Patch(context.Background(), ag.ChassisID().Append("GPUs", "gpu0"), map[string]any{"Model": "x"}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("err = %v", err)
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
