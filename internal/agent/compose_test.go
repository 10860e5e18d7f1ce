package agent_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"ofmf/internal/agent"
	"ofmf/internal/agent/cxlagent"
	"ofmf/internal/agent/gpuagent"
	"ofmf/internal/agent/nvmeagent"
	"ofmf/internal/composer"
	"ofmf/internal/core"
	"ofmf/internal/emul/gpusim"
	"ofmf/internal/emul/nvmesim"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
)

// TestBareNodeComposesThroughRemoteAgents runs the composer as a node
// without the testbed has it: its pools are what remote CXL, NVMe and
// GPU agents register over HTTP, its nodes the Physical systems
// published into the tree. A compose provisions and binds a chunk, a
// volume and a GPU partition on the agents' hardware, and decomposing
// frees them.
func TestBareNodeComposesThroughRemoteAgents(t *testing.T) {
	f, err := core.Assemble(core.Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	tb := &testbed{svc: f.Service, srv: srv}
	remote := func() *agent.Remote {
		r := &agent.Remote{BaseURL: srv.URL}
		ops := httptest.NewServer(r.Handler())
		t.Cleanup(ops.Close)
		r.CallbackURL = ops.URL
		return r
	}

	app := newCXLAppliance(t) // ports node1 and node2
	target := nvmesim.New()
	if err := target.AddPool("pool0", 1<<40); err != nil {
		t.Fatal(err)
	}
	gpus := gpusim.New()
	if err := gpus.AddGPU("gpu0", "A100", 40960, 7); err != nil {
		t.Fatal(err)
	}
	cxl := cxlagent.New(remote(), app, "CXL", "CXLMemoryAppliance")
	nvme := nvmeagent.New(remote(), target, "NVMe", "JBOF1")
	gpu := gpuagent.New(remote(), gpus, "PCIe", "GPUPool")
	for _, n := range []string{"node1", "node2"} {
		nvme.RegisterHost(n)
		uri := service.SystemsURI.Append(n)
		if err := f.Service.Store().Put(uri, redfish.ComputerSystem{
			Resource:         odata.NewResource(uri, redfish.TypeComputerSystem, n),
			SystemType:       redfish.SystemTypePhysical,
			ProcessorSummary: &redfish.ProcessorSummary{Count: 1, TotalCores: 8},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range []interface {
		Start() error
		Stop()
	}{cxl, nvme, gpu} {
		if err := a.Start(); err != nil {
			t.Fatal(err)
		}
		defer a.Stop()
	}

	resp, body := tb.do(t, http.MethodPost, "/composer/v1/Compose", composer.Request{
		Name: "job", Cores: 4, FabricMemoryMiB: 1024, StorageBytes: 1 << 30, GPUSlices: 1})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("compose = %s: %s", resp.Status, body)
	}
	var comp composer.Composition
	if err := json.Unmarshal(body, &comp); err != nil {
		t.Fatal(err)
	}
	chunks, vols, parts := app.Chunks(), target.Volumes(), gpus.Partitions()
	if len(chunks) != 1 || len(chunks[0].BoundPorts()) != 1 || chunks[0].BoundPorts()[0] != comp.Node {
		t.Errorf("chunks = %+v, want one bound to %s", chunks, comp.Node)
	}
	if len(vols) != 1 || vols[0].Subsystem == "" {
		t.Errorf("volumes = %+v, want one attached", vols)
	}
	if len(parts) != 1 || parts[0].Host != comp.Node {
		t.Errorf("partitions = %+v, want one on %s", parts, comp.Node)
	}

	if resp, body := tb.do(t, http.MethodDelete, "/composer/v1/Compositions/"+comp.ID, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("decompose = %s: %s", resp.Status, body)
	}
	if c, v, p := len(app.Chunks()), len(target.Volumes()), len(gpus.Partitions()); c+v+p != 0 {
		t.Errorf("hardware keeps %d chunks, %d volumes, %d partitions", c, v, p)
	}
	if stats := f.Composer.Stats(); stats.UsedCores != 0 || stats.FreeMemoryMiB != 65536 || stats.FreeGPUSlices != 7 {
		t.Errorf("stats = %+v, want everything free", stats)
	}
}
