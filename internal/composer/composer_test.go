package composer_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ofmf/internal/composer"
	"ofmf/internal/core"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
	"ofmf/internal/store"
)

func newFramework(t *testing.T, cfg core.Config) *core.Framework {
	t.Helper()
	f, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func TestComposeFullSystem(t *testing.T) {
	f := newFramework(t, core.Config{Nodes: 2})
	comp, err := f.Composer.Compose(composer.Request{
		Name:            "hpc-job-1",
		Cores:           16,
		FabricMemoryMiB: 4096,
		StorageBytes:    1 << 30,
		GPUSlices:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Node == "" || comp.SystemURI == "" {
		t.Fatalf("composition = %+v", comp)
	}
	if len(comp.Resources) != 3 {
		t.Fatalf("resources = %v", comp.Resources)
	}

	// Hardware state reflects the composition.
	if f.CXL.FreeMiB() != 4*256*1024-4096 {
		t.Errorf("cxl free = %d", f.CXL.FreeMiB())
	}
	if f.GPUs.FreeSlices() != 8*7-2 {
		t.Errorf("gpu free = %d", f.GPUs.FreeSlices())
	}
	pools := f.NVMe.Pools()
	if pools[0].AllocatedBytes() != 1<<30 {
		t.Errorf("nvme allocated = %d", pools[0].AllocatedBytes())
	}

	// The composed system is published with resource links.
	var sys redfish.ComputerSystem
	if err := f.Service.Store().GetAs(comp.SystemURI, &sys); err != nil {
		t.Fatal(err)
	}
	if sys.SystemType != redfish.SystemTypeComposed {
		t.Errorf("system type = %s", sys.SystemType)
	}
	if len(sys.Links.ResourceBlocks) != 1 || sys.Links.ResourceBlocks[0].ODataID != comp.BlockURI {
		t.Errorf("resource links = %v, want the composition's block", sys.Links.ResourceBlocks)
	}

	// Decompose returns every resource to the pool.
	if err := f.Composer.Decompose(comp.ID); err != nil {
		t.Fatal(err)
	}
	if f.CXL.FreeMiB() != 4*256*1024 {
		t.Errorf("cxl free after decompose = %d", f.CXL.FreeMiB())
	}
	if f.GPUs.FreeSlices() != 8*7 {
		t.Errorf("gpu free after decompose = %d", f.GPUs.FreeSlices())
	}
	if f.NVMe.Pools()[0].AllocatedBytes() != 0 {
		t.Errorf("nvme allocated after decompose = %d", f.NVMe.Pools()[0].AllocatedBytes())
	}
	if f.Service.Store().Exists(comp.SystemURI) {
		t.Error("composed system survived decompose")
	}
	stats := f.Composer.Stats()
	if stats.UsedCores != 0 || stats.Compositions != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestCompositionZonesFabric(t *testing.T) {
	f := newFramework(t, core.Config{Nodes: 1})
	comp, err := f.Composer.Compose(composer.Request{Cores: 4, FabricMemoryMiB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	zones, err := f.Service.Store().Members(f.CXLAgent.FabricID().Append("Zones"))
	if err != nil {
		t.Fatal(err)
	}
	if len(zones) != 1 {
		t.Fatalf("zones = %v", zones)
	}
	var zone redfish.Zone
	if err := f.Service.Store().GetAs(zones[0], &zone); err != nil {
		t.Fatal(err)
	}
	if zone.ZoneType != redfish.ZoneTypeZoneOfEndpoints || len(zone.Links.Endpoints) != 1 {
		t.Errorf("zone = %+v", zone)
	}
	if err := f.Composer.Decompose(comp.ID); err != nil {
		t.Fatal(err)
	}
	zones, _ = f.Service.Store().Members(f.CXLAgent.FabricID().Append("Zones"))
	if len(zones) != 0 {
		t.Errorf("zones after decompose = %v", zones)
	}
}

func TestResourceBlockPublished(t *testing.T) {
	f := newFramework(t, core.Config{Nodes: 1})
	comp, err := f.Composer.Compose(composer.Request{Cores: 4, FabricMemoryMiB: 1024, GPUSlices: 1})
	if err != nil {
		t.Fatal(err)
	}
	if comp.BlockURI.IsZero() {
		t.Fatal("no resource block URI")
	}
	var block redfish.ResourceBlock
	if err := f.Service.Store().GetAs(comp.BlockURI, &block); err != nil {
		t.Fatal(err)
	}
	if block.CompositionStatus.CompositionState != redfish.CompositionComposed {
		t.Errorf("state = %s", block.CompositionStatus.CompositionState)
	}
	if len(block.Memory) != 1 || len(block.Processors) != 1 || len(block.Storage) != 0 {
		t.Errorf("block members = mem %d / gpu %d / sto %d", len(block.Memory), len(block.Processors), len(block.Storage))
	}
	wantTypes := map[string]bool{redfish.BlockCompute: true, redfish.BlockMemory: true, redfish.BlockProcessor: true}
	for _, bt := range block.ResourceBlockType {
		delete(wantTypes, bt)
	}
	if len(wantTypes) != 0 {
		t.Errorf("missing block types: %v (got %v)", wantTypes, block.ResourceBlockType)
	}
	if len(block.Links.ComputerSystems) != 1 || block.Links.ComputerSystems[0].ODataID != comp.SystemURI {
		t.Errorf("links = %+v", block.Links)
	}

	// Hot-add refreshes the block's member list.
	if err := f.Composer.HotAddMemory(comp.ID, 512); err != nil {
		t.Fatal(err)
	}
	if err := f.Service.Store().GetAs(comp.BlockURI, &block); err != nil {
		t.Fatal(err)
	}
	if len(block.Memory) != 2 {
		t.Errorf("memory after hot-add = %d", len(block.Memory))
	}

	// Decompose removes the block.
	if err := f.Composer.Decompose(comp.ID); err != nil {
		t.Fatal(err)
	}
	if f.Service.Store().Exists(comp.BlockURI) {
		t.Error("block survived decompose")
	}
	members, err := f.Service.Store().Members(service.ResourceBlocksURI)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 0 {
		t.Errorf("blocks remaining: %v", members)
	}
}

func TestComposeValidation(t *testing.T) {
	f := newFramework(t, core.Config{Nodes: 1})
	if _, err := f.Composer.Compose(composer.Request{Cores: 0}); !errors.Is(err, composer.ErrInvalidRequest) {
		t.Errorf("err = %v", err)
	}
	if _, err := f.Composer.Compose(composer.Request{Cores: 1, Node: "ghost"}); !errors.Is(err, composer.ErrUnknownNode) {
		t.Errorf("err = %v", err)
	}

	// Name becomes the last segment of the system's URI: anything but
	// one path segment would store the system outside the Systems
	// collection ("../Chassis/evil" used to land in /redfish/v1/Chassis).
	// Refused on the API and on both HTTP surfaces, before a node is
	// reserved or anything is stored.
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	before, err := f.Service.Store().Export()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"../Chassis/evil", "a/b", "/", ".", "..", "  "} {
		if _, err := f.Composer.Compose(composer.Request{Name: name, Cores: 1}); !errors.Is(err, composer.ErrInvalidRequest) {
			t.Errorf("Name %q: err = %v", name, err)
		}
		body, _ := json.Marshal(composer.Request{Name: name, Cores: 1})
		for _, path := range []string{"/composer/v1/Compose", string(service.SystemsURI)} {
			resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			reply, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(reply, []byte("@Message.ExtendedInfo")) {
				t.Errorf("POST %s Name %q = %d %s, want 400 with the Redfish envelope", path, name, resp.StatusCode, reply)
			}
		}
	}
	if got := f.Composer.Stats(); got.UsedCores != 0 || got.Compositions != 0 {
		t.Errorf("refused requests reserved something: %+v", got)
	}
	after, err := f.Service.Store().Export()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("refused requests changed the tree")
	}
}

func TestComposeNoCores(t *testing.T) {
	f := newFramework(t, core.Config{Nodes: 1, CoresPerNode: 8})
	if _, err := f.Composer.Compose(composer.Request{Cores: 9}); !errors.Is(err, composer.ErrNoCapacity) {
		t.Errorf("err = %v", err)
	}
	// Saturate then fail.
	if _, err := f.Composer.Compose(composer.Request{Cores: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Composer.Compose(composer.Request{Cores: 1}); !errors.Is(err, composer.ErrNoCapacity) {
		t.Errorf("err = %v", err)
	}
}

func TestComposeRollbackOnPoolExhaustion(t *testing.T) {
	// Memory succeeds, storage fails (ErrNoPool) → memory must be rolled back.
	f := newFramework(t, core.Config{Nodes: 1, NVMePoolBytes: 1024})
	before := f.CXL.FreeMiB()
	_, err := f.Composer.Compose(composer.Request{
		Cores:           4,
		FabricMemoryMiB: 1024,
		StorageBytes:    1 << 40, // larger than the pool
	})
	if !errors.Is(err, composer.ErrNoPool) {
		t.Fatalf("err = %v", err)
	}
	if f.CXL.FreeMiB() != before {
		t.Errorf("memory leaked: free = %d, want %d", f.CXL.FreeMiB(), before)
	}
	stats := f.Composer.Stats()
	if stats.UsedCores != 0 {
		t.Errorf("cores leaked: %+v", stats)
	}
	// Tree has no leftover chunk/connection resources.
	members, err := f.Service.Store().Members(f.CXLAgent.FabricID().Append("Connections"))
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 0 {
		t.Errorf("leftover connections: %v", members)
	}
}

// refuseConnections is a fabric's handler except that it refuses every
// connection.
type refuseConnections struct{ service.FabricHandler }

func (refuseConnections) CreateConnection(context.Context, *redfish.Connection) error {
	return errors.New("fabric refuses the connection")
}

// TestAttachRollback drives the composer's one rollback through every
// kind of pool and both ways an attach can fail after the node is
// reserved. The agent rejects the provisioning: each request fits the
// pool's total free capacity (so the composer asks) but no single device,
// so every pool is passed over and the error says why. Or the connection
// is rejected after the resource (and, for memory, the zone) exists: the
// composer node "stray" has no endpoint on the CXL and NVMe fabrics; the
// GPU agent attaches to any host, so its row swaps the fabric's handler
// for one that refuses. Either way nothing may be left behind — in the
// composer, the hardware, or the tree.
func TestAttachRollback(t *testing.T) {
	for _, tc := range []struct {
		name           string
		req            composer.Request
		refuseOnFabric bool
		wantNoPool     bool
	}{
		{"memory/provision rejected", composer.Request{Cores: 2, FabricMemoryMiB: 300 * 1024}, false, true}, // 4 devices of 256 GiB
		{"memory/connection rejected", composer.Request{Cores: 2, FabricMemoryMiB: 1024, Node: "stray"}, false, false},
		{"storage/provision rejected", composer.Request{Cores: 2, StorageBytes: 3 << 29}, false, true}, // 2 pools of 1 GiB
		{"storage/connection rejected", composer.Request{Cores: 2, StorageBytes: 1 << 20, Node: "stray"}, false, false},
		{"gpu/provision rejected", composer.Request{Cores: 2, GPUSlices: 8}, false, true}, // 8 GPUs of 7 slices
		{"gpu/connection rejected", composer.Request{Cores: 2, GPUSlices: 1, Node: "stray"}, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFramework(t, core.Config{Nodes: 1, NVMePoolBytes: 1 << 30})
			if err := f.NVMe.AddPool("pool1", 1<<30); err != nil {
				t.Fatal(err)
			}
			if err := f.NVMeAgent.Publish(); err != nil {
				t.Fatal(err)
			}
			stray := service.SystemsURI.Append("stray")
			if err := f.Service.Store().Put(stray, redfish.ComputerSystem{
				Resource:         odata.NewResource(stray, redfish.TypeComputerSystem, "stray"),
				SystemType:       redfish.SystemTypePhysical,
				ProcessorSummary: &redfish.ProcessorSummary{Count: 1, TotalCores: 8},
				MemorySummary:    &redfish.MemorySummary{TotalSystemMemoryGiB: 1},
			}); err != nil {
				t.Fatal(err)
			}
			if tc.refuseOnFabric {
				if err := f.Service.RegisterFabricHandler(f.GPUAgent.FabricID(), refuseConnections{f.GPUAgent}); err != nil {
					t.Fatal(err)
				}
			}
			stats, nodes := f.Composer.Stats(), f.Composer.Nodes()
			before, err := f.Service.Store().Export()
			if err != nil {
				t.Fatal(err)
			}

			_, err = f.Composer.Compose(tc.req)
			if tc.wantNoPool {
				// Still ErrNoPool (409), now naming the pool and its reason.
				if !errors.Is(err, composer.ErrNoPool) || !strings.Contains(err.Error(), "last rejection: pool ") {
					t.Fatalf("err = %v, want ErrNoPool carrying the last rejection", err)
				}
			} else if !service.IsAgentError(err) || !strings.Contains(err.Error(), " connection: ") {
				t.Fatalf("err = %v, want the agent's refusal of the connection", err)
			}

			if got := f.Composer.Stats(); got != stats {
				t.Errorf("stats = %+v, want %+v", got, stats)
			}
			if got := f.Composer.Nodes(); !reflect.DeepEqual(got, nodes) {
				t.Errorf("nodes = %+v, want %+v", got, nodes)
			}
			if got := f.Composer.Compositions(); len(got) != 0 {
				t.Errorf("compositions = %+v", got)
			}
			if c, v, p := len(f.CXL.Chunks()), len(f.NVMe.Volumes()), len(f.GPUs.Partitions()); c+v+p != 0 {
				t.Errorf("hardware keeps %d chunks, %d volumes, %d partitions", c, v, p)
			}
			after, err := f.Service.Store().Export()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Errorf("tree differs after the failed compose:\nbefore %s\nafter  %s", before, after)
			}
		})
	}
}

func TestNodePinning(t *testing.T) {
	f := newFramework(t, core.Config{Nodes: 3})
	comp, err := f.Composer.Compose(composer.Request{Cores: 4, Node: core.NodeName(2)})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Node != core.NodeName(2) {
		t.Errorf("node = %s", comp.Node)
	}
}

func TestHotAddMemory(t *testing.T) {
	f := newFramework(t, core.Config{Nodes: 1})
	comp, err := f.Composer.Compose(composer.Request{Cores: 4, FabricMemoryMiB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	before := f.CXL.FreeMiB()
	if err := f.Composer.HotAddMemory(comp.ID, 2048); err != nil {
		t.Fatal(err)
	}
	if f.CXL.FreeMiB() != before-2048 {
		t.Errorf("free = %d", f.CXL.FreeMiB())
	}
	got, err := f.Composer.Get(comp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Resources) != 2 {
		t.Errorf("resources = %v", got.Resources)
	}
	var sys redfish.ComputerSystem
	if err := f.Service.Store().GetAs(comp.SystemURI, &sys); err != nil {
		t.Fatal(err)
	}
	if len(sys.Links.ResourceBlocks) != 1 || sys.Links.ResourceBlocks[0].ODataID != comp.BlockURI {
		t.Errorf("system links = %v, want the composition's block", sys.Links.ResourceBlocks)
	}
	if err := f.Composer.HotAddMemory("ghost", 1); !errors.Is(err, composer.ErrUnknownComp) {
		t.Errorf("err = %v", err)
	}
}

func TestOOMRuleHotAdds(t *testing.T) {
	f := newFramework(t, core.Config{Nodes: 1, OOMHotAddMiB: 4096})
	comp, err := f.Composer.Compose(composer.Request{Cores: 4, FabricMemoryMiB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	before := f.CXL.FreeMiB()
	// A workload manager notices memory pressure and raises the alert.
	f.Rules.Dispatch(redfish.EventRecord{
		EventType:   redfish.EventAlert,
		EventID:     "oom-1",
		Severity:    "Critical",
		MessageID:   composer.MessageOutOfMemory,
		MessageArgs: []string{comp.ID},
	})
	if f.CXL.FreeMiB() != before-4096 {
		t.Errorf("free = %d, want %d", f.CXL.FreeMiB(), before-4096)
	}
	if f.Rules.Fired("oom-hot-add") != 1 {
		t.Errorf("rule fired %d times", f.Rules.Fired("oom-hot-add"))
	}
}

func TestPolicies(t *testing.T) {
	nodes := []composer.NodeState{
		{Name: "a", Cores: 16, UsedCores: 12}, // 4 free
		{Name: "b", Cores: 16, UsedCores: 4},  // 12 free
		{Name: "c", Cores: 16, UsedCores: 10}, // 6 free
	}
	req := composer.Request{Cores: 4}

	if got, err := (composer.FirstFit{}).SelectNode(nodes, req); err != nil || got != "a" {
		t.Errorf("FirstFit = %q, %v", got, err)
	}
	if got, err := (composer.BestFit{}).SelectNode(nodes, req); err != nil || got != "a" {
		t.Errorf("BestFit = %q, %v", got, err)
	}
	if got, err := (composer.WorstFit{}).SelectNode(nodes, req); err != nil || got != "b" {
		t.Errorf("WorstFit = %q, %v", got, err)
	}
	ta := composer.TopologyAware{Distance: func(node string, _ composer.Request) int {
		return map[string]int{"a": 3, "b": 2, "c": 1}[node]
	}}
	if got, err := ta.SelectNode(nodes, req); err != nil || got != "c" {
		t.Errorf("TopologyAware = %q, %v", got, err)
	}

	// Exhaustion paths.
	big := composer.Request{Cores: 100}
	for _, p := range []composer.Policy{composer.FirstFit{}, composer.BestFit{}, composer.WorstFit{}, ta} {
		if _, err := p.SelectNode(nodes, big); !errors.Is(err, composer.ErrNoCapacity) {
			t.Errorf("%T err = %v", p, err)
		}
	}
}

func TestComposerHTTPFacade(t *testing.T) {
	f := newFramework(t, core.Config{Nodes: 2})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	// Compose via REST.
	body, _ := json.Marshal(composer.Request{Cores: 8, FabricMemoryMiB: 2048})
	resp, err := http.Post(srv.URL+"/composer/v1/Compose", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("compose status = %d", resp.StatusCode)
	}
	var comp composer.Composition
	if err := json.NewDecoder(resp.Body).Decode(&comp); err != nil {
		t.Fatal(err)
	}

	// The composed system is visible through the Redfish side of the mux.
	resp2, err := http.Get(srv.URL + string(comp.SystemURI))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("system GET = %d", resp2.StatusCode)
	}

	// List, stats, hot-add, decompose.
	resp3, err := http.Get(srv.URL + "/composer/v1/Compositions")
	if err != nil {
		t.Fatal(err)
	}
	var list []composer.Composition
	if err := json.NewDecoder(resp3.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if len(list) != 1 {
		t.Errorf("list = %v", list)
	}

	hot, _ := json.Marshal(map[string]int64{"SizeMiB": 1024})
	resp4, err := http.Post(srv.URL+"/composer/v1/Compositions/"+comp.ID+"/Actions/HotAddMemory", "application/json", bytes.NewReader(hot))
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusNoContent {
		t.Errorf("hot-add status = %d", resp4.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/composer/v1/Compositions/"+comp.ID, nil)
	resp5, err := (&http.Client{}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp5.Body.Close()
	if resp5.StatusCode != http.StatusNoContent {
		t.Errorf("decompose status = %d", resp5.StatusCode)
	}
	if f.CXL.FreeMiB() != 4*256*1024 {
		t.Errorf("cxl free = %d", f.CXL.FreeMiB())
	}

	// Unknown composition paths.
	resp6, err := http.Get(srv.URL + "/composer/v1/Compositions/ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp6.Body.Close()
	if resp6.StatusCode != http.StatusNotFound {
		t.Errorf("unknown GET = %d", resp6.StatusCode)
	}
}

func TestMultipleCompositionsShareNode(t *testing.T) {
	f := newFramework(t, core.Config{Nodes: 1, CoresPerNode: 32})
	var comps []composer.Composition
	for i := 0; i < 4; i++ {
		comp, err := f.Composer.Compose(composer.Request{Cores: 8})
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, comp)
	}
	stats := f.Composer.Stats()
	if stats.UsedCores != 32 || stats.Compositions != 4 {
		t.Errorf("stats = %+v", stats)
	}
	for _, comp := range comps {
		if err := f.Composer.Decompose(comp.ID); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.Composer.Stats().UsedCores; got != 0 {
		t.Errorf("used cores = %d", got)
	}
}

func TestSharedMemoryMultiHead(t *testing.T) {
	// Two compositions on different nodes can share one multi-headed chunk
	// only through explicit hot-add paths; here we verify two separate
	// compositions each get their own chunk and the appliance serves both.
	f := newFramework(t, core.Config{Nodes: 2})
	c1, err := f.Composer.Compose(composer.Request{Cores: 4, FabricMemoryMiB: 1024, Node: core.NodeName(0)})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := f.Composer.Compose(composer.Request{Cores: 4, FabricMemoryMiB: 1024, Node: core.NodeName(1)})
	if err != nil {
		t.Fatal(err)
	}
	if c1.Node == c2.Node {
		t.Errorf("both compositions on %s", c1.Node)
	}
	chunks := f.CXL.Chunks()
	if len(chunks) != 2 {
		t.Errorf("chunks = %d", len(chunks))
	}
}

func TestComposeAsync(t *testing.T) {
	f := newFramework(t, core.Config{Nodes: 2})
	task := f.Composer.ComposeAsync(composer.Request{Name: "async-sys", Cores: 8, FabricMemoryMiB: 1024})
	state, err := task.Wait(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if state != redfish.TaskCompleted {
		t.Fatalf("state = %s: %+v", state, task.Snapshot())
	}
	// The task resource is browsable with the outcome message.
	var rt redfish.Task
	if err := f.Service.Store().GetAs(task.URI(), &rt); err != nil {
		t.Fatal(err)
	}
	if rt.PercentComplete != 100 {
		t.Errorf("percent = %d", rt.PercentComplete)
	}
	if len(f.Composer.Compositions()) != 1 {
		t.Errorf("compositions = %d", len(f.Composer.Compositions()))
	}

	// A failing request produces an Exception task, nothing leaked.
	task = f.Composer.ComposeAsync(composer.Request{Cores: 10000})
	state, err = task.Wait(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if state != redfish.TaskException {
		t.Errorf("state = %s", state)
	}
	if len(f.Composer.Compositions()) != 1 {
		t.Errorf("compositions after failure = %d", len(f.Composer.Compositions()))
	}
}

func TestComposeAsyncHTTP(t *testing.T) {
	f := newFramework(t, core.Config{Nodes: 1})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	body, _ := json.Marshal(composer.Request{Cores: 4})
	resp, err := http.Post(srv.URL+"/composer/v1/ComposeAsync", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	monitor := resp.Header.Get("Location")
	if monitor == "" {
		t.Fatal("no task monitor")
	}
	// Poll the task monitor over the Redfish side until terminal.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r2, err := http.Get(srv.URL + monitor)
		if err != nil {
			t.Fatal(err)
		}
		var task redfish.Task
		err = json.NewDecoder(r2.Body).Decode(&task)
		r2.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if task.TaskState == redfish.TaskCompleted {
			break
		}
		if task.TaskState == redfish.TaskException {
			t.Fatalf("task failed: %+v", task.Messages)
		}
		if time.Now().After(deadline) {
			t.Fatalf("task stuck in %s", task.TaskState)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRedfishNativeComposition(t *testing.T) {
	f := newFramework(t, core.Config{Nodes: 2})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	// POST a ComputerSystem-shaped composition request to the Systems
	// collection — the DMTF specific-composition pattern.
	body, _ := json.Marshal(map[string]any{
		"Name": "redfish-native",
		"Oem": map[string]any{"OFMF": map[string]any{
			"Cores":           8,
			"FabricMemoryMiB": 2048,
			"GPUSlices":       1,
		}},
	})
	resp, err := http.Post(srv.URL+string(service.SystemsURI), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var sys redfish.ComputerSystem
	if err := json.NewDecoder(resp.Body).Decode(&sys); err != nil {
		t.Fatal(err)
	}
	if sys.SystemType != redfish.SystemTypeComposed || sys.Name != "redfish-native" {
		t.Errorf("system = %+v", sys)
	}
	if len(sys.Links.ResourceBlocks) != 1 || sys.Links.ResourceBlocks[0].ODataID.Parent() != service.ResourceBlocksURI {
		t.Errorf("links = %v, want one ResourceBlock", sys.Links.ResourceBlocks)
	}
	if f.CXL.FreeMiB() != 4*256*1024-2048 {
		t.Errorf("cxl free = %d", f.CXL.FreeMiB())
	}

	// DELETE the composed system decomposes it.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+string(sys.ODataID), nil)
	resp2, err := (&http.Client{}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d", resp2.StatusCode)
	}
	if f.CXL.FreeMiB() != 4*256*1024 {
		t.Errorf("cxl free after delete = %d", f.CXL.FreeMiB())
	}
	if got := len(f.Composer.Compositions()); got != 0 {
		t.Errorf("compositions = %d", got)
	}

	// Unsatisfiable request → 409, nothing leaked.
	body, _ = json.Marshal(map[string]any{"Cores": 10000})
	resp3, err := http.Post(srv.URL+string(service.SystemsURI), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusConflict {
		t.Errorf("unsatisfiable = %d", resp3.StatusCode)
	}

	// DELETE of a physical system is not decomposition; with DirectWrites
	// (testbed) it is a plain store delete, so only composed systems route
	// through the composer. Verify the physical node survives a decompose
	// attempt through the composer path by checking it is still Physical.
	var phys redfish.ComputerSystem
	if err := f.Service.Store().GetAs(service.SystemsURI.Append(core.NodeName(0)), &phys); err != nil {
		t.Fatal(err)
	}
	if phys.SystemType != redfish.SystemTypePhysical {
		t.Errorf("physical node mutated: %+v", phys)
	}
}

func TestConcurrentComposeDecompose(t *testing.T) {
	f := newFramework(t, core.Config{Nodes: 8, CoresPerNode: 64})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				comp, err := f.Composer.Compose(composer.Request{
					Cores:           4,
					FabricMemoryMiB: 512,
					GPUSlices:       1,
				})
				if err != nil {
					errs <- err
					return
				}
				if err := f.Composer.Decompose(comp.ID); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	stats := f.Composer.Stats()
	if stats.UsedCores != 0 || stats.Compositions != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if f.CXL.FreeMiB() != 4*256*1024 {
		t.Errorf("cxl free = %d", f.CXL.FreeMiB())
	}
	if f.GPUs.FreeSlices() != 56 {
		t.Errorf("gpu free = %d", f.GPUs.FreeSlices())
	}
}

func TestArchitectureEndToEnd(t *testing.T) {
	// Fig 2 reproduction: client → Composability Layer → OFMF → Agent →
	// emulated hardware, and events flowing back up.
	f := newFramework(t, core.Config{Nodes: 2})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	// 1. Client asks the Composability Layer for a system.
	body, _ := json.Marshal(composer.Request{Cores: 8, FabricMemoryMiB: 8192, StorageBytes: 1 << 30, GPUSlices: 1})
	resp, err := http.Post(srv.URL+"/composer/v1/Compose", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var comp composer.Composition
	if err := json.NewDecoder(resp.Body).Decode(&comp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// 2. The OFMF tree shows the composed system under /redfish/v1/Systems.
	resp, err = http.Get(srv.URL + "/redfish/v1/Systems")
	if err != nil {
		t.Fatal(err)
	}
	var coll struct {
		Count int `json:"Members@odata.count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&coll); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if coll.Count != 3 { // 2 physical + 1 composed
		t.Errorf("systems = %d", coll.Count)
	}

	// 3. Hardware (rightmost column) holds real allocations.
	if f.CXL.FreeMiB() == 4*256*1024 {
		t.Error("no memory carved")
	}
	// 4. Telemetry reports the utilization through the OFMF tree.
	report, err := f.Telem.Generate("pool-utilization")
	if err != nil {
		t.Fatal(err)
	}
	if len(report.MetricValues) != 4 {
		t.Errorf("metric values = %v", report.MetricValues)
	}
	resp, err = http.Get(srv.URL + string(service.TelemetryServiceURI) + "/MetricReports/pool-utilization")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("report GET = %d", resp.StatusCode)
	}
}

// TestComposesExactlyFillANode: a compose's cores count once, from its
// reservation until the projection holds its block and from the block
// after. A watcher running inside the block's write, after the
// composer's, sees 28 of the node's 56 cores used, not 56; and two
// concurrent 28-core composes pinned to the node both fit, however they
// interleave.
func TestComposesExactlyFillANode(t *testing.T) {
	f := newFramework(t, core.Config{Nodes: 1, CoresPerNode: 56})
	var mu sync.Mutex
	var seen []int
	f.Service.Store().Watch(func(chg store.Change) {
		if chg.Kind == store.Added && chg.ID.Parent() == service.ResourceBlocksURI {
			used := f.Composer.Nodes()[0].UsedCores
			mu.Lock()
			seen = append(seen, used)
			mu.Unlock()
		}
	})
	comp, err := f.Composer.Compose(composer.Request{Cores: 28})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, []int{28}) {
		t.Fatalf("used cores as the block is written = %v, want [28]", seen)
	}
	if err := f.Composer.Decompose(comp.ID); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 20; round++ {
		ids := make(chan string, 2)
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				comp, err := f.Composer.Compose(composer.Request{Cores: 28, Node: "node001"})
				if err != nil {
					t.Errorf("round %d: %v", round, err)
					return
				}
				ids <- comp.ID
			}()
		}
		wg.Wait()
		close(ids)
		for id := range ids {
			if err := f.Composer.Decompose(id); err != nil {
				t.Fatal(err)
			}
		}
		if t.Failed() {
			return
		}
	}
}
