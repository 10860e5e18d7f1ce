package composer

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
	"ofmf/internal/store"
	"ofmf/internal/store/storetest"
)

// The conformance nodes' CXL pool: its source claims fabric and
// appliance, whose chunks are provisioned and whose devices are its
// capacity.
var (
	fabric    = service.FabricsURI.Append("F")
	appliance = service.ChassisURI.Append("Pool")
	chunks    = appliance.Append("MemoryDomains", "Domain0", "MemoryChunks")
	devices   = appliance.Append("Memory")
)

// source is an AggregationSource of technology claiming the subtrees.
func source(technology string, claims ...odata.ID) redfish.AggregationSource {
	return redfish.AggregationSource{
		Oem:   redfish.AggSourceOem{OFMF: &redfish.AgentDescriptor{Technology: technology}},
		Links: redfish.AggSourceLinks{ResourcesAccessed: odata.RefSlice(claims)},
	}
}

// quietComposer boots a service that publishes no change events and a
// composer over it.
func quietComposer(t *testing.T, registry func(*Composer) any) storetest.Node {
	off := false
	svc := service.New(service.Config{ChangeEvents: &off})
	t.Cleanup(svc.Close)
	c := New(svc, nil)
	return storetest.Node{Store: svc.Store(), Registry: func() any {
		c.mu.Lock()
		defer c.mu.Unlock()
		return registry(c)
	}}
}

func put(t *testing.T, st *store.Store, id odata.ID, v any) {
	t.Helper()
	if err := st.Put(id, v); err != nil {
		t.Fatal(err)
	}
}

func TestBlocksProjectionConforms(t *testing.T) {
	blk := func(n string) odata.ID { return service.ResourceBlocksURI.Append(n) }
	composition := func(id odata.ID, system, node string, cores int, memory ...odata.ID) block {
		var b block
		b.Resource = odata.NewResource(id, redfish.TypeResourceBlock, "Composition "+id.Leaf())
		b.Links.ComputerSystems = odata.RefSlice([]odata.ID{service.SystemsURI.Append(system)})
		b.Memory = odata.RefSlice(memory)
		b.Oem.OFMF = &record{Node: node, Request: Request{Cores: cores}, Undo: []odata.ID{}}
		return b
	}
	storetest.RunProjection(t, storetest.Projected{
		Boot: func(t *testing.T) storetest.Node {
			return quietComposer(t, func(c *Composer) any {
				comps := make(map[string]Composition)
				for id, b := range c.byID {
					comps[id] = b.composition()
				}
				return fmt.Sprintf("%+v\n%v", comps, c.bySystem)
			})
		},
		Write: func(t *testing.T, st *store.Store) {
			put(t, st, blk("1"), composition(blk("1"), "a", "n1", 4, chunks.Append("1")))
			put(t, st, blk("2"), composition(blk("2"), "b", "n1", 8))
			put(t, st, blk("3"), map[string]any{"Name": "not a composition"})
			put(t, st, blk("4"), composition(blk("4"), "d", "n2", 2))
			put(t, st, blk("2"), composition(blk("2"), "b", "n1", 8, chunks.Append("2")))
			if err := st.Delete(blk("4")); err != nil {
				t.Fatal(err)
			}
		},
		Member:   blk("1"),
		Recreate: composition(blk("1"), "e", "n2", 1),
	})
}

// TestPoolProjectionConforms follows pools from their sources, and
// their usage and capacity from the members the agents publish. The
// leader stores chunks before their source, so its pool starts from
// what the store holds; a node built fresh gets the source first.
// Source 4 is a second CXL pool, with no members yet.
func TestPoolProjectionConforms(t *testing.T) {
	chunk := func(mib int64) map[string]any { return map[string]any{"MemoryChunkSizeMiB": mib} }
	device := func(mib int64) map[string]any { return map[string]any{"CapacityMiB": mib} }
	src := func(n string) odata.ID { return service.AggregationSourcesURI.Append(n) }
	storetest.RunProjection(t, storetest.Projected{
		Boot: func(t *testing.T) storetest.Node {
			return quietComposer(t, func(c *Composer) any {
				var out []string
				for _, p := range c.pools {
					out = append(out, fmt.Sprintf("%s %s %v %d %v %d", p.source, p.used.coll,
						p.used.sizes, p.used.sum, p.capacity.sizes, p.capacity.sum))
				}
				slices.Sort(out)
				return out
			})
		},
		Write: func(t *testing.T, st *store.Store) {
			put(t, st, chunks.Append("1"), chunk(1024))
			put(t, st, devices.Append("dev0"), device(4096))
			put(t, st, src("1"), source(redfish.ProtocolCXL, fabric, appliance))
			put(t, st, src("2"), source(redfish.ProtocolInfiniBand, service.FabricsURI.Append("IB")))
			put(t, st, src("3"), source("GPU", service.FabricsURI.Append("G"), service.ChassisURI.Append("G")))
			put(t, st, src("4"), source(redfish.ProtocolCXL, service.FabricsURI.Append("F4"), service.ChassisURI.Append("Pool4")))
			put(t, st, chunks.Append("2"), chunk(2048))
			put(t, st, chunks.Append("3"), chunk(512))
			put(t, st, devices.Append("dev1"), device(8192))
			put(t, st, chunks.Append("2"), chunk(4096))
			if err := st.Delete(chunks.Append("3")); err != nil {
				t.Fatal(err)
			}
			if err := st.Delete(src("3")); err != nil {
				t.Fatal(err)
			}
		},
		Member:   src("1"),
		Recreate: source(redfish.ProtocolNVMeOF, fabric, appliance),
	})
}

// TestNodeProjectionConforms follows the compute nodes: Physical systems
// only, resized when their summaries change.
func TestNodeProjectionConforms(t *testing.T) {
	system := func(typ string, cores int, gib float64) redfish.ComputerSystem {
		return redfish.ComputerSystem{SystemType: typ,
			ProcessorSummary: &redfish.ProcessorSummary{TotalCores: cores},
			MemorySummary:    &redfish.MemorySummary{TotalSystemMemoryGiB: gib}}
	}
	sys := func(n string) odata.ID { return service.SystemsURI.Append(n) }
	storetest.RunProjection(t, storetest.Projected{
		Boot: func(t *testing.T) storetest.Node {
			return quietComposer(t, func(c *Composer) any { return c.nodesLocked() })
		},
		Write: func(t *testing.T, st *store.Store) {
			put(t, st, sys("n1"), system(redfish.SystemTypePhysical, 56, 128))
			put(t, st, sys("n2"), system(redfish.SystemTypePhysical, 8, 1))
			put(t, st, sys("c1"), system(redfish.SystemTypeComposed, 4, 0))
			put(t, st, sys("n3"), system(redfish.SystemTypePhysical, 4, 2))
			put(t, st, sys("n2"), system(redfish.SystemTypePhysical, 16, 1.5))
			if err := st.Patch(sys("n1"), map[string]any{"AssetTag": "x"}, ""); err != nil {
				t.Fatal(err)
			}
			put(t, st, sys("n3"), system(redfish.SystemTypeComposed, 4, 2))
		},
		Member:   sys("n1"),
		Recreate: system(redfish.SystemTypePhysical, 28, 64),
	})
}

// TestOnePoolPerSubtree: an agent restarted on ten ports in turn
// registers from a new HostName each time, with the claims it had. Each
// registration supersedes its source in place, so the subtree stays one
// source at its first URI, one pool counted once, one forwarding target
// (the last port) and one liveness series, and what the agent published
// survives every restart.
func TestOnePoolPerSubtree(t *testing.T) {
	off := false
	svc := service.New(service.Config{ChangeEvents: &off})
	defer svc.Close()
	c := New(svc, nil)
	st := svc.Store()
	var first odata.ID
	var host string
	for port := 9001; port <= 9010; port++ {
		src := source(redfish.ProtocolCXL, fabric, appliance)
		host = fmt.Sprintf("http://cxl.example:%d", port)
		src.HostName = host
		stored, _, err := svc.RegisterAggregationSource(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		if first == "" {
			first = stored.ODataID
			put(t, st, devices.Append("d0"), map[string]any{"CapacityMiB": 4096})
			put(t, st, chunks.Append("1"), map[string]any{"MemoryChunkSizeMiB": 1024})
		}
		if stored.ODataID != first {
			t.Fatalf("the registration from %s stored %s, want it to supersede %s", host, stored.ODataID, first)
		}
	}
	members, err := st.Members(service.AggregationSourcesURI)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 || len(c.pools) != 1 || c.pools[chunks].source != first || c.Stats().FreeMemoryMiB != 3072 {
		t.Errorf("sources %v, pools %v, stats %+v; want one of each, from %s, with 3072 MiB free", members, c.pools, c.Stats(), first)
	}
	want := map[odata.ID]string{fabric: host, appliance: host}
	if got := svc.Liveness().Forwarding(); !maps.Equal(got, want) {
		t.Errorf("forwarding %v, want %v", got, want)
	}
	if n := strings.Count(svc.Metrics().Registry().Expose(), "\nofmf_agent_liveness{"); n != 1 {
		t.Errorf("%d ofmf_agent_liveness series, want 1", n)
	}
	if !st.Exists(chunks.Append("1")) {
		t.Error("the agent's subtree did not survive its restarts")
	}
}
