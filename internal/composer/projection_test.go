package composer

import (
	"fmt"
	"testing"

	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
	"ofmf/internal/store"
	"ofmf/internal/store/storetest"
)

// chunks is the pool collection the conformance node projects.
const chunks = odata.ID("/redfish/v1/Chassis/Pool/MemoryChunks")

// quietComposer boots a service that publishes no change events and a
// composer over it with one memory pool.
func quietComposer(t *testing.T, registry func(*Composer, *Pool) any) storetest.Node {
	off := false
	svc := service.New(service.Config{ChangeEvents: &off})
	t.Cleanup(svc.Close)
	c := New(svc, nil)
	p := &Pool{Kind: KindMemory, Name: "mem", Resources: chunks}
	c.AddPool(p)
	return storetest.Node{Store: svc.Store(), Registry: func() any {
		c.mu.Lock()
		defer c.mu.Unlock()
		return registry(c, p)
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
			return quietComposer(t, func(c *Composer, _ *Pool) any {
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

func TestPoolProjectionConforms(t *testing.T) {
	chunk := func(mib int64) map[string]any { return map[string]any{"MemoryChunkSizeMiB": mib} }
	storetest.RunProjection(t, storetest.Projected{
		Boot: func(t *testing.T) storetest.Node {
			return quietComposer(t, func(_ *Composer, p *Pool) any { return fmt.Sprintf("%v %d", p.sizes, p.used) })
		},
		Write: func(t *testing.T, st *store.Store) {
			put(t, st, chunks.Append("1"), chunk(1024))
			put(t, st, chunks.Append("2"), chunk(2048))
			put(t, st, chunks.Append("3"), chunk(512))
			put(t, st, chunks.Append("2"), chunk(4096))
			if err := st.Delete(chunks.Append("3")); err != nil {
				t.Fatal(err)
			}
		},
		Member:   chunks.Append("1"),
		Recreate: chunk(256),
	})
}
