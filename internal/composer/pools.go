package composer

import (
	"cmp"
	"encoding/json"
	"strconv"
	"sync"

	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
	"ofmf/internal/store"
)

// technology is what the composer knows of one technology's agents,
// relative to the device root (chassis or storage) their source claims:
// resources holds what is provisioned, each sized at sizeAt, and devices
// the pool's capacity, at capacityAt. provision formats what is POSTed to
// resources from the amount and (memory only) the heads sharing it.
// Zoned pools zone a connection's initiators on the fabric first.
type technology struct {
	kind               Kind
	resources, devices string
	sizeAt, capacityAt []string
	provision          string
	zoned              bool
}

// technologies is every technology the composer draws pools from, by the
// Oem.OFMF.Technology its agents register with. A source of any other
// (an InfiniBand cluster fabric) gives no pool.
var technologies = map[string]*technology{
	redfish.ProtocolCXL: {KindMemory, "MemoryDomains/Domain0/MemoryChunks", "Memory",
		[]string{"MemoryChunkSizeMiB"}, []string{"CapacityMiB"},
		`{"MemoryChunkSizeMiB": %d, "Oem": {"OFMF": {"MaxHeads": %d}}}`, true},
	redfish.ProtocolNVMeOF: {KindStorage, "Volumes", "StoragePools",
		[]string{"CapacityBytes"}, []string{"Capacity", "Data", "AllocatedBytes"},
		`{"CapacityBytes": %[1]d}`, false},
	"GPU": {KindGPU, "Processors", "GPUs",
		[]string{"TotalCores"}, []string{"TotalCores"},
		`{"Oem": {"OFMF": {"Slices": %[1]d}}}`, false},
}

// pool is the disaggregated capacity one AggregationSource offers. claim
// makes checking free capacity and provisioning one step among the
// composer's attaches; used and capacity, kept under the composer's mu,
// project resources and devices, and free is their difference.
type pool struct {
	*technology
	source, fabric odata.ID
	claim          sync.Mutex
	used, capacity tally
}

// connection attaches the provisioned resource to node's endpoint on the
// fabric; a GPU host is named by its system instead, and the partition
// by the fabric endpoint that carries the partition's leaf id.
func (p *pool) connection(node string, resource odata.ID) redfish.Connection {
	access := []string{"Read", "Write"}
	c := redfish.Connection{Links: redfish.ConnectionLinks{
		InitiatorEndpoints: []odata.Ref{odata.NewRef(p.fabric.Append("Endpoints", node))},
	}}
	switch p.kind {
	case KindMemory:
		c.ConnectionType = "Memory"
		c.MemoryChunkInfo = []redfish.MemoryChunkInfo{{AccessCapabilities: access, MemoryChunk: redfish.Ref(resource)}}
	case KindStorage:
		c.ConnectionType = "Storage"
		c.VolumeInfo = []redfish.VolumeInfo{{AccessCapabilities: access, Volume: redfish.Ref(resource)}}
	case KindGPU:
		c.Links.InitiatorEndpoints = []odata.Ref{odata.NewRef(service.SystemsURI.Append(node))}
		c.Links.TargetEndpoints = []odata.Ref{odata.NewRef(p.fabric.Append("Endpoints", resource.Leaf()))}
	}
	return c
}

// tally projects a collection as its members' sizes and their sum.
type tally struct {
	coll  odata.ID
	path  []string // the size property
	sizes map[odata.ID]int64
	sum   int64
}

// apply brings the tally to the member at id (raw nil: gone).
func (t *tally) apply(id odata.ID, raw json.RawMessage) {
	t.sum -= t.sizes[id]
	delete(t.sizes, id)
	if raw != nil {
		for _, key := range t.path {
			raw = store.Field(raw, key)
		}
		t.sizes[id], _ = strconv.ParseInt(string(raw), 10, 64)
		t.sum += t.sizes[id]
	}
}

// newPool is the pool of the source stored as raw: nil when the source
// is gone, its technology has no row, or it does not claim one fabric
// and one device root.
func newPool(source odata.ID, raw json.RawMessage) *pool {
	var src struct {
		Links struct{ ResourcesAccessed []odata.Ref }
		Oem   struct{ OFMF struct{ Technology string } }
	}
	if json.Unmarshal(raw, &src) != nil {
		return nil
	}
	p := &pool{technology: technologies[src.Oem.OFMF.Technology], source: source}
	var root odata.ID
	for _, claim := range odata.IDsOf(src.Links.ResourcesAccessed) {
		if claim.Parent() == service.FabricsURI {
			p.fabric = claim
		} else {
			root = claim
		}
	}
	if p.technology == nil || p.fabric == "" || root == "" {
		return nil
	}
	p.used = tally{coll: root.Append(p.resources), path: p.sizeAt, sizes: make(map[odata.ID]int64)}
	p.capacity = tally{coll: root.Append(p.devices), path: p.capacityAt, sizes: make(map[odata.ID]int64)}
	return p
}

// offer is an AggregationSource as the composer last read it: the
// stored bytes that decide its pool, and that pool (nil: none).
type offer struct {
	links, technology string
	pool              *pool
}

// applySource projects the AggregationSource at id as the pool it
// offers, if any: a source of a known technology claiming one fabric and
// one device root whose collection no other source's pool provisions
// into. A new pool starts from what the store holds, so the order
// sources and members arrive in does not matter; a source that goes or
// claims other subtrees takes its pool with it. A change that keeps the
// source's Links and technology, such as a heartbeat, is told by its
// stored bytes and decodes nothing. The caller holds mu.
func (c *Composer) applySource(id odata.ID, raw json.RawMessage) {
	links := store.Field(raw, "Links")
	tech := store.Field(store.Field(store.Field(raw, "Oem"), "OFMF"), "Technology")
	old, seen := c.sources[id]
	if seen && raw != nil && string(links) == old.links && string(tech) == old.technology {
		return
	}
	if p := old.pool; p != nil {
		delete(c.pools, p.used.coll)
		c.routes.Delete(p.used.coll)
		c.routes.Delete(p.capacity.coll)
	}
	delete(c.sources, id)
	if raw == nil {
		return
	}
	p := newPool(id, raw)
	if p != nil && c.pools[p.used.coll] != nil {
		p = nil // another source's pool
	}
	c.sources[id] = offer{string(links), string(tech), p}
	if p == nil {
		return
	}
	c.pools[p.used.coll] = p
	c.routes.Store(p.used.coll, p.used.apply)
	c.routes.Store(p.capacity.coll, p.capacity.apply)
	st := c.svc.Store()
	st.Seed(p.used.coll, p.used.apply)
	st.Seed(p.capacity.coll, p.capacity.apply)
}

// bySource orders pools by their sources' ids, numerically for numeric
// leaves: the order attach tries them in.
func bySource(a, b *pool) int {
	return cmp.Or(cmp.Compare(len(a.source), len(b.source)), cmp.Compare(a.source, b.source))
}

// applySystem projects a Physical system as a compute node of its
// ProcessorSummary and MemorySummary, read without decoding: a PATCH of
// anything else allocates nothing.
func (c *Composer) applySystem(id odata.ID, raw json.RawMessage) {
	name := id.Leaf()
	if string(store.Field(raw, "SystemType")) != `"`+redfish.SystemTypePhysical+`"` {
		delete(c.nodes, name)
		return
	}
	cores, _ := strconv.Atoi(string(store.Field(store.Field(raw, "ProcessorSummary"), "TotalCores")))
	gib, _ := strconv.ParseFloat(string(store.Field(store.Field(raw, "MemorySummary"), "TotalSystemMemoryGiB")), 64)
	c.nodes[name] = NodeState{Name: name, Cores: cores, MemoryMiB: int64(gib * 1024)}
}
