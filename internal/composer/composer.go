// Package composer implements the Composability Manager the paper layers
// on top of the OFMF: the component that "can mitigate stranded resources
// by providing a method for sharing hardware, CPUs, GPUs, NVM, and
// memories". It tracks the free pool of disaggregated resources, applies a
// placement policy, and realizes compositions by provisioning capacity and
// establishing fabric connections through the OFMF — never by touching
// hardware directly.
package composer

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"ofmf/internal/obsv"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
	"ofmf/internal/tasks"
)

// Sentinel errors.
var (
	ErrNoCapacity     = errors.New("composer: no node satisfies the request")
	ErrNoPool         = errors.New("composer: no pool can satisfy the request")
	ErrUnknownComp    = errors.New("composer: unknown composition")
	ErrUnknownNode    = errors.New("composer: unknown node")
	ErrDuplicateNode  = errors.New("composer: duplicate node")
	ErrInvalidRequest = errors.New("composer: invalid request")
)

// Request asks for a composed system.
type Request struct {
	// Name labels the composed system; generated when empty.
	Name string `json:"Name,omitempty"`
	// Cores is the number of CPU cores required on the compute node.
	Cores int `json:"Cores"`
	// FabricMemoryMiB requests fabric-attached memory carved from a pool.
	FabricMemoryMiB int64 `json:"FabricMemoryMiB,omitempty"`
	// MemoryHeads bounds simultaneous sharing of the carved chunk (≥1).
	MemoryHeads int `json:"MemoryHeads,omitempty"`
	// StorageBytes requests a fabric-attached volume.
	StorageBytes int64 `json:"StorageBytes,omitempty"`
	// GPUSlices requests a GPU partition of the given size.
	GPUSlices int `json:"GPUSlices,omitempty"`
	// Node pins the composition to a specific compute node.
	Node string `json:"Node,omitempty"`
}

// MemoryPool describes one fabric-attached memory domain the composer may
// carve from. The closures decouple the composer from agent internals.
type MemoryPool struct {
	Name        string
	Chunks      odata.ID // MemoryChunks collection (provisioning target)
	Connections odata.ID // fabric Connections collection
	// Endpoint maps a compute node name to its initiator endpoint URI on
	// this pool's fabric.
	Endpoint func(node string) odata.ID
	// FreeMiB reports remaining capacity.
	FreeMiB func() int64
}

// StoragePool describes one disaggregated storage service.
type StoragePool struct {
	Name        string
	Volumes     odata.ID
	Connections odata.ID
	Endpoint    func(node string) odata.ID
	FreeBytes   func() int64
}

// GPUPool describes one pooled GPU appliance.
type GPUPool struct {
	Name        string
	Partitions  odata.ID // Processors collection (provisioning target)
	Connections odata.ID
	// HostEndpoint maps a node to the initiator reference used in
	// connections; TargetEndpoint maps a partition leaf id to its fabric
	// endpoint.
	HostEndpoint   func(node string) odata.ID
	TargetEndpoint func(partitionLeaf string) odata.ID
	FreeSlices     func() int
}

// NodeState is a snapshot of one compute node's allocation state.
type NodeState struct {
	Name      string
	Cores     int
	UsedCores int
	MemoryMiB int64
}

// FreeCores reports the node's unallocated cores.
func (n NodeState) FreeCores() int { return n.Cores - n.UsedCores }

// step records one reversible action taken during composition.
type step struct {
	kind string   // "connection", "resource", "system"
	id   odata.ID // what to delete on teardown
}

// Composition is one realized request.
type Composition struct {
	ID        string     `json:"Id"`
	SystemURI odata.ID   `json:"System"`
	BlockURI  odata.ID   `json:"ResourceBlock,omitempty"`
	Node      string     `json:"Node"`
	Request   Request    `json:"Request"`
	Resources []odata.ID `json:"Resources"`

	steps   []step
	memory  []odata.ID
	storage []odata.ID
	gpus    []odata.ID
}

// Composer is the Composability Manager.
type Composer struct {
	svc    *service.Service
	policy Policy

	mu       sync.Mutex
	nodes    map[string]*NodeState
	memPools []*MemoryPool
	stoPools []*StoragePool
	gpuPools []*GPUPool
	comps    map[string]*Composition
	nextComp int
}

// New creates a composer over the given OFMF service. policy defaults to
// FirstFit.
func New(svc *service.Service, policy Policy) *Composer {
	if policy == nil {
		policy = FirstFit{}
	}
	return &Composer{
		svc:    svc,
		policy: policy,
		nodes:  make(map[string]*NodeState),
		comps:  make(map[string]*Composition),
	}
}

// SetPolicy replaces the placement policy.
func (c *Composer) SetPolicy(p Policy) {
	c.mu.Lock()
	c.policy = p
	c.mu.Unlock()
}

// AddNode registers a compute node and publishes it as a physical
// ComputerSystem.
func (c *Composer) AddNode(name string, cores int, memoryMiB int64) error {
	c.mu.Lock()
	if _, ok := c.nodes[name]; ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrDuplicateNode, name)
	}
	c.nodes[name] = &NodeState{Name: name, Cores: cores, MemoryMiB: memoryMiB}
	c.mu.Unlock()

	uri := service.SystemsURI.Append(name)
	return c.svc.Store().Put(uri, redfish.ComputerSystem{
		Resource:         odata.NewResource(uri, redfish.TypeComputerSystem, name),
		SystemType:       redfish.SystemTypePhysical,
		PowerState:       "On",
		Status:           odata.StatusOK(),
		HostName:         name,
		ProcessorSummary: &redfish.ProcessorSummary{Count: 1, TotalCores: cores},
		MemorySummary:    &redfish.MemorySummary{TotalSystemMemoryGiB: float64(memoryMiB) / 1024},
	})
}

// AddMemoryPool registers a memory pool.
func (c *Composer) AddMemoryPool(p *MemoryPool) {
	c.mu.Lock()
	c.memPools = append(c.memPools, p)
	c.mu.Unlock()
}

// AddStoragePool registers a storage pool.
func (c *Composer) AddStoragePool(p *StoragePool) {
	c.mu.Lock()
	c.stoPools = append(c.stoPools, p)
	c.mu.Unlock()
}

// AddGPUPool registers a GPU pool.
func (c *Composer) AddGPUPool(p *GPUPool) {
	c.mu.Lock()
	c.gpuPools = append(c.gpuPools, p)
	c.mu.Unlock()
}

// Nodes returns snapshots of all nodes, sorted by name.
func (c *Composer) Nodes() []NodeState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeState, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, *n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Compositions returns snapshots of live compositions, sorted by id.
func (c *Composer) Compositions() []Composition {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Composition, 0, len(c.comps))
	for _, comp := range c.comps {
		out = append(out, snapshot(comp))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get returns a snapshot of the composition with the given id.
func (c *Composer) Get(id string) (Composition, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	comp, ok := c.comps[id]
	if !ok {
		return Composition{}, fmt.Errorf("%w: %s", ErrUnknownComp, id)
	}
	return snapshot(comp), nil
}

// observeCompose runs one composer operation as one unit of work
// (store.Deferred): every store mutation made under the context fn
// receives — the composer's own, the service's and the in-process
// agents' — is applied and logged as it happens, and the operation
// returns after one durability wait that covers them all. It also times
// the operation, feeding the ofmf_compose_* metrics, records a
// compose.<op> span when the request is traced (the store and agent
// operations underneath, and the one wal.commit, parent onto it), and
// emits a log line correlated with the request id carried in ctx.
func (c *Composer) observeCompose(ctx context.Context, op string, fn func(ctx context.Context) error) error {
	ctx, span := c.svc.Tracer().StartIfTraced(ctx, "compose."+op)
	start := time.Now()
	err := c.svc.Store().Deferred(ctx, fn)
	elapsed := time.Since(start)
	span.EndErr(err)
	outcome := obsv.Outcome(err)
	m := c.svc.Metrics()
	m.ComposeOps.With(op, outcome).Inc()
	m.ComposeDuration.With(op, outcome).Observe(elapsed.Seconds())
	c.svc.Logger().LogAttrs(ctx, slog.LevelInfo, "compose op",
		slog.String("op", op),
		slog.String("outcome", outcome),
		slog.Duration("duration", elapsed),
	)
	return err
}

// Compose realizes the request with a background context; see ComposeCtx.
func (c *Composer) Compose(req Request) (Composition, error) {
	return c.ComposeCtx(context.Background(), req)
}

// ComposeCtx realizes the request: it selects a node under the placement
// policy, provisions fabric memory, storage and GPU capacity through the
// OFMF, establishes the connections, and publishes the composed system.
// Any failure rolls back every prior step. The context carries the
// request id for log correlation and is threaded through every OFMF
// operation performed on behalf of the composition.
func (c *Composer) ComposeCtx(ctx context.Context, req Request) (Composition, error) {
	var comp Composition
	err := c.observeCompose(ctx, "compose", func(ctx context.Context) error {
		var err error
		comp, err = c.compose(ctx, req)
		return err
	})
	return comp, err
}

func (c *Composer) compose(ctx context.Context, req Request) (Composition, error) {
	if req.Cores <= 0 {
		return Composition{}, fmt.Errorf("%w: Cores must be positive", ErrInvalidRequest)
	}
	if req.MemoryHeads < 1 {
		req.MemoryHeads = 1
	}

	// Select and reserve the node.
	c.mu.Lock()
	nodeName, err := c.selectNodeLocked(req)
	if err != nil {
		c.mu.Unlock()
		return Composition{}, err
	}
	c.nodes[nodeName].UsedCores += req.Cores
	c.nextComp++
	compID := fmt.Sprintf("comp-%d", c.nextComp)
	c.mu.Unlock()

	name := req.Name
	if name == "" {
		name = compID
	}
	comp := &Composition{ID: compID, Node: nodeName, Request: req}

	rollback := func() {
		c.teardown(ctx, comp)
		c.mu.Lock()
		c.nodes[nodeName].UsedCores -= req.Cores
		c.mu.Unlock()
	}

	if req.FabricMemoryMiB > 0 {
		if err := c.attachMemory(ctx, comp, nodeName, req.FabricMemoryMiB, req.MemoryHeads); err != nil {
			rollback()
			return Composition{}, err
		}
	}
	if req.StorageBytes > 0 {
		if err := c.attachStorage(ctx, comp, nodeName, req.StorageBytes); err != nil {
			rollback()
			return Composition{}, err
		}
	}
	if req.GPUSlices > 0 {
		if err := c.attachGPU(ctx, comp, nodeName, req.GPUSlices); err != nil {
			rollback()
			return Composition{}, err
		}
	}

	// Publish the composed system.
	sysURI := service.SystemsURI.Append(name)
	sys := redfish.ComputerSystem{
		Resource:         odata.NewResource(sysURI, redfish.TypeComputerSystem, name),
		SystemType:       redfish.SystemTypeComposed,
		PowerState:       "On",
		Status:           odata.Status{State: odata.StateComposed, Health: odata.HealthOK},
		HostName:         nodeName,
		ProcessorSummary: &redfish.ProcessorSummary{Count: 1, TotalCores: req.Cores},
	}
	for _, res := range comp.Resources {
		sys.Links.ResourceBlocks = append(sys.Links.ResourceBlocks, odata.NewRef(res))
	}
	if err := c.svc.Store().CreateCtx(ctx, sysURI, sys); err != nil {
		rollback()
		return Composition{}, fmt.Errorf("composer: publish system: %w", err)
	}
	comp.SystemURI = sysURI
	comp.steps = append(comp.steps, step{kind: "system", id: sysURI})

	// Publish the Redfish-native composition view: a ResourceBlock in the
	// CompositionService bundling the composed resources.
	blockURI := service.ResourceBlocksURI.Append(compID)
	if err := c.svc.Store().PutCtx(ctx, blockURI, c.resourceBlock(blockURI, comp)); err != nil {
		rollback()
		return Composition{}, fmt.Errorf("composer: publish resource block: %w", err)
	}
	comp.BlockURI = blockURI
	comp.steps = append(comp.steps, step{kind: "system", id: blockURI})

	c.mu.Lock()
	c.comps[compID] = comp
	c.mu.Unlock()

	c.svc.Bus().PublishCtx(ctx, redfish.EventRecord{
		EventType:         redfish.EventResourceAdded,
		EventID:           compID,
		Severity:          "OK",
		Message:           fmt.Sprintf("composed system %s on node %s", name, nodeName),
		MessageID:         "OFMF.1.0.SystemComposed",
		OriginOfCondition: refTo(sysURI),
	})

	snap, _ := c.Get(compID)
	return snap, nil
}

func refTo(id odata.ID) *odata.Ref {
	r := odata.NewRef(id)
	return &r
}

// snapshot copies a composition for external callers, dropping internal
// bookkeeping.
func snapshot(comp *Composition) Composition {
	cp := *comp
	cp.Resources = append([]odata.ID(nil), comp.Resources...)
	cp.steps = nil
	cp.memory, cp.storage, cp.gpus = nil, nil, nil
	return cp
}

// resourceBlock renders the composition as a ResourceBlock resource.
func (c *Composer) resourceBlock(uri odata.ID, comp *Composition) redfish.ResourceBlock {
	block := redfish.ResourceBlock{
		Resource:          odata.NewResource(uri, redfish.TypeResourceBlock, "Composition "+comp.ID),
		ResourceBlockType: []string{redfish.BlockCompute},
		CompositionStatus: redfish.CompositionStatus{CompositionState: redfish.CompositionComposed},
		Status:            odata.StatusOK(),
		Memory:            odata.RefSlice(comp.memory),
		Storage:           odata.RefSlice(comp.storage),
		Processors:        odata.RefSlice(comp.gpus),
	}
	if len(comp.memory) > 0 {
		block.ResourceBlockType = append(block.ResourceBlockType, redfish.BlockMemory)
	}
	if len(comp.storage) > 0 {
		block.ResourceBlockType = append(block.ResourceBlockType, redfish.BlockStorage)
	}
	if len(comp.gpus) > 0 {
		block.ResourceBlockType = append(block.ResourceBlockType, redfish.BlockProcessor)
	}
	if !comp.SystemURI.IsZero() {
		block.Links.ComputerSystems = []odata.Ref{odata.NewRef(comp.SystemURI)}
	}
	return block
}

func (c *Composer) selectNodeLocked(req Request) (string, error) {
	if req.Node != "" {
		n, ok := c.nodes[req.Node]
		if !ok {
			return "", fmt.Errorf("%w: %s", ErrUnknownNode, req.Node)
		}
		if n.FreeCores() < req.Cores {
			return "", fmt.Errorf("%w: node %s has %d free cores, need %d",
				ErrNoCapacity, req.Node, n.FreeCores(), req.Cores)
		}
		return req.Node, nil
	}
	states := make([]NodeState, 0, len(c.nodes))
	for _, n := range c.nodes {
		states = append(states, *n)
	}
	sort.Slice(states, func(i, j int) bool { return states[i].Name < states[j].Name })
	return c.policy.SelectNode(states, req)
}

// attachMemory carves a chunk from the first pool with capacity, zones
// the initiator endpoint, and connects the chunk to the node.
func (c *Composer) attachMemory(ctx context.Context, comp *Composition, node string, sizeMiB int64, heads int) error {
	c.mu.Lock()
	pools := append([]*MemoryPool(nil), c.memPools...)
	c.mu.Unlock()
	for _, p := range pools {
		if p.FreeMiB() < sizeMiB {
			continue
		}
		mark := len(comp.steps)
		payload := fmt.Sprintf(`{"MemoryChunkSizeMiB": %d, "Oem": {"OFMF": {"MaxHeads": %d}}}`, sizeMiB, heads)
		chunkURI, err := c.svc.ProvisionResource(ctx, p.Chunks, []byte(payload))
		if err != nil {
			continue
		}
		comp.steps = append(comp.steps, step{kind: "resource", id: chunkURI})
		// Zone the composition's initiator on this fabric (zone-of-
		// endpoints granting the node access to the pooled device).
		zone, err := c.svc.CreateZone(ctx, p.Connections.Parent().Append("Zones"), redfish.Zone{
			Resource: odata.Resource{Name: "Zone for " + comp.ID},
			ZoneType: redfish.ZoneTypeZoneOfEndpoints,
			Links:    redfish.ZoneLinks{Endpoints: []odata.Ref{odata.NewRef(p.Endpoint(node))}},
		})
		if err == nil {
			comp.steps = append(comp.steps, step{kind: "zone", id: zone.ODataID})
		}
		conn := redfish.Connection{
			ConnectionType: "Memory",
			MemoryChunkInfo: []redfish.MemoryChunkInfo{{
				AccessCapabilities: []string{"Read", "Write"},
				MemoryChunk:        redfish.Ref(chunkURI),
			}},
			Links: redfish.ConnectionLinks{
				InitiatorEndpoints: []odata.Ref{odata.NewRef(p.Endpoint(node))},
			},
		}
		created, err := c.svc.CreateConnection(ctx, p.Connections, conn)
		if err != nil {
			c.undoSteps(ctx, comp, len(comp.steps)-mark)
			return fmt.Errorf("composer: memory connection: %w", err)
		}
		comp.steps = append(comp.steps, step{kind: "connection", id: created.ODataID})
		comp.Resources = append(comp.Resources, chunkURI)
		comp.memory = append(comp.memory, chunkURI)
		return nil
	}
	return fmt.Errorf("%w: %d MiB of fabric memory", ErrNoPool, sizeMiB)
}

// undoSteps reverses up to n of the composition's most recent steps.
func (c *Composer) undoSteps(ctx context.Context, comp *Composition, n int) {
	for i := 0; i < n && len(comp.steps) > 0; i++ {
		st := comp.steps[len(comp.steps)-1]
		comp.steps = comp.steps[:len(comp.steps)-1]
		switch st.kind {
		case "connection":
			_ = c.svc.DeleteConnection(ctx, st.id)
		case "zone":
			_ = c.svc.DeleteZone(ctx, st.id)
		case "resource":
			_ = c.svc.DeprovisionResource(ctx, st.id)
		case "system":
			_ = c.svc.Store().DeleteCtx(ctx, st.id)
		}
	}
}

// attachStorage provisions a volume and connects it to the node.
func (c *Composer) attachStorage(ctx context.Context, comp *Composition, node string, bytes int64) error {
	c.mu.Lock()
	pools := append([]*StoragePool(nil), c.stoPools...)
	c.mu.Unlock()
	for _, p := range pools {
		if p.FreeBytes() < bytes {
			continue
		}
		payload := fmt.Sprintf(`{"CapacityBytes": %d}`, bytes)
		volURI, err := c.svc.ProvisionResource(ctx, p.Volumes, []byte(payload))
		if err != nil {
			continue
		}
		comp.steps = append(comp.steps, step{kind: "resource", id: volURI})
		conn := redfish.Connection{
			ConnectionType: "Storage",
			VolumeInfo:     []redfish.VolumeInfo{{AccessCapabilities: []string{"Read", "Write"}, Volume: redfish.Ref(volURI)}},
			Links: redfish.ConnectionLinks{
				InitiatorEndpoints: []odata.Ref{odata.NewRef(p.Endpoint(node))},
			},
		}
		created, err := c.svc.CreateConnection(ctx, p.Connections, conn)
		if err != nil {
			_ = c.svc.DeprovisionResource(ctx, volURI)
			comp.steps = comp.steps[:len(comp.steps)-1]
			return fmt.Errorf("composer: storage connection: %w", err)
		}
		comp.steps = append(comp.steps, step{kind: "connection", id: created.ODataID})
		comp.Resources = append(comp.Resources, volURI)
		comp.storage = append(comp.storage, volURI)
		return nil
	}
	return fmt.Errorf("%w: %d bytes of storage", ErrNoPool, bytes)
}

// attachGPU carves a partition and connects it to the node.
func (c *Composer) attachGPU(ctx context.Context, comp *Composition, node string, slices int) error {
	c.mu.Lock()
	pools := append([]*GPUPool(nil), c.gpuPools...)
	c.mu.Unlock()
	for _, p := range pools {
		if p.FreeSlices() < slices {
			continue
		}
		payload := fmt.Sprintf(`{"Oem": {"OFMF": {"Slices": %d}}}`, slices)
		partURI, err := c.svc.ProvisionResource(ctx, p.Partitions, []byte(payload))
		if err != nil {
			continue
		}
		comp.steps = append(comp.steps, step{kind: "resource", id: partURI})
		conn := redfish.Connection{
			Links: redfish.ConnectionLinks{
				InitiatorEndpoints: []odata.Ref{odata.NewRef(p.HostEndpoint(node))},
				TargetEndpoints:    []odata.Ref{odata.NewRef(p.TargetEndpoint(partURI.Leaf()))},
			},
		}
		created, err := c.svc.CreateConnection(ctx, p.Connections, conn)
		if err != nil {
			_ = c.svc.DeprovisionResource(ctx, partURI)
			comp.steps = comp.steps[:len(comp.steps)-1]
			return fmt.Errorf("composer: gpu connection: %w", err)
		}
		comp.steps = append(comp.steps, step{kind: "connection", id: created.ODataID})
		comp.Resources = append(comp.Resources, partURI)
		comp.gpus = append(comp.gpus, partURI)
		return nil
	}
	return fmt.Errorf("%w: %d GPU slices", ErrNoPool, slices)
}

// teardown reverses a composition's steps in LIFO order.
func (c *Composer) teardown(ctx context.Context, comp *Composition) {
	c.undoSteps(ctx, comp, len(comp.steps))
}

// Decompose tears down a composition with a background context; see
// DecomposeCtx.
func (c *Composer) Decompose(id string) error {
	return c.DecomposeCtx(context.Background(), id)
}

// DecomposeCtx tears down a composition, returning its resources to the
// free pool.
func (c *Composer) DecomposeCtx(ctx context.Context, id string) error {
	return c.observeCompose(ctx, "decompose", func(ctx context.Context) error {
		return c.decompose(ctx, id)
	})
}

func (c *Composer) decompose(ctx context.Context, id string) error {
	c.mu.Lock()
	comp, ok := c.comps[id]
	if ok {
		delete(c.comps, id)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownComp, id)
	}
	c.teardown(ctx, comp)
	c.mu.Lock()
	if n, ok := c.nodes[comp.Node]; ok {
		n.UsedCores -= comp.Request.Cores
		if n.UsedCores < 0 {
			n.UsedCores = 0
		}
	}
	c.mu.Unlock()

	c.svc.Bus().PublishCtx(ctx, redfish.EventRecord{
		EventType:         redfish.EventResourceRemoved,
		EventID:           id,
		Severity:          "OK",
		Message:           fmt.Sprintf("decomposed system %s", id),
		MessageID:         "OFMF.1.0.SystemDecomposed",
		OriginOfCondition: refTo(comp.SystemURI),
	})
	return nil
}

// HotAddMemory carves and connects an additional memory chunk to a live
// composition — the paper's out-of-memory mitigation path.
func (c *Composer) HotAddMemory(compID string, sizeMiB int64) error {
	return c.HotAddMemoryCtx(context.Background(), compID, sizeMiB)
}

// HotAddMemoryCtx is HotAddMemory with log/metric correlation via ctx.
func (c *Composer) HotAddMemoryCtx(ctx context.Context, compID string, sizeMiB int64) error {
	return c.observeCompose(ctx, "hot_add_memory", func(ctx context.Context) error {
		return c.hotAddMemory(ctx, compID, sizeMiB)
	})
}

func (c *Composer) hotAddMemory(ctx context.Context, compID string, sizeMiB int64) error {
	c.mu.Lock()
	comp, ok := c.comps[compID]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownComp, compID)
	}
	if err := c.attachMemory(ctx, comp, comp.Node, sizeMiB, 1); err != nil {
		return err
	}
	// Refresh the composed system's resource links and the block view.
	patch := map[string]any{"Links": map[string]any{"ResourceBlocks": refList(comp.Resources)}}
	if err := c.svc.Store().PatchCtx(ctx, comp.SystemURI, patch, ""); err != nil {
		return err
	}
	if !comp.BlockURI.IsZero() {
		if err := c.svc.Store().PutCtx(ctx, comp.BlockURI, c.resourceBlock(comp.BlockURI, comp)); err != nil {
			return err
		}
	}
	c.svc.Bus().PublishCtx(ctx, redfish.EventRecord{
		EventType:         redfish.EventResourceUpdated,
		EventID:           compID,
		Severity:          "OK",
		Message:           fmt.Sprintf("hot-added %d MiB to %s", sizeMiB, compID),
		MessageID:         "OFMF.1.0.MemoryHotAdded",
		OriginOfCondition: refTo(comp.SystemURI),
	})
	return nil
}

func refList(ids []odata.ID) []map[string]string {
	out := make([]map[string]string, len(ids))
	for i, id := range ids {
		out[i] = map[string]string{"@odata.id": string(id)}
	}
	return out
}

// ComposeAsync realizes the request on a background goroutine tracked by
// the OFMF TaskService, returning immediately with the task. Clients poll
// the task monitor URI; on completion the task's last message carries the
// composition id and system URI.
func (c *Composer) ComposeAsync(req Request) *tasks.Task {
	task := c.svc.Tasks().Start("Compose " + req.Name)
	go func() {
		_ = task.Progress(10, "selecting node and provisioning resources")
		comp, err := c.Compose(req)
		if err != nil {
			_ = task.Fail(err.Error())
			return
		}
		select {
		case <-task.Cancelled():
			// Cancelled mid-flight: undo the composition.
			_ = c.Decompose(comp.ID)
			return
		default:
		}
		_ = task.Progress(90, "publishing composed system")
		_ = task.Complete(fmt.Sprintf("composed %s at %s", comp.ID, comp.SystemURI))
	}()
	return task
}

// ComposeSystem implements service.SystemComposer: the payload is either
// a bare Request or a ComputerSystem-shaped document carrying the request
// under Oem.OFMF, per the DMTF specific-composition pattern.
func (c *Composer) ComposeSystem(ctx context.Context, payload []byte) (odata.ID, error) {
	var envelope struct {
		Name string `json:"Name"`
		Oem  struct {
			OFMF *Request `json:"OFMF"`
		} `json:"Oem"`
		// Bare-request fields accepted at top level too.
		Cores           int    `json:"Cores"`
		FabricMemoryMiB int64  `json:"FabricMemoryMiB"`
		MemoryHeads     int    `json:"MemoryHeads"`
		StorageBytes    int64  `json:"StorageBytes"`
		GPUSlices       int    `json:"GPUSlices"`
		Node            string `json:"Node"`
	}
	if err := json.Unmarshal(payload, &envelope); err != nil {
		return "", fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	var req Request
	if envelope.Oem.OFMF != nil {
		req = *envelope.Oem.OFMF
		if req.Name == "" {
			req.Name = envelope.Name
		}
	} else {
		req = Request{
			Name:            envelope.Name,
			Cores:           envelope.Cores,
			FabricMemoryMiB: envelope.FabricMemoryMiB,
			MemoryHeads:     envelope.MemoryHeads,
			StorageBytes:    envelope.StorageBytes,
			GPUSlices:       envelope.GPUSlices,
			Node:            envelope.Node,
		}
	}
	comp, err := c.ComposeCtx(ctx, req)
	if err != nil {
		return "", err
	}
	return comp.SystemURI, nil
}

// DecomposeSystem implements service.SystemComposer: it finds the
// composition owning the system URI and tears it down.
func (c *Composer) DecomposeSystem(ctx context.Context, systemURI odata.ID) error {
	c.mu.Lock()
	id := ""
	for cid, comp := range c.comps {
		if comp.SystemURI == systemURI {
			id = cid
			break
		}
	}
	c.mu.Unlock()
	if id == "" {
		return fmt.Errorf("%w: system %s", ErrUnknownComp, systemURI)
	}
	return c.DecomposeCtx(ctx, id)
}

// Stats summarizes pool utilization for stranding analysis.
type Stats struct {
	TotalCores    int
	UsedCores     int
	Compositions  int
	FreeMemoryMiB int64
	FreeStorageB  int64
	FreeGPUSlices int
}

// Stats returns current utilization counters.
func (c *Composer) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s Stats
	for _, n := range c.nodes {
		s.TotalCores += n.Cores
		s.UsedCores += n.UsedCores
	}
	s.Compositions = len(c.comps)
	for _, p := range c.memPools {
		s.FreeMemoryMiB += p.FreeMiB()
	}
	for _, p := range c.stoPools {
		s.FreeStorageB += p.FreeBytes()
	}
	for _, p := range c.gpuPools {
		s.FreeGPUSlices += p.FreeSlices()
	}
	return s
}
