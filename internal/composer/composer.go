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
	"strings"
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
	ErrNoCapacity    = errors.New("composer: no node satisfies the request")
	ErrNoPool        = errors.New("composer: no pool can satisfy the request")
	ErrUnknownComp   = errors.New("composer: unknown composition")
	ErrUnknownNode   = errors.New("composer: unknown node")
	ErrDuplicateNode = errors.New("composer: duplicate node")
	// ErrInvalidRequest wraps the service's sentinel so the Redfish
	// surface (POST /redfish/v1/Systems) answers 400 as the facade does.
	ErrInvalidRequest = fmt.Errorf("composer: %w", service.ErrInvalidRequest)
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

// Kind names what a pool hands out; it also words the errors about it.
type Kind string

// The kinds a Request can ask for, and the unit each is counted in.
const (
	KindMemory  Kind = "memory"  // MiB
	KindStorage Kind = "storage" // bytes
	KindGPU     Kind = "gpu"     // slices
)

// Pool describes one source of disaggregated capacity the composer may
// attach to a node: a CXL memory domain, a storage service, a GPU
// appliance. The collections say where the OFMF is asked; the closures
// say what it is asked for, which is all that differs between
// technologies, and decouple the composer from agent internals.
type Pool struct {
	Kind Kind
	Name string
	// Resources is the collection capacity is provisioned in
	// (MemoryChunks, Volumes, Processors).
	Resources odata.ID
	// Connections is the pool's fabric Connections collection.
	Connections odata.ID
	// Free reports remaining capacity in the kind's unit.
	Free func() int64
	// Provision renders the payload POSTed to Resources for amount units;
	// heads bounds simultaneous sharing and only memory reads it.
	Provision func(amount int64, heads int) []byte
	// Connection renders the connection that attaches the provisioned
	// resource to the node.
	Connection func(node string, resource odata.ID) redfish.Connection
	// Zoned pools put the connection's initiator endpoints in a zone of
	// their own on the pool's fabric before connecting.
	Zoned bool
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
	kind string   // "connection", "zone", "resource", "system"
	id   odata.ID // what to delete on teardown
	pool Kind     // for a "resource" step, the kind of pool it came from
}

// Composition is one realized request.
type Composition struct {
	ID        string   `json:"Id"`
	SystemURI odata.ID `json:"System"`
	BlockURI  odata.ID `json:"ResourceBlock,omitempty"`
	Node      string   `json:"Node"`
	Request   Request  `json:"Request"`
	// Resources lists the provisioned resources in attach order. It is
	// filled in snapshots only; steps is the record it is read from.
	Resources []odata.ID `json:"Resources"`

	// steps is the one ordered record of what the composition holds;
	// undoing it back to front is decomposition and rollback alike.
	steps []step
}

// resources lists the provisioned resources that came from pools of the
// given kind (of any kind when it is ""), in attach order.
func (comp *Composition) resources(kind Kind) []odata.ID {
	var out []odata.ID
	for _, st := range comp.steps {
		if st.kind == "resource" && (kind == "" || st.pool == kind) {
			out = append(out, st.id)
		}
	}
	return out
}

// Composer is the Composability Manager.
type Composer struct {
	svc    *service.Service
	policy Policy

	mu       sync.Mutex
	nodes    map[string]*NodeState
	pools    []*Pool
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

// AddPool registers a pool; attach tries pools of a kind in the order
// they were added.
func (c *Composer) AddPool(p *Pool) {
	c.mu.Lock()
	c.pools = append(c.pools, p)
	c.mu.Unlock()
}

// Nodes returns snapshots of all nodes, sorted by name.
func (c *Composer) Nodes() []NodeState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodesLocked()
}

func (c *Composer) nodesLocked() []NodeState {
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
	// Name becomes the last segment of the system's URI, and Append is
	// path.Join: anything but one plain segment would land the system
	// outside the Systems collection.
	if n := strings.TrimSpace(req.Name); req.Name != "" && (n == "" || n == "." || n == ".." || strings.Contains(n, "/")) {
		return Composition{}, fmt.Errorf("%w: Name %q is not a single path segment", ErrInvalidRequest, req.Name)
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
	if err := c.realize(ctx, comp, name); err != nil {
		c.undoSteps(ctx, comp, 0)
		c.mu.Lock()
		c.nodes[nodeName].UsedCores -= req.Cores
		c.mu.Unlock()
		return Composition{}, err
	}

	c.mu.Lock()
	c.comps[compID] = comp
	c.mu.Unlock()

	c.svc.Bus().PublishCtx(ctx, redfish.EventRecord{
		EventType:         redfish.EventResourceAdded,
		EventID:           compID,
		Severity:          "OK",
		Message:           fmt.Sprintf("composed system %s on node %s", name, nodeName),
		MessageID:         "OFMF.1.0.SystemComposed",
		OriginOfCondition: refTo(comp.SystemURI),
	})

	snap, _ := c.Get(compID)
	return snap, nil
}

// realize attaches what the request asks for to the reserved node and
// publishes the composed system and its ResourceBlock. On error the
// caller undoes whatever steps it recorded.
func (c *Composer) realize(ctx context.Context, comp *Composition, name string) error {
	req := comp.Request
	for _, ask := range []struct {
		kind   Kind
		amount int64
	}{
		{KindMemory, req.FabricMemoryMiB},
		{KindStorage, req.StorageBytes},
		{KindGPU, int64(req.GPUSlices)},
	} {
		if ask.amount > 0 {
			if err := c.attach(ctx, comp, ask.kind, ask.amount, req.MemoryHeads); err != nil {
				return err
			}
		}
	}

	// Publish the composed system.
	sysURI := service.SystemsURI.Append(name)
	sys := redfish.ComputerSystem{
		Resource:         odata.NewResource(sysURI, redfish.TypeComputerSystem, name),
		SystemType:       redfish.SystemTypeComposed,
		PowerState:       "On",
		Status:           odata.Status{State: odata.StateComposed, Health: odata.HealthOK},
		HostName:         comp.Node,
		ProcessorSummary: &redfish.ProcessorSummary{Count: 1, TotalCores: req.Cores},
	}
	sys.Links.ResourceBlocks = odata.RefSlice(comp.resources(""))
	if err := c.svc.Store().CreateCtx(ctx, sysURI, sys); err != nil {
		return fmt.Errorf("composer: publish system: %w", err)
	}
	comp.SystemURI = sysURI
	comp.steps = append(comp.steps, step{kind: "system", id: sysURI})

	// Publish the Redfish-native composition view: a ResourceBlock in the
	// CompositionService bundling the composed resources.
	blockURI := service.ResourceBlocksURI.Append(comp.ID)
	if err := c.svc.Store().PutCtx(ctx, blockURI, c.resourceBlock(blockURI, comp)); err != nil {
		return fmt.Errorf("composer: publish resource block: %w", err)
	}
	comp.BlockURI = blockURI
	comp.steps = append(comp.steps, step{kind: "system", id: blockURI})
	return nil
}

func refTo(id odata.ID) *odata.Ref {
	r := odata.NewRef(id)
	return &r
}

// snapshot copies a composition for external callers: the resource list
// is read out of the step record, which itself stays inside.
func snapshot(comp *Composition) Composition {
	cp := *comp
	cp.Resources = comp.resources("")
	cp.steps = nil
	return cp
}

// resourceBlock renders the composition as a ResourceBlock resource.
func (c *Composer) resourceBlock(uri odata.ID, comp *Composition) redfish.ResourceBlock {
	block := redfish.ResourceBlock{
		Resource:          odata.NewResource(uri, redfish.TypeResourceBlock, "Composition "+comp.ID),
		ResourceBlockType: []string{redfish.BlockCompute},
		CompositionStatus: redfish.CompositionStatus{CompositionState: redfish.CompositionComposed},
		Status:            odata.StatusOK(),
		Memory:            odata.RefSlice(comp.resources(KindMemory)),
		Storage:           odata.RefSlice(comp.resources(KindStorage)),
		Processors:        odata.RefSlice(comp.resources(KindGPU)),
	}
	if len(block.Memory) > 0 {
		block.ResourceBlockType = append(block.ResourceBlockType, redfish.BlockMemory)
	}
	if len(block.Storage) > 0 {
		block.ResourceBlockType = append(block.ResourceBlockType, redfish.BlockStorage)
	}
	if len(block.Processors) > 0 {
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
	return c.policy.SelectNode(c.nodesLocked(), req)
}

// units words an amount of each kind in errors.
var units = map[Kind]string{
	KindMemory:  "MiB of fabric memory",
	KindStorage: "bytes of storage",
	KindGPU:     "GPU slices",
}

// attach provisions amount units from the first pool of the kind that
// has them and accepts the request, and connects the resource to the
// composition's node (zoning the node's initiator first where the pool
// asks for it). A pool that rejects the provisioning is passed over; a
// connection that fails ends the attempt, and everything attach did is
// undone back to the mark taken at entry.
func (c *Composer) attach(ctx context.Context, comp *Composition, kind Kind, amount int64, heads int) error {
	c.mu.Lock()
	pools := append([]*Pool(nil), c.pools...)
	c.mu.Unlock()
	mark := len(comp.steps)
	var rejected error
	for _, p := range pools {
		if p.Kind != kind || p.Free() < amount {
			continue
		}
		res, err := c.svc.ProvisionResource(ctx, p.Resources, p.Provision(amount, heads))
		if err != nil {
			rejected = fmt.Errorf("pool %s: %w", p.Name, err)
			continue
		}
		comp.steps = append(comp.steps, step{kind: "resource", id: res, pool: kind})
		conn := p.Connection(comp.Node, res)
		if p.Zoned {
			// A zone-of-endpoints granting the node access to the pooled
			// device. A fabric that refuses the zone may still connect.
			zone, err := c.svc.CreateZone(ctx, p.Connections.Parent().Append("Zones"), redfish.Zone{
				Resource: odata.Resource{Name: "Zone for " + comp.ID},
				ZoneType: redfish.ZoneTypeZoneOfEndpoints,
				Links:    redfish.ZoneLinks{Endpoints: conn.Links.InitiatorEndpoints},
			})
			if err == nil {
				comp.steps = append(comp.steps, step{kind: "zone", id: zone.ODataID})
			}
		}
		created, err := c.svc.CreateConnection(ctx, p.Connections, conn)
		if err != nil {
			c.undoSteps(ctx, comp, mark)
			return fmt.Errorf("composer: %s connection: %w", kind, err)
		}
		comp.steps = append(comp.steps, step{kind: "connection", id: created.ODataID})
		return nil
	}
	if rejected != nil {
		return fmt.Errorf("%w: %d %s: last rejection: %v", ErrNoPool, amount, units[kind], rejected)
	}
	return fmt.Errorf("%w: %d %s", ErrNoPool, amount, units[kind])
}

// undoSteps is the one rollback: it reverses the composition's steps,
// newest first, until mark of them are left (0 tears everything down).
func (c *Composer) undoSteps(ctx context.Context, comp *Composition, mark int) {
	for len(comp.steps) > mark {
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
	c.undoSteps(ctx, comp, 0)
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
	if err := c.attach(ctx, comp, KindMemory, sizeMiB, 1); err != nil {
		return err
	}
	// Refresh the composed system's resource links and the block view.
	patch := map[string]any{"Links": map[string]any{"ResourceBlocks": odata.RefSlice(comp.resources(""))}}
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
		Request // the bare-request fields, and the system's Name, at top level
		Oem     struct {
			OFMF *Request `json:"OFMF"`
		} `json:"Oem"`
	}
	if err := json.Unmarshal(payload, &envelope); err != nil {
		return "", fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	req := envelope.Request
	if envelope.Oem.OFMF != nil {
		req = *envelope.Oem.OFMF
		if req.Name == "" {
			req.Name = envelope.Name
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
	for _, p := range c.pools {
		switch p.Kind {
		case KindMemory:
			s.FreeMemoryMiB += p.Free()
		case KindStorage:
			s.FreeStorageB += p.Free()
		case KindGPU:
			s.FreeGPUSlices += int(p.Free())
		}
	}
	return s
}
