// Package composer implements the Composability Manager the paper layers
// on top of the OFMF: the component that "can mitigate stranded resources
// by providing a method for sharing hardware, CPUs, GPUs, NVM, and
// memories". It tracks the free pool of disaggregated resources, applies a
// placement policy, and realizes compositions by provisioning capacity and
// establishing fabric connections through the OFMF — never by touching
// hardware directly.
package composer

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"ofmf/internal/obsv"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
	"ofmf/internal/store"
	"ofmf/internal/tasks"
)

// Sentinel errors.
var (
	ErrNoCapacity  = errors.New("composer: no node satisfies the request")
	ErrNoPool      = errors.New("composer: no pool can satisfy the request")
	ErrUnknownComp = fmt.Errorf("composer: unknown composition: %w", store.ErrNotFound)
	ErrUnknownNode = errors.New("composer: unknown node")
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

// NodeState is a snapshot of one compute node's allocation state.
type NodeState struct {
	Name      string
	Cores     int
	UsedCores int
	MemoryMiB int64
}

// FreeCores reports the node's unallocated cores.
func (n NodeState) FreeCores() int { return n.Cores - n.UsedCores }

// Composition is one realized request, as its ResourceBlock records it.
type Composition struct {
	ID        string   `json:"Id"`
	SystemURI odata.ID `json:"System"`
	BlockURI  odata.ID `json:"ResourceBlock,omitempty"`
	Node      string   `json:"Node"`
	Request   Request  `json:"Request"`
	// Resources lists memory, storage, then GPU partitions.
	Resources []odata.ID `json:"Resources"`
}

// record is what a composition's ResourceBlock holds in Oem.OFMF: what
// the rest of the tree lacks.
type record struct {
	Node    string     `json:"Node"`
	Request Request    `json:"Request"`
	Undo    []odata.ID `json:"Undo"` // zones and connections, oldest first
}

// block is a stored composition; one without the record is not.
type block struct {
	redfish.ResourceBlock
	Oem struct {
		OFMF *record `json:"OFMF,omitempty"`
	} `json:"Oem"`
}

// decodeBlock reads a stored block; nil unless it is a composition.
func decodeBlock(raw json.RawMessage) *block {
	var b block
	if raw == nil || json.Unmarshal(raw, &b) != nil || b.Oem.OFMF == nil || len(b.Links.ComputerSystems) == 0 {
		return nil
	}
	return &b
}

func (b *block) system() odata.ID { return b.Links.ComputerSystems[0].ODataID }

// resources lists every provisioned resource the block holds.
func (b *block) resources() []odata.ID {
	var out []odata.ID
	for _, refs := range [][]odata.Ref{b.Memory, b.Storage, b.Processors} {
		out = append(out, odata.IDsOf(refs)...)
	}
	return out
}

// types renders ResourceBlockType from what the block holds.
func (b *block) types() []string {
	types := []string{redfish.BlockCompute}
	for i, refs := range [][]odata.Ref{b.Memory, b.Storage, b.Processors} {
		if len(refs) > 0 {
			types = append(types, []string{redfish.BlockMemory, redfish.BlockStorage, redfish.BlockProcessor}[i])
		}
	}
	return types
}

func (b *block) composition() Composition {
	rec := b.Oem.OFMF
	return Composition{ID: b.ID, SystemURI: b.system(), BlockURI: b.ODataID,
		Node: rec.Node, Request: rec.Request, Resources: b.resources()}
}

// Composer is the Composability Manager. It keeps no books: it is a
// projection of the tree. Compositions are the ResourceBlocks, compute
// nodes the Physical Systems, pools the AggregationSources of the
// technologies it knows, and their usage and capacity what those
// agents publish; so a restart, a WAL replay, a replica's apply or an
// admin restore leaves it knowing what the tree holds. The projection
// runs inside store writes: never write to the store holding mu.
type Composer struct {
	svc    *service.Service
	policy Policy
	// routes maps each collection the projection follows to its apply,
	// a func(odata.ID, json.RawMessage); a pool edits its own two, under
	// mu, and the watcher reads them with no lock.
	routes sync.Map

	mu      sync.Mutex
	nodes   map[string]NodeState // UsedCores is filled in by nodesLocked
	sources map[odata.ID]offer   // every AggregationSource, by URI
	pools   map[odata.ID]*pool   // by the collection they provision into
	// byID and bySystem project the ResourceBlocks collection; a block
	// in them is never modified, only replaced.
	byID     map[string]*block
	bySystem map[odata.ID]string
	// reserved holds the compositions being realized whose block the
	// projection does not hold yet; their cores count until it does. It
	// is the one state the tree lacks, which a restart rightly forgets.
	reserved map[*record]struct{}
	// seed is the block a compose is creating, with the bytes it encoded:
	// the projection takes it instead of decoding them.
	seed *seed

	// idMu keeps a block id from NextID until the block is created, so
	// one seed at a time is pending.
	idMu sync.Mutex
}

// seed is a block as compose encoded it.
type seed struct {
	b   *block
	raw []byte
}

// New creates a composer over the given OFMF service. policy defaults to
// FirstFit.
func New(svc *service.Service, policy Policy) *Composer {
	if policy == nil {
		policy = FirstFit{}
	}
	c := &Composer{
		svc:      svc,
		policy:   policy,
		nodes:    make(map[string]NodeState),
		sources:  make(map[odata.ID]offer),
		pools:    make(map[odata.ID]*pool),
		byID:     make(map[string]*block),
		bySystem: make(map[odata.ID]string),
		reserved: make(map[*record]struct{}),
	}
	c.routes.Store(service.ResourceBlocksURI, c.applyBlock)
	c.routes.Store(service.AggregationSourcesURI, c.applySource)
	c.routes.Store(service.SystemsURI, c.applySystem)
	// One watcher for every collection followed, registered before
	// recovery, so WAL replay reaches it too.
	st := svc.Store()
	st.Watch(st.Projector(&c.mu, func(coll odata.ID) func(odata.ID, json.RawMessage) {
		apply, _ := c.routes.Load(coll)
		f, _ := apply.(func(odata.ID, json.RawMessage))
		return f
	}))
	return c
}

// applyBlock brings the projection to the stored block at id (raw nil:
// gone; a block that is not a composition is left out). The block
// compose is creating is taken as it was encoded when the stored bytes
// are those, and either way its reservation ends here, where the
// projection starts counting its cores. The projection calls it with
// c.mu held.
func (c *Composer) applyBlock(id odata.ID, raw json.RawMessage) {
	leaf := id.Leaf()
	if old := c.byID[leaf]; old != nil && c.bySystem[old.system()] == leaf {
		delete(c.bySystem, old.system())
	}
	delete(c.byID, leaf)
	var b *block
	if sd := c.seed; sd != nil && sd.b.ODataID == id {
		c.seed = nil
		delete(c.reserved, sd.b.Oem.OFMF)
		if bytes.Equal(raw, sd.raw) {
			b = sd.b
		}
	}
	if b == nil {
		b = decodeBlock(raw)
	}
	if b != nil {
		c.byID[leaf] = b
		c.bySystem[b.system()] = leaf
	}
}

// Nodes returns snapshots of all nodes, sorted by name.
func (c *Composer) Nodes() []NodeState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodesLocked()
}

// nodesLocked snapshots the nodes: a node's used cores are those its
// projected compositions hold plus those reserved on it.
func (c *Composer) nodesLocked() []NodeState {
	used := make(map[string]int)
	for _, b := range c.byID {
		used[b.Oem.OFMF.Node] += b.Oem.OFMF.Request.Cores
	}
	for rec := range c.reserved {
		used[rec.Node] += rec.Request.Cores
	}
	out := make([]NodeState, 0, len(c.nodes))
	for _, n := range c.nodes {
		n.UsedCores = used[n.Name]
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Compositions returns snapshots of live compositions, sorted by id.
func (c *Composer) Compositions() []Composition {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Composition, 0, len(c.byID))
	for _, b := range c.byID {
		out = append(out, b.composition())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get returns a snapshot of the composition with the given id.
func (c *Composer) Get(id string) (Composition, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.byID[id]
	if b == nil {
		return Composition{}, fmt.Errorf("%w: %s", ErrUnknownComp, id)
	}
	return b.composition(), nil
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

	// Select the node and reserve its cores until the block holds them.
	rec := &record{Request: req}
	c.mu.Lock()
	nodeName, err := c.selectNodeLocked(req)
	if err == nil {
		rec.Node, c.reserved[rec] = nodeName, struct{}{}
	}
	c.mu.Unlock()
	if err != nil {
		return Composition{}, err
	}
	defer func() {
		c.mu.Lock()
		delete(c.reserved, rec)
		c.mu.Unlock()
	}()

	b := &block{}
	b.Oem.OFMF = rec
	if err := c.realize(ctx, b); err != nil {
		c.teardown(ctx, b.Oem.OFMF.Undo, b.resources())
		return Composition{}, err
	}
	comp := b.composition()
	c.announce(ctx, redfish.EventResourceAdded, "SystemComposed", comp.ID, comp.SystemURI,
		fmt.Sprintf("composed system %s on node %s", comp.SystemURI.Leaf(), nodeName))
	return comp, nil
}

// realize attaches what the request asks for to the reserved node and
// publishes the composed system and its ResourceBlock, which records the
// composition. On error the caller tears down what b records.
func (c *Composer) realize(ctx context.Context, b *block) error {
	req := b.Oem.OFMF.Request
	for _, ask := range []struct {
		kind   Kind
		amount int64
		into   *[]odata.Ref
	}{
		{KindMemory, req.FabricMemoryMiB, &b.Memory},
		{KindStorage, req.StorageBytes, &b.Storage},
		{KindGPU, int64(req.GPUSlices), &b.Processors},
	} {
		if ask.amount > 0 {
			if err := c.attach(ctx, b, ask.into, ask.kind, ask.amount, req.MemoryHeads); err != nil {
				return err
			}
		}
	}

	// NextID names the block and Create never overwrites a stored one;
	// idMu keeps concurrent composes off the same id.
	st := c.svc.Store()
	c.idMu.Lock()
	defer c.idMu.Unlock()
	id := st.NextID(service.ResourceBlocksURI)
	name := req.Name
	if name == "" {
		name = "comp-" + id
	}
	blockURI := service.ResourceBlocksURI.Append(id)
	sysURI := service.SystemsURI.Append(name)
	sys := redfish.ComputerSystem{
		Resource:         odata.NewResource(sysURI, redfish.TypeComputerSystem, name),
		SystemType:       redfish.SystemTypeComposed,
		PowerState:       "On",
		Status:           odata.Status{State: odata.StateComposed, Health: odata.HealthOK},
		HostName:         b.Oem.OFMF.Node,
		ProcessorSummary: &redfish.ProcessorSummary{Count: 1, TotalCores: req.Cores},
	}
	sys.Links.ResourceBlocks = []odata.Ref{odata.NewRef(blockURI)}
	if err := st.CreateCtx(ctx, sysURI, sys); err != nil {
		return fmt.Errorf("composer: publish system: %w", err)
	}

	// The Redfish-native composition view: a ResourceBlock in the
	// CompositionService bundling the composed resources.
	b.Resource = odata.NewResource(blockURI, redfish.TypeResourceBlock, "Composition "+id)
	b.ResourceBlockType = b.types()
	b.CompositionStatus = redfish.CompositionStatus{CompositionState: redfish.CompositionComposed}
	b.Status = odata.StatusOK()
	b.Links.ComputerSystems = []odata.Ref{odata.NewRef(sysURI)}
	raw, err := json.Marshal(b)
	if err == nil {
		// The projection takes b rather than decode what it was encoded
		// from, and ends the reservation as it starts counting b.
		c.mu.Lock()
		c.seed = &seed{b: b, raw: raw}
		c.mu.Unlock()
		err = st.CreateCtx(ctx, blockURI, json.RawMessage(raw))
		c.mu.Lock()
		c.seed = nil
		c.mu.Unlock()
	}
	if err != nil {
		_ = st.DeleteCtx(ctx, sysURI)
		return fmt.Errorf("composer: publish resource block: %w", err)
	}
	return nil
}

// announce publishes one of the composer's events about a system.
func (c *Composer) announce(ctx context.Context, eventType, messageID, id string, system odata.ID, message string) {
	c.svc.Bus().PublishCtx(ctx, redfish.EventRecord{EventType: eventType, EventID: id, Severity: "OK",
		Message: message, MessageID: "OFMF.1.0." + messageID, OriginOfCondition: redfish.Ref(system)})
}

func (c *Composer) selectNodeLocked(req Request) (string, error) {
	nodes := c.nodesLocked()
	if req.Node == "" {
		return c.policy.SelectNode(nodes, req)
	}
	for _, n := range nodes {
		if n.Name != req.Node {
			continue
		}
		if n.FreeCores() < req.Cores {
			return "", fmt.Errorf("%w: node %s has %d free cores, need %d",
				ErrNoCapacity, req.Node, n.FreeCores(), req.Cores)
		}
		return req.Node, nil
	}
	return "", fmt.Errorf("%w: %s", ErrUnknownNode, req.Node)
}

// units words an amount of each kind in errors.
var units = map[Kind]string{
	KindMemory:  "MiB of fabric memory",
	KindStorage: "bytes of storage",
	KindGPU:     "GPU slices",
}

// attach provisions amount units from the first pool of the kind that
// has them and accepts the request, connects the resource to b's node
// (zoning the node's initiator first where the pool asks for it), and
// files the resource in into and the zone and connection in b's record.
// A pool that rejects the provisioning is passed over; a connection that
// fails ends the attempt, and what this attach made is undone.
func (c *Composer) attach(ctx context.Context, b *block, into *[]odata.Ref, kind Kind, amount int64, heads int) error {
	c.mu.Lock()
	pools := make([]*pool, 0, len(c.pools))
	for _, p := range c.pools {
		pools = append(pools, p)
	}
	c.mu.Unlock()
	slices.SortFunc(pools, bySource)
	node := b.Oem.OFMF.Node
	var rejected error
	for _, p := range pools {
		if p.kind != kind {
			continue
		}
		res, err := c.provision(ctx, p, amount, heads)
		if err != nil {
			rejected = fmt.Errorf("pool %s: %w", p.source, err)
		}
		if res == "" {
			continue
		}
		var undo []odata.ID
		conn := p.connection(node, res)
		if p.zoned {
			// A zone-of-endpoints granting the node access to the pooled
			// device. A fabric that refuses the zone may still connect.
			zone, err := c.svc.CreateZone(ctx, p.fabric.Append("Zones"), redfish.Zone{
				ZoneType: redfish.ZoneTypeZoneOfEndpoints,
				Links:    redfish.ZoneLinks{Endpoints: conn.Links.InitiatorEndpoints},
			})
			if err == nil {
				undo = append(undo, zone.ODataID)
			}
		}
		created, err := c.svc.CreateConnection(ctx, p.fabric.Append("Connections"), conn)
		if err != nil {
			c.teardown(ctx, undo, []odata.ID{res})
			return fmt.Errorf("composer: %s connection: %w", kind, err)
		}
		*into = append(*into, odata.NewRef(res))
		b.Oem.OFMF.Undo = append(b.Oem.OFMF.Undo, append(undo, created.ODataID)...)
		return nil
	}
	if rejected != nil {
		return fmt.Errorf("%w: %d %s: last rejection: %v", ErrNoPool, amount, units[kind], rejected)
	}
	return fmt.Errorf("%w: %d %s", ErrNoPool, amount, units[kind])
}

// provision claims amount units from p; it returns "" and no error when
// the tree says p lacks them.
func (c *Composer) provision(ctx context.Context, p *pool, amount int64, heads int) (odata.ID, error) {
	p.claim.Lock()
	defer p.claim.Unlock()
	c.mu.Lock()
	free := p.capacity.sum - p.used.sum
	c.mu.Unlock()
	if free < amount {
		return "", nil
	}
	return c.svc.ProvisionResource(ctx, p.used.coll, fmt.Appendf(nil, p.provision, amount, heads))
}

// teardown is the one rollback: it removes undo's zones and connections,
// then the resources, each newest first, and ignores what is gone.
func (c *Composer) teardown(ctx context.Context, undo, resources []odata.ID) {
	for i := len(undo) - 1; i >= 0; i-- {
		if id := undo[i]; id.Parent().Leaf() == "Zones" {
			_ = c.svc.DeleteZone(ctx, id)
		} else {
			_ = c.svc.DeleteConnection(ctx, id)
		}
	}
	for i := len(resources) - 1; i >= 0; i-- {
		_ = c.svc.DeprovisionResource(ctx, resources[i])
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
	b := c.byID[id]
	c.mu.Unlock()
	if b == nil {
		return fmt.Errorf("%w: %s", ErrUnknownComp, id)
	}
	// Deleting the block claims it: a concurrent decompose finds it gone.
	if err := c.svc.Store().DeleteCtx(ctx, b.ODataID); errors.Is(err, store.ErrNotFound) {
		return fmt.Errorf("%w: %s", ErrUnknownComp, id)
	} else if err != nil {
		return err
	}
	sysURI := b.system()
	_ = c.svc.Store().DeleteCtx(ctx, sysURI)
	c.teardown(ctx, b.Oem.OFMF.Undo, b.resources())

	c.announce(ctx, redfish.EventResourceRemoved, "SystemDecomposed", id, sysURI, fmt.Sprintf("decomposed system %s", id))
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
	// Read from the store, not the projection: the entity tag guards the
	// patch against a concurrent hot-add or decompose.
	uri := service.ResourceBlocksURI.Append(compID)
	raw, etag, _ := c.svc.Store().Get(uri)
	b := decodeBlock(raw)
	if b == nil {
		return fmt.Errorf("%w: %s", ErrUnknownComp, compID)
	}
	rec := b.Oem.OFMF
	memory, undo := len(b.Memory), len(rec.Undo)
	if err := c.attach(ctx, b, &b.Memory, KindMemory, sizeMiB, 1); err != nil {
		return err
	}
	patch := map[string]any{
		"Memory":            b.Memory,
		"ResourceBlockType": b.types(),
		"Oem":               map[string]any{"OFMF": map[string]any{"Undo": rec.Undo}},
	}
	if err := c.svc.Store().PatchCtx(ctx, uri, patch, etag); err != nil {
		c.teardown(ctx, rec.Undo[undo:], odata.IDsOf(b.Memory[memory:]))
		return err
	}
	c.announce(ctx, redfish.EventResourceUpdated, "MemoryHotAdded", compID, b.system(),
		fmt.Sprintf("hot-added %d MiB to %s", sizeMiB, compID))
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
	id, ok := c.bySystem[systemURI]
	c.mu.Unlock()
	if !ok {
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
	var s Stats
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodesLocked() {
		s.TotalCores += n.Cores
		s.UsedCores += n.UsedCores
	}
	s.Compositions = len(c.byID)
	for _, p := range c.pools {
		switch free := p.capacity.sum - p.used.sum; p.kind {
		case KindMemory:
			s.FreeMemoryMiB += free
		case KindStorage:
			s.FreeStorageB += free
		case KindGPU:
			s.FreeGPUSlices += int(free)
		}
	}
	return s
}
