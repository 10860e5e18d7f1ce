// Package cxlsim emulates a CXL fabric-attached memory appliance: a pool
// of memory devices behind a CXL switch whose capacity can be carved into
// chunks and bound to host ports. It models the operations a real CXL 2.0
// switch's fabric manager performs — logical-device carving, bind/unbind
// with realistic latency, multi-headed sharing — so the OFMF's CXL Agent
// exercises the same code paths the paper's hardware would.
package cxlsim

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Sentinel errors.
var (
	ErrUnknownDevice = errors.New("cxlsim: unknown device")
	ErrUnknownChunk  = errors.New("cxlsim: unknown chunk")
	ErrUnknownPort   = errors.New("cxlsim: unknown port")
	ErrCapacity      = errors.New("cxlsim: insufficient capacity")
	ErrAlreadyBound  = errors.New("cxlsim: chunk already bound to port")
	ErrNotBound      = errors.New("cxlsim: chunk not bound to port")
	ErrChunkBusy     = errors.New("cxlsim: chunk has active bindings")
	ErrHeadLimit     = errors.New("cxlsim: multi-head limit reached")
	ErrDuplicate     = errors.New("cxlsim: duplicate id")
)

// Device is one memory device (an expander module) in the appliance.
type Device struct {
	ID          string
	CapacityMiB int64
	MediaType   string // DRAM, PMEM
	allocated   int64
}

// AllocatedMiB reports the capacity carved out of the device.
func (d *Device) AllocatedMiB() int64 { return d.allocated }

// Chunk is a carved memory region that can be bound to host ports.
type Chunk struct {
	ID       string
	Device   string
	SizeMiB  int64
	MaxHeads int
	bound    map[string]struct{}
}

// BoundPorts returns the ports the chunk is currently bound to, sorted.
func (c *Chunk) BoundPorts() []string {
	ports := make([]string, 0, len(c.bound))
	for p := range c.bound {
		ports = append(ports, p)
	}
	sort.Strings(ports)
	return ports
}

// Event describes an appliance state change.
type Event struct {
	Kind  string // ChunkCreated, ChunkReleased, Bound, Unbound
	Chunk string
	Port  string
}

// Listener receives appliance events.
type Listener func(Event)

// LatencyModel gives the simulated durations of management operations.
// The defaults approximate published CXL switch bind/unbind times.
type LatencyModel struct {
	Carve  time.Duration
	Bind   time.Duration
	Unbind time.Duration
}

// DefaultLatency returns the default management-operation latency model.
func DefaultLatency() LatencyModel {
	return LatencyModel{Carve: 2 * time.Millisecond, Bind: 10 * time.Millisecond, Unbind: 5 * time.Millisecond}
}

// Appliance is the emulated memory appliance.
type Appliance struct {
	latency LatencyModel
	sleep   func(time.Duration)

	mu        sync.Mutex
	devices   map[string]*Device
	chunks    map[string]*Chunk
	ports     map[string]struct{}
	nextChunk int
	listeners []Listener

	binds   int64
	unbinds int64
}

// Option configures the appliance.
type Option func(*Appliance)

// WithoutSleep disables real sleeping for management latency; operations
// still account their nominal durations but return immediately (used by
// fast tests and the discrete-event harness).
func WithoutSleep() Option { return func(a *Appliance) { a.sleep = func(time.Duration) {} } }

// New creates an empty appliance.
func New(opts ...Option) *Appliance {
	a := &Appliance{
		latency: DefaultLatency(),
		sleep:   time.Sleep,
		devices: make(map[string]*Device),
		chunks:  make(map[string]*Chunk),
		ports:   make(map[string]struct{}),
	}
	for _, o := range opts {
		o(a)
	}
	return a
}

// Subscribe registers a listener for appliance events.
func (a *Appliance) Subscribe(l Listener) {
	a.mu.Lock()
	a.listeners = append(a.listeners, l)
	a.mu.Unlock()
}

func (a *Appliance) emit(ev Event) {
	a.mu.Lock()
	ls := a.listeners
	a.mu.Unlock()
	for _, l := range ls {
		l(ev)
	}
}

// AddDevice installs a memory device.
func (a *Appliance) AddDevice(id string, capacityMiB int64, mediaType string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.devices[id]; ok {
		return fmt.Errorf("%w: device %s", ErrDuplicate, id)
	}
	a.devices[id] = &Device{ID: id, CapacityMiB: capacityMiB, MediaType: mediaType}
	return nil
}

// AddPort installs a host-facing port.
func (a *Appliance) AddPort(id string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.ports[id]; ok {
		return fmt.Errorf("%w: port %s", ErrDuplicate, id)
	}
	a.ports[id] = struct{}{}
	return nil
}

// Devices returns snapshots of all devices, sorted by id.
func (a *Appliance) Devices() []Device {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := make([]string, 0, len(a.devices))
	for id := range a.devices {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]Device, len(ids))
	for i, id := range ids {
		out[i] = *a.devices[id]
	}
	return out
}

// Device returns a snapshot of the device with the given id.
func (a *Appliance) Device(id string) (Device, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	d, ok := a.devices[id]
	if !ok {
		return Device{}, fmt.Errorf("%w: %s", ErrUnknownDevice, id)
	}
	return *d, nil
}

// Ports returns all port ids, sorted.
func (a *Appliance) Ports() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := make([]string, 0, len(a.ports))
	for id := range a.ports {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// FreeMiB reports the total uncarved capacity across devices.
func (a *Appliance) FreeMiB() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var free int64
	for _, d := range a.devices {
		free += d.CapacityMiB - d.allocated
	}
	return free
}

// Carve allocates a chunk of sizeMiB from the given device. maxHeads
// bounds simultaneous bindings (1 = exclusive; >1 = multi-headed shared
// memory). It returns the chunk id.
func (a *Appliance) Carve(deviceID string, sizeMiB int64, maxHeads int) (string, error) {
	if maxHeads < 1 {
		maxHeads = 1
	}
	a.mu.Lock()
	d, ok := a.devices[deviceID]
	if !ok {
		a.mu.Unlock()
		return "", fmt.Errorf("%w: %s", ErrUnknownDevice, deviceID)
	}
	if d.allocated+sizeMiB > d.CapacityMiB {
		a.mu.Unlock()
		return "", fmt.Errorf("%w: device %s has %d MiB free, need %d",
			ErrCapacity, deviceID, d.CapacityMiB-d.allocated, sizeMiB)
	}
	d.allocated += sizeMiB
	a.nextChunk++
	id := fmt.Sprintf("chunk-%d", a.nextChunk)
	a.chunks[id] = &Chunk{
		ID:       id,
		Device:   deviceID,
		SizeMiB:  sizeMiB,
		MaxHeads: maxHeads,
		bound:    make(map[string]struct{}),
	}
	a.mu.Unlock()
	a.sleep(a.latency.Carve)
	a.emit(Event{Kind: "ChunkCreated", Chunk: id})
	return id, nil
}

// CarveAny allocates a chunk from whichever device has the most free
// capacity (best-fit-decreasing heuristic used by pooled appliances).
func (a *Appliance) CarveAny(sizeMiB int64, maxHeads int) (string, error) {
	a.mu.Lock()
	var best string
	var bestFree int64 = -1
	ids := make([]string, 0, len(a.devices))
	for id := range a.devices {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		d := a.devices[id]
		free := d.CapacityMiB - d.allocated
		if free >= sizeMiB && free > bestFree {
			best, bestFree = id, free
		}
	}
	a.mu.Unlock()
	if best == "" {
		return "", fmt.Errorf("%w: no device with %d MiB free", ErrCapacity, sizeMiB)
	}
	return a.Carve(best, sizeMiB, maxHeads)
}

// Release frees a chunk. The chunk must have no active bindings.
func (a *Appliance) Release(chunkID string) error {
	a.mu.Lock()
	c, ok := a.chunks[chunkID]
	if !ok {
		a.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownChunk, chunkID)
	}
	if len(c.bound) > 0 {
		a.mu.Unlock()
		return fmt.Errorf("%w: %s bound to %v", ErrChunkBusy, chunkID, c.BoundPorts())
	}
	if d, ok := a.devices[c.Device]; ok {
		d.allocated -= c.SizeMiB
	}
	delete(a.chunks, chunkID)
	a.mu.Unlock()
	a.emit(Event{Kind: "ChunkReleased", Chunk: chunkID})
	return nil
}

// Bind attaches the chunk to a host port. Binding takes the configured
// bind latency, emulating the switch fabric manager's virtual-to-physical
// binding operation.
func (a *Appliance) Bind(chunkID, portID string) error {
	a.mu.Lock()
	c, ok := a.chunks[chunkID]
	if !ok {
		a.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownChunk, chunkID)
	}
	if _, ok := a.ports[portID]; !ok {
		a.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownPort, portID)
	}
	if _, ok := c.bound[portID]; ok {
		a.mu.Unlock()
		return fmt.Errorf("%w: %s -> %s", ErrAlreadyBound, chunkID, portID)
	}
	if len(c.bound) >= c.MaxHeads {
		a.mu.Unlock()
		return fmt.Errorf("%w: %s limited to %d heads", ErrHeadLimit, chunkID, c.MaxHeads)
	}
	c.bound[portID] = struct{}{}
	a.binds++
	a.mu.Unlock()
	a.sleep(a.latency.Bind)
	a.emit(Event{Kind: "Bound", Chunk: chunkID, Port: portID})
	return nil
}

// Unbind detaches the chunk from a host port.
func (a *Appliance) Unbind(chunkID, portID string) error {
	a.mu.Lock()
	c, ok := a.chunks[chunkID]
	if !ok {
		a.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownChunk, chunkID)
	}
	if _, ok := c.bound[portID]; !ok {
		a.mu.Unlock()
		return fmt.Errorf("%w: %s -> %s", ErrNotBound, chunkID, portID)
	}
	delete(c.bound, portID)
	a.unbinds++
	a.mu.Unlock()
	a.sleep(a.latency.Unbind)
	a.emit(Event{Kind: "Unbound", Chunk: chunkID, Port: portID})
	return nil
}

// Chunk returns a snapshot of the chunk with the given id.
func (a *Appliance) Chunk(id string) (Chunk, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c, ok := a.chunks[id]
	if !ok {
		return Chunk{}, fmt.Errorf("%w: %s", ErrUnknownChunk, id)
	}
	return snapshotChunk(c), nil
}

// Chunks returns snapshots of all chunks, sorted by id.
func (a *Appliance) Chunks() []Chunk {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := make([]string, 0, len(a.chunks))
	for id := range a.chunks {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]Chunk, len(ids))
	for i, id := range ids {
		out[i] = snapshotChunk(a.chunks[id])
	}
	return out
}

func snapshotChunk(c *Chunk) Chunk {
	cp := *c
	cp.bound = make(map[string]struct{}, len(c.bound))
	for p := range c.bound {
		cp.bound[p] = struct{}{}
	}
	return cp
}

// Counters reports lifetime bind/unbind counts (telemetry).
func (a *Appliance) Counters() (binds, unbinds int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.binds, a.unbinds
}
