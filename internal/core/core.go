// Package core assembles a complete OFMF deployment in one process: the
// management service, the emulated hardware (CXL memory appliance,
// NVMe-oF target, cluster fabric, GPU pool), the four technology-specific
// Agents, the Composability Manager with its rule engine, and the
// telemetry collectors. It is the "testbed in a box" used by the
// examples, the integration tests and the benchmark harness — the same
// wiring a physical deployment would perform across machines.
package core

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"ofmf/internal/agent"
	"ofmf/internal/agent/cxlagent"
	"ofmf/internal/agent/fabagent"
	"ofmf/internal/agent/gpuagent"
	"ofmf/internal/agent/nvmeagent"
	"ofmf/internal/composer"
	"ofmf/internal/emul/cxlsim"
	"ofmf/internal/emul/fabsim"
	"ofmf/internal/emul/gpusim"
	"ofmf/internal/emul/nvmesim"
	"ofmf/internal/obsv"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
	"ofmf/internal/telemetry"
)

// nodeMemoryMiB is each compute node's local memory: 128 GiB.
const nodeMemoryMiB = 128 * 1024

// Config sizes the testbed.
type Config struct {
	// Nodes is the number of compute nodes (default 4).
	Nodes int
	// CoresPerNode is each node's core count (default 56, matching the
	// paper's ThunderX2 platform).
	CoresPerNode int
	// CXLDevices and CXLDeviceMiB size the pooled memory appliance
	// (default 4 × 256 GiB).
	CXLDevices   int
	CXLDeviceMiB int64
	// NVMePoolBytes sizes the disaggregated storage pool (default 16 TiB).
	NVMePoolBytes int64
	// GPUs and SlicesPerGPU size the GPU pool (default 8 × 7).
	GPUs         int
	SlicesPerGPU int
	// Policy is the composer placement policy (default FirstFit).
	Policy composer.Policy
	// Service overrides pieces of the OFMF service configuration; the
	// DirectWrites field is forced on for in-process components.
	Service service.Config
	// OOMHotAddMiB enables the out-of-memory mitigation rule with the
	// given hot-add step when positive.
	OOMHotAddMiB int64
}

func (c *Config) defaults() {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.CoresPerNode <= 0 {
		c.CoresPerNode = 56
	}
	if c.CXLDevices <= 0 {
		c.CXLDevices = 4
	}
	if c.CXLDeviceMiB <= 0 {
		c.CXLDeviceMiB = 256 * 1024
	}
	if c.NVMePoolBytes <= 0 {
		c.NVMePoolBytes = 16 << 40
	}
	if c.GPUs <= 0 {
		c.GPUs = 8
	}
	if c.SlicesPerGPU <= 0 {
		c.SlicesPerGPU = 7
	}
}

// Framework is the assembled testbed.
type Framework struct {
	Service  *service.Service
	Composer *composer.Composer
	Rules    *composer.RuleEngine
	Telem    *telemetry.Service

	CXL       *cxlsim.Appliance
	CXLAgent  *cxlagent.Agent
	NVMe      *nvmesim.Target
	NVMeAgent *nvmeagent.Agent
	Fabric    *fabsim.Fabric
	FabAgent  *fabagent.Agent
	GPUs      *gpusim.Pool
	GPUAgent  *gpuagent.Agent

	// NodeNames lists the compute node names ("node001", ...).
	NodeNames []string

	telemStop chan struct{}
	closeOnce sync.Once
}

// NodeName formats the canonical name of node i (0-based).
func NodeName(i int) string { return fmt.Sprintf("node%03d", i+1) }

// New builds and starts a framework. The returned framework is fully
// operational: agents registered and publishing, composer stocked with
// pools, rules bound.
func New(cfg Config) (*Framework, error) {
	cfg.defaults()
	svcCfg := cfg.Service
	svcCfg.DirectWrites = true
	f := &Framework{Service: service.New(svcCfg)}
	conn := &agent.Local{Service: f.Service}

	for i := 0; i < cfg.Nodes; i++ {
		f.NodeNames = append(f.NodeNames, NodeName(i))
	}

	// CXL memory appliance: one host port per node.
	f.CXL = cxlsim.New(cxlsim.WithoutSleep())
	for i := 0; i < cfg.CXLDevices; i++ {
		if err := f.CXL.AddDevice(fmt.Sprintf("dev%d", i), cfg.CXLDeviceMiB, "DRAM"); err != nil {
			return nil, err
		}
	}
	for _, n := range f.NodeNames {
		if err := f.CXL.AddPort(n); err != nil {
			return nil, err
		}
	}
	f.CXLAgent = cxlagent.New(conn, f.CXL, "CXL", "CXLMemoryAppliance")
	if err := f.CXLAgent.Start(); err != nil {
		return nil, err
	}

	// NVMe-oF target.
	f.NVMe = nvmesim.New()
	if err := f.NVMe.AddPool("pool0", cfg.NVMePoolBytes); err != nil {
		return nil, err
	}
	f.NVMeAgent = nvmeagent.New(conn, f.NVMe, "NVMe", "JBOF1")
	for _, n := range f.NodeNames {
		f.NVMeAgent.RegisterHost(n)
	}
	if err := f.NVMeAgent.Start(); err != nil {
		return nil, err
	}

	// Cluster interconnect: two-level fat tree over the compute nodes.
	f.Fabric = fabsim.New()
	nLeaf := (cfg.Nodes + 15) / 16
	if nLeaf < 2 {
		nLeaf = 2
	}
	nSpine := 2
	hostsPerLeaf := (cfg.Nodes + nLeaf - 1) / nLeaf
	if _, err := fabsim.BuildFatTree(f.Fabric, "port-", nLeaf, nSpine, hostsPerLeaf, 100, 400); err != nil {
		return nil, err
	}
	f.FabAgent = fabagent.New(conn, f.Fabric, "HPC", redfish.ProtocolInfiniBand)
	if err := f.FabAgent.Start(); err != nil {
		return nil, err
	}

	// GPU pool.
	f.GPUs = gpusim.New()
	for i := 0; i < cfg.GPUs; i++ {
		if err := f.GPUs.AddGPU(fmt.Sprintf("gpu%d", i), "A100", 40960, cfg.SlicesPerGPU); err != nil {
			return nil, err
		}
	}
	f.GPUAgent = gpuagent.New(conn, f.GPUs, "PCIe", "GPUPool")
	if err := f.GPUAgent.Start(); err != nil {
		return nil, err
	}

	// Composability Manager.
	f.Composer = composer.New(f.Service, cfg.Policy)
	for _, n := range f.NodeNames {
		if err := f.Composer.AddNode(n, cfg.CoresPerNode, nodeMemoryMiB); err != nil {
			return nil, err
		}
	}
	// Pools: where each technology is provisioned and connected, and the
	// payloads its agent expects (the agents' chunkRequest, volumeRequest
	// and partitionRequest shapes).
	cxlFabric := f.CXLAgent.FabricID()
	f.Composer.AddPool(&composer.Pool{
		Kind:        composer.KindMemory,
		Name:        "cxl-pool",
		Resources:   f.CXLAgent.ChassisID().Append("MemoryDomains", "Domain0", "MemoryChunks"),
		Connections: cxlFabric.Append("Connections"),
		Capacity: func() (mib int64) {
			for _, d := range f.CXL.Devices() {
				mib += d.CapacityMiB
			}
			return mib
		},
		Provision: func(mib int64, heads int) []byte {
			return fmt.Appendf(nil, `{"MemoryChunkSizeMiB": %d, "Oem": {"OFMF": {"MaxHeads": %d}}}`, mib, heads)
		},
		Zoned: true,
		Connection: func(node string, chunk odata.ID) redfish.Connection {
			return redfish.Connection{
				ConnectionType: "Memory",
				MemoryChunkInfo: []redfish.MemoryChunkInfo{{
					AccessCapabilities: []string{"Read", "Write"},
					MemoryChunk:        redfish.Ref(chunk),
				}},
				Links: redfish.ConnectionLinks{
					InitiatorEndpoints: []odata.Ref{odata.NewRef(cxlFabric.Append("Endpoints", node))},
				},
			}
		},
	})
	nvmeFabric := f.NVMeAgent.FabricID()
	f.Composer.AddPool(&composer.Pool{
		Kind:        composer.KindStorage,
		Name:        "nvme-pool",
		Resources:   f.NVMeAgent.StorageID().Append("Volumes"),
		Connections: nvmeFabric.Append("Connections"),
		Capacity: func() (bytes int64) {
			for _, p := range f.NVMe.Pools() {
				bytes += p.CapacityBytes
			}
			return bytes
		},
		Provision: func(bytes int64, _ int) []byte {
			return fmt.Appendf(nil, `{"CapacityBytes": %d}`, bytes)
		},
		Connection: func(node string, volume odata.ID) redfish.Connection {
			return redfish.Connection{
				ConnectionType: "Storage",
				VolumeInfo:     []redfish.VolumeInfo{{AccessCapabilities: []string{"Read", "Write"}, Volume: redfish.Ref(volume)}},
				Links: redfish.ConnectionLinks{
					InitiatorEndpoints: []odata.Ref{odata.NewRef(nvmeFabric.Append("Endpoints", node))},
				},
			}
		},
	})
	gpuFabric := f.GPUAgent.FabricID()
	f.Composer.AddPool(&composer.Pool{
		Kind:        composer.KindGPU,
		Name:        "gpu-pool",
		Resources:   f.GPUAgent.ChassisID().Append("Processors"),
		Connections: gpuFabric.Append("Connections"),
		Capacity: func() (slices int64) {
			for _, g := range f.GPUs.GPUs() {
				slices += int64(g.Slices)
			}
			return slices
		},
		Provision: func(slices int64, _ int) []byte {
			return fmt.Appendf(nil, `{"Oem": {"OFMF": {"Slices": %d}}}`, slices)
		},
		// The host is named by its system, the partition by the fabric
		// endpoint that carries the partition's leaf id.
		Connection: func(node string, partition odata.ID) redfish.Connection {
			return redfish.Connection{Links: redfish.ConnectionLinks{
				InitiatorEndpoints: []odata.Ref{odata.NewRef(service.SystemsURI.Append(node))},
				TargetEndpoints:    []odata.Ref{odata.NewRef(gpuFabric.Append("Endpoints", partition.Leaf()))},
			}}
		},
	})

	// Redfish-native composition: POST /redfish/v1/Systems composes,
	// DELETE of a composed system decomposes.
	f.Service.SetSystemComposer(f.Composer)

	// Rule engine: subscribed only if a rule is configured, and then only
	// to the event types its rules match.
	var rules []composer.Rule
	if cfg.OOMHotAddMiB > 0 {
		rules = append(rules, composer.OOMRule(f.Composer, cfg.OOMHotAddMiB))
	}
	f.Rules = composer.NewRuleEngine(rules...)
	if err := f.Rules.Bind(f.Service.Bus()); err != nil {
		return nil, err
	}

	// Telemetry: free-capacity gauges for every pool.
	f.Telem = telemetry.NewService(service.TelemetryServiceURI,
		func(id odata.ID, res any) { _ = f.Service.Store().Put(id, res) },
		f.Service.Publish,
	)
	mustTelem(f.Telem.DefineMetric("FreeMemoryMiB", "Gauge", "MiB"))
	mustTelem(f.Telem.DefineMetric("FreeStorageBytes", "Gauge", "By"))
	mustTelem(f.Telem.DefineMetric("FreeGPUSlices", "Gauge", "1"))
	mustTelem(f.Telem.DefineMetric("UsedCores", "Gauge", "1"))
	mustTelem(f.Telem.DefineReport("pool-utilization", 0, telemetry.CollectorFunc(func() []redfish.MetricValue {
		stats := f.Composer.Stats()
		return []redfish.MetricValue{
			telemetry.Gauge("FreeMemoryMiB", string(f.CXLAgent.ChassisID()), float64(stats.FreeMemoryMiB)),
			telemetry.Gauge("FreeStorageBytes", string(f.NVMeAgent.StorageID()), float64(stats.FreeStorageB)),
			telemetry.Gauge("FreeGPUSlices", string(f.GPUAgent.ChassisID()), float64(stats.FreeGPUSlices)),
			telemetry.Gauge("UsedCores", string(service.SystemsURI), float64(stats.UsedCores)),
		}
	})))

	// Self-telemetry: the management plane's own metrics registry feeds a
	// periodic MetricReport, so the OFMF's health is observable through the
	// same Redfish telemetry machinery as the hardware it manages.
	mustTelem(f.Telem.DefineReport("ManagementPlane", 10*time.Second,
		obsv.SelfCollector{Registry: f.Service.Metrics().Registry()}))
	if _, err := f.Telem.Generate("ManagementPlane"); err != nil {
		return nil, err
	}
	f.telemStop = make(chan struct{})
	go f.Telem.Run(f.telemStop)
	return f, nil
}

func mustTelem(err error) {
	if err != nil {
		panic(fmt.Sprintf("core: telemetry bootstrap: %v", err))
	}
}

// Handler serves the Redfish tree and the Composability Layer facade
// through the service's one route lookup and one observability
// middleware, so composer requests are traced and counted too.
func (f *Framework) Handler() http.Handler {
	return f.Service.HandlerWithComposer(f.Composer.Handler())
}

// Close stops the agents, the telemetry loop, and releases service
// resources. Safe to call more than once.
func (f *Framework) Close() {
	f.closeOnce.Do(func() {
		close(f.telemStop)
		f.CXLAgent.Stop()
		f.NVMeAgent.Stop()
		f.FabAgent.Stop()
		f.GPUAgent.Stop()
		f.Service.Close()
	})
}
