// Package core assembles an OFMF node: the management service, the
// Composability Manager with its rule engine, and the telemetry
// collectors, the same on every node. With the testbed it adds the
// emulated hardware (CXL memory appliance, NVMe-oF target, cluster
// fabric, GPU pool) and the four technology-specific Agents: the
// "testbed in a box" used by the examples, the integration tests and the
// benchmark harness — the same wiring a physical deployment would
// perform across machines.
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
	// testbed forces its DirectWrites field on for its in-process agents.
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

// Framework is an assembled node; the hardware fields are nil without
// the testbed.
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

// New builds and starts the testbed: Assemble with the hardware.
func New(cfg Config) (*Framework, error) { return Assemble(cfg, true) }

// Assemble builds and starts an OFMF node, the same on every node: the
// service, the composer, the rule engine and the telemetry service.
// With testbed it also starts the emulated hardware, its agents and the
// compute nodes; without, agents register pools and publish nodes.
func Assemble(cfg Config, testbed bool) (*Framework, error) {
	cfg.defaults()
	svcCfg := cfg.Service
	svcCfg.DirectWrites = svcCfg.DirectWrites || testbed
	f := &Framework{Service: service.New(svcCfg)}
	f.Composer = composer.New(f.Service, cfg.Policy)
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
	f.Telem = telemetry.NewService(service.TelemetryServiceURI,
		func(id odata.ID, res any) { _ = f.Service.Store().Put(id, res) },
		f.Service.Publish,
	)
	if testbed {
		if err := f.startTestbed(cfg); err != nil {
			return nil, err
		}
	}

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

// startTestbed starts the emulated hardware and its agents, publishes the
// compute nodes and defines the pool-utilization report.
func (f *Framework) startTestbed(cfg Config) error {
	conn := &agent.Local{Service: f.Service}
	for i := 0; i < cfg.Nodes; i++ {
		f.NodeNames = append(f.NodeNames, NodeName(i))
	}

	// CXL memory appliance: one host port per node.
	f.CXL = cxlsim.New(cxlsim.WithoutSleep())
	for i := 0; i < cfg.CXLDevices; i++ {
		if err := f.CXL.AddDevice(fmt.Sprintf("dev%d", i), cfg.CXLDeviceMiB, "DRAM"); err != nil {
			return err
		}
	}
	for _, n := range f.NodeNames {
		if err := f.CXL.AddPort(n); err != nil {
			return err
		}
	}
	f.CXLAgent = cxlagent.New(conn, f.CXL, "CXL", "CXLMemoryAppliance")
	if err := f.CXLAgent.Start(); err != nil {
		return err
	}

	// NVMe-oF target.
	f.NVMe = nvmesim.New()
	if err := f.NVMe.AddPool("pool0", cfg.NVMePoolBytes); err != nil {
		return err
	}
	f.NVMeAgent = nvmeagent.New(conn, f.NVMe, "NVMe", "JBOF1")
	for _, n := range f.NodeNames {
		f.NVMeAgent.RegisterHost(n)
	}
	if err := f.NVMeAgent.Start(); err != nil {
		return err
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
		return err
	}
	f.FabAgent = fabagent.New(conn, f.Fabric, "HPC", redfish.ProtocolInfiniBand)
	if err := f.FabAgent.Start(); err != nil {
		return err
	}

	// GPU pool.
	f.GPUs = gpusim.New()
	for i := 0; i < cfg.GPUs; i++ {
		if err := f.GPUs.AddGPU(fmt.Sprintf("gpu%d", i), "A100", 40960, cfg.SlicesPerGPU); err != nil {
			return err
		}
	}
	f.GPUAgent = gpuagent.New(conn, f.GPUs, "PCIe", "GPUPool")
	if err := f.GPUAgent.Start(); err != nil {
		return err
	}

	// The compute nodes, which the composer follows.
	for _, n := range f.NodeNames {
		uri := service.SystemsURI.Append(n)
		if err := f.Service.Store().Put(uri, redfish.ComputerSystem{
			Resource:         odata.NewResource(uri, redfish.TypeComputerSystem, n),
			SystemType:       redfish.SystemTypePhysical,
			PowerState:       "On",
			Status:           odata.StatusOK(),
			HostName:         n,
			ProcessorSummary: &redfish.ProcessorSummary{Count: 1, TotalCores: cfg.CoresPerNode},
			MemorySummary:    &redfish.MemorySummary{TotalSystemMemoryGiB: nodeMemoryMiB / 1024},
		}); err != nil {
			return err
		}
	}

	// Telemetry: free-capacity gauges for every pool.
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
	return nil
}

func mustTelem(err error) {
	if err != nil {
		panic(fmt.Sprintf("core: telemetry bootstrap: %v", err))
	}
}

// Handler serves the Redfish tree and the Composability Layer facade
// through the service's one route lookup and one observability
// middleware, so composer requests are traced and counted too.
func (f *Framework) Handler() http.Handler { return f.Service.Handler() }

// Close stops the agents, the telemetry loop, and releases service
// resources. Safe to call more than once.
func (f *Framework) Close() {
	f.closeOnce.Do(func() {
		close(f.telemStop)
		if f.CXLAgent != nil {
			f.CXLAgent.Stop()
			f.NVMeAgent.Stop()
			f.FabAgent.Stop()
			f.GPUAgent.Stop()
		}
		f.Service.Close()
	})
}
