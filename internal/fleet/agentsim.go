package fleet

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"ofmf/internal/agent"
	"ofmf/internal/events"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/resilience"
)

// fleetPolicy is the resilience policy the simulated agents run under:
// a small retry budget with near-zero backoff (faults are injected, not
// real, so there is nothing to wait out) and the circuit breaker
// disabled — a breaker's real-time cool-down would stall a virtual-time
// scenario for seconds after every heal.
func fleetPolicy() resilience.Policy {
	return resilience.Policy{
		AttemptTimeout: time.Second,
		MaxAttempts:    3,
		Backoff:        resilience.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Jitter: 0.5},
		Breaker:        resilience.BreakerConfig{Threshold: -1},
	}
}

// simAgent is one emulated fleet endpoint: an agent.Remote wired
// through a per-agent seeded FaultTransport over the in-memory
// transport, plus the harness's ground truth about it — when its last
// heartbeat actually succeeded, whether it is currently "running" —
// against which the OFMF's converged state is judged.
type simAgent struct {
	idx  int
	key  string // fault-schedule key
	host string // callback URL, the registration dedup key
	port int
	conn *agent.Remote
	ft   *resilience.FaultTransport

	mu     sync.Mutex
	source odata.ID
	// lastOK is the virtual timestamp of the agent's last heartbeat (or
	// registration) the OFMF acknowledged — the harness's ground truth
	// for what the liveness sweeper should conclude.
	lastOK  time.Time
	beating bool
	emitted int // event sequence counter, survives crashes
}

func newSimAgent(idx int, seed int64, mem *memTransport, faults *resilience.ScriptedFaults) *simAgent {
	key := fmt.Sprintf("agent-%05d", idx)
	a := &simAgent{
		idx:  idx,
		key:  key,
		port: 9000,
		host: "http://" + key + ".sim:9000",
	}
	// Each agent derives its own seed so fault sequences are per-agent
	// deterministic regardless of scheduling interleavings.
	a.ft = &resilience.FaultTransport{
		Base:  mem,
		Seed:  seed + int64(idx)*7919,
		Rules: faults.Bind(key),
	}
	a.conn = &agent.Remote{
		BaseURL:     "http://ofmf.sim",
		CallbackURL: a.host,
		Client: &http.Client{Transport: &resilience.Transport{
			Base:      a.ft,
			Policy:    fleetPolicy(),
			Retryable: resilience.RetryAll,
		}},
		SpoolSize: 256,
	}
	return a
}

// fabricURI is the root of the agent's published subtree.
func (a *simAgent) fabricURI() odata.ID {
	return odata.ID(fmt.Sprintf("/redfish/v1/Fabrics/Sim%05d", a.idx))
}

// rehost moves the agent to its next port, as a restart on another port
// would: the URL it registers from changes, its claims do not.
func (a *simAgent) rehost() {
	a.port++
	a.host = fmt.Sprintf("http://%s.sim:%d", a.key, a.port)
}

// register announces the agent and claims the fabric it publishes,
// stamping the heartbeat with virtual now so the liveness sweeper's
// verdicts are clock-deterministic (the service would otherwise stamp
// wall time on revival).
func (a *simAgent) register(vnow time.Time) error {
	src := redfish.AggregationSource{
		HostName: a.host,
		Oem: redfish.AggSourceOem{OFMF: &redfish.AgentDescriptor{
			Technology:    "sim",
			Version:       "1.0",
			LastHeartbeat: redfish.Timestamp(vnow),
		}},
		Links: redfish.AggSourceLinks{ResourcesAccessed: []odata.Ref{odata.NewRef(a.fabricURI())}},
	}
	uri, err := a.conn.Register(src)
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.source = uri
	a.lastOK = vnow
	a.beating = true
	a.mu.Unlock()
	return nil
}

// publishSubtree installs the agent's small fabric subtree (one fabric,
// two endpoints) through the OEM aggregation endpoint.
func (a *simAgent) publishSubtree() error {
	root := a.fabricURI()
	res := map[odata.ID]any{
		root: redfish.Fabric{
			Resource:   odata.NewResource(root, redfish.TypeFabric, "Sim Fabric "+root.Leaf()),
			FabricType: "Ethernet",
			Status:     odata.StatusOK(),
		},
	}
	for i := 0; i < 2; i++ {
		ep := root.Append(fmt.Sprintf("Endpoints/%d", i))
		res[ep] = odata.NewResource(ep, redfish.TypeEndpoint, fmt.Sprintf("EP %d", i))
	}
	return a.conn.PublishSubtree(context.Background(), root, res)
}

// beat sends one heartbeat stamped with virtual now, updating ground
// truth only on success.
func (a *simAgent) beat(vnow time.Time) error {
	a.mu.Lock()
	uri := a.source
	a.mu.Unlock()
	if uri == "" {
		return fmt.Errorf("fleet: agent %d never registered", a.idx)
	}
	if err := a.conn.TouchSource(uri, redfish.Timestamp(vnow)); err != nil {
		return err
	}
	a.mu.Lock()
	a.lastOK = vnow
	a.mu.Unlock()
	return nil
}

// emit publishes n hardware events. Event IDs encode (agent, sequence)
// — "f00042-000007" — so receivers can verify per-agent ordering and
// exactly-once delivery.
func (a *simAgent) emit(n int) {
	a.mu.Lock()
	start := a.emitted
	a.emitted += n
	a.mu.Unlock()
	origin := a.fabricURI()
	for i := 0; i < n; i++ {
		rec := events.Record(redfish.EventAlert,
			fmt.Sprintf("f%05d-%06d", a.idx, start+i),
			"sim hardware event", origin)
		a.conn.PublishEvent(rec)
	}
}

// crash models the agent process dying: heartbeats stop and the
// in-memory spool is lost (counted as dropped).
func (a *simAgent) crash() {
	a.mu.Lock()
	a.beating = false
	a.mu.Unlock()
	a.conn.DropSpool()
}

// isBeating reports whether the agent is currently running.
func (a *simAgent) isBeating() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.beating
}

// groundTruth returns the agent's source URI and last acknowledged
// heartbeat instant.
func (a *simAgent) groundTruth() (odata.ID, time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.source, a.lastOK
}
