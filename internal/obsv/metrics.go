package obsv

// Metric naming scheme: every series the OFMF emits about itself is
// prefixed ofmf_ and grouped by subsystem — ofmf_http_* for the REST
// surface, ofmf_compose_* for the Composability Manager, ofmf_agent_*
// for forwarded fabric operations and agent liveness, ofmf_store_* for
// the resource repository, ofmf_events_* / ofmf_sse_* for the event
// subsystem. Durations are histograms in seconds.

// Metrics bundles the OFMF's own instruments, pre-registered on one
// registry so every component shares the same exposition endpoint.
type Metrics struct {
	reg *Registry

	// HTTPRequests counts finished requests by method, route class and
	// status code: ofmf_http_requests_total.
	HTTPRequests *CounterVec
	// HTTPDuration is the request latency histogram by method and route
	// class: ofmf_http_request_duration_seconds.
	HTTPDuration *HistogramVec
	// HTTPInFlight gauges currently executing requests:
	// ofmf_http_requests_in_flight.
	HTTPInFlight *Gauge

	// ComposeOps counts compose/decompose operations by outcome:
	// ofmf_compose_ops_total.
	ComposeOps *CounterVec
	// ComposeDuration times compose/decompose operations:
	// ofmf_compose_duration_seconds.
	ComposeDuration *HistogramVec

	// AgentOps counts fabric operations forwarded to agents by fabric,
	// operation and outcome: ofmf_agent_ops_total.
	AgentOps *CounterVec
	// AgentOpDuration times forwarded fabric operations:
	// ofmf_agent_op_duration_seconds.
	AgentOpDuration *HistogramVec
	// AgentHeartbeats counts heartbeat refreshes per aggregation source:
	// ofmf_agent_heartbeats_total.
	AgentHeartbeats *CounterVec
	// AgentLastHeartbeat gauges the unix time of each source's last
	// heartbeat, the liveness signal monitoring alerts on:
	// ofmf_agent_last_heartbeat_seconds.
	AgentLastHeartbeat *GaugeVec
	// AgentLiveness gauges the liveness sweeper's verdict per
	// aggregation source: 1 live, 0.5 degraded, 0 unavailable:
	// ofmf_agent_liveness.
	AgentLiveness *GaugeVec
	// Registrations counts aggregation-source registrations by outcome
	// (created, revived, error) — the fleet churn signal:
	// ofmf_registrations_total.
	Registrations *CounterVec
	// RegistrationSeconds times one registration through the serialized
	// dedup-or-create path: ofmf_registration_seconds.
	RegistrationSeconds *Histogram

	// StoreOps counts resource-store operations by kind:
	// ofmf_store_ops_total. The resource count is published beside it as
	// the ofmf_store_entries gather-time gauge (registered by the
	// service).
	StoreOps *CounterVec
	// StoreLockWait times every acquisition of the store's write lock —
	// the store's contention number, and the one that would justify
	// splitting the lock again (DESIGN §8): ofmf_store_lock_wait_seconds.
	StoreLockWait *Histogram

	// WALAppends counts mutation records appended to the store's
	// write-ahead log: ofmf_wal_appends_total.
	WALAppends *Counter
	// WALFsync times WAL group-commit sync (fdatasync) rounds; one round
	// can make many concurrent mutations durable: ofmf_wal_fsync_seconds.
	WALFsync *Histogram
	// SnapshotSeconds times durable snapshot capture, write and log
	// rotation: ofmf_snapshot_seconds.
	SnapshotSeconds *Histogram
	// RecoveryReplayed counts WAL records replayed at boot recovery:
	// ofmf_recovery_replayed_total.
	RecoveryReplayed *Counter
	// WALQuarantined counts WAL segments renamed aside because recovery
	// refused to replay them (found after a torn record, or holding
	// records beyond a global sequence gap). Quarantine preserves bytes
	// that may include acknowledged commits; a non-zero rate means an
	// operator should inspect the data directory:
	// ofmf_wal_quarantined_total.
	WALQuarantined *Counter

	// ReplShipped counts mutation records shipped to replication
	// followers (one increment per record per follower stream):
	// ofmf_repl_shipped_total.
	ReplShipped *Counter
	// ReplApplied counts replicated records applied by this node as a
	// follower: ofmf_repl_applied_total.
	ReplApplied *Counter
	// ReplEpoch gauges the node's current replication epoch; it bumps by
	// one at every failover: ofmf_repl_epoch.
	ReplEpoch *Gauge
	// ReplAppliedSeq gauges the last replicated sequence number this
	// node applied (follower) or committed (leader): ofmf_repl_seq.
	ReplAppliedSeq *Gauge
	// ReplAckLag times how long a committed record took to be
	// acknowledged by the first follower — the shipping lag a semi-sync
	// write waits out: ofmf_repl_ack_lag_seconds.
	ReplAckLag *Histogram

	// EventPublishSeconds times event fan-out on the publish path
	// (subscription-index match plus enqueue, or inline delivery in
	// synchronous mode): ofmf_event_publish_seconds.
	EventPublishSeconds *Histogram
	// SweepSeconds times liveness sweeper passes:
	// ofmf_sweep_seconds.
	SweepSeconds *Histogram

	// SSESubscribers gauges open server-sent-event streams:
	// ofmf_sse_subscribers.
	SSESubscribers *Gauge
	// SSEDropped counts events dropped on slow SSE consumers:
	// ofmf_sse_dropped_events_total.
	SSEDropped *Counter
}

// NewMetrics registers the OFMF instrument set on reg, along with the
// Go runtime health series (see RegisterRuntimeMetrics). Registration
// is idempotent: wiring two services onto one registry shares the
// series.
func NewMetrics(reg *Registry) *Metrics {
	RegisterRuntimeMetrics(reg)
	return &Metrics{
		reg: reg,
		HTTPRequests: reg.CounterVec("ofmf_http_requests_total",
			"HTTP requests served, by method, route class and status code.",
			"method", "class", "code"),
		HTTPDuration: reg.HistogramVec("ofmf_http_request_duration_seconds",
			"HTTP request latency in seconds, by method and route class.",
			nil, "method", "class"),
		HTTPInFlight: reg.Gauge("ofmf_http_requests_in_flight",
			"HTTP requests currently being served."),
		ComposeOps: reg.CounterVec("ofmf_compose_ops_total",
			"Compose/decompose operations, by operation and outcome.",
			"op", "outcome"),
		ComposeDuration: reg.HistogramVec("ofmf_compose_duration_seconds",
			"Compose/decompose latency in seconds, by operation and outcome.",
			nil, "op", "outcome"),
		AgentOps: reg.CounterVec("ofmf_agent_ops_total",
			"Fabric operations forwarded to agents, by fabric, operation and outcome.",
			"fabric", "op", "outcome"),
		AgentOpDuration: reg.HistogramVec("ofmf_agent_op_duration_seconds",
			"Forwarded fabric operation latency in seconds, by fabric and operation.",
			nil, "fabric", "op"),
		AgentHeartbeats: reg.CounterVec("ofmf_agent_heartbeats_total",
			"Agent heartbeat refreshes, by aggregation source.", "source"),
		AgentLastHeartbeat: reg.GaugeVec("ofmf_agent_last_heartbeat_seconds",
			"Unix time of each aggregation source's last heartbeat.", "source"),
		AgentLiveness: reg.GaugeVec("ofmf_agent_liveness",
			"Sweeper verdict per aggregation source: 1 live, 0.5 degraded, 0 unavailable.",
			"source"),
		Registrations: reg.CounterVec("ofmf_registrations_total",
			"Aggregation-source registrations, by outcome (created, revived, error).",
			"outcome"),
		RegistrationSeconds: reg.Histogram("ofmf_registration_seconds",
			"Aggregation-source registration latency in seconds.", nil),
		StoreOps: reg.CounterVec("ofmf_store_ops_total",
			"Resource store operations, by kind.", "op"),
		StoreLockWait: reg.Histogram("ofmf_store_lock_wait_seconds",
			"Time spent waiting for the store's write lock.", nil),
		WALAppends: reg.Counter("ofmf_wal_appends_total",
			"Mutation records appended to the store write-ahead log."),
		WALFsync: reg.Histogram("ofmf_wal_fsync_seconds",
			"WAL group-commit sync (fdatasync) round duration in seconds.", nil),
		SnapshotSeconds: reg.Histogram("ofmf_snapshot_seconds",
			"Durable store snapshot duration in seconds.", nil),
		RecoveryReplayed: reg.Counter("ofmf_recovery_replayed_total",
			"WAL records replayed during boot recovery."),
		WALQuarantined: reg.Counter("ofmf_wal_quarantined_total",
			"WAL segments quarantined by recovery (torn-tail successors or beyond a sequence gap)."),
		ReplShipped: reg.Counter("ofmf_repl_shipped_total",
			"Mutation records shipped to replication followers."),
		ReplApplied: reg.Counter("ofmf_repl_applied_total",
			"Replicated mutation records applied by this follower."),
		ReplEpoch: reg.Gauge("ofmf_repl_epoch",
			"Current replication epoch (leadership term)."),
		ReplAppliedSeq: reg.Gauge("ofmf_repl_seq",
			"Last replicated sequence number applied or committed by this node."),
		ReplAckLag: reg.Histogram("ofmf_repl_ack_lag_seconds",
			"Time from record commit to first follower acknowledgement.", nil),
		EventPublishSeconds: reg.Histogram("ofmf_event_publish_seconds",
			"Event publish fan-out duration in seconds (index match + enqueue).", nil),
		SweepSeconds: reg.Histogram("ofmf_sweep_seconds",
			"Liveness sweep duration in seconds.", nil),
		SSESubscribers: reg.Gauge("ofmf_sse_subscribers",
			"Open server-sent-event streams."),
		SSEDropped: reg.Counter("ofmf_sse_dropped_events_total",
			"Events dropped on slow SSE consumers."),
	}
}

// Registry returns the registry the instruments are registered on.
func (m *Metrics) Registry() *Registry { return m.reg }

// Outcome maps an operation error to the bounded outcome label.
func Outcome(err error) string {
	if err != nil {
		return "error"
	}
	return "ok"
}
