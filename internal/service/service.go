// Package service implements the OFMF itself: the centralized Redfish/
// Swordfish management service. It assembles the resource store into a
// service root, serves the Redfish REST protocol over net/http, hosts the
// event, task, session, telemetry, aggregation and composition services,
// and forwards fabric mutations (zones, connections, port state) to the
// technology-specific Agents that registered the affected fabric.
//
// The design follows the paper's architecture: clients talk to one Redfish
// tree ("an HPC disaggregated infrastructure is represented under a single
// Redfish tree that includes all the fabrics and resources available");
// requests touching agent-owned resources "are forwarded to the
// appropriate fabric manager via dedicated light-weight technology-
// specific Agents".
package service

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ofmf/internal/events"
	"ofmf/internal/obsv"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/sessions"
	"ofmf/internal/store"
	"ofmf/internal/tasks"
)

// Well-known URIs of the service tree.
const (
	RootURI               = odata.ID("/redfish/v1")
	SystemsURI            = RootURI + "/Systems"
	ChassisURI            = RootURI + "/Chassis"
	FabricsURI            = RootURI + "/Fabrics"
	StorageURI            = RootURI + "/Storage"
	EventServiceURI       = RootURI + "/EventService"
	SubscriptionsURI      = EventServiceURI + "/Subscriptions"
	TaskServiceURI        = RootURI + "/TaskService"
	TasksURI              = TaskServiceURI + "/Tasks"
	SessionServiceURI     = RootURI + "/SessionService"
	SessionsURI           = SessionServiceURI + "/Sessions"
	TelemetryServiceURI   = RootURI + "/TelemetryService"
	MetricDefinitionsURI  = TelemetryServiceURI + "/MetricDefinitions"
	MetricReportDefsURI   = TelemetryServiceURI + "/MetricReportDefinitions"
	MetricReportsURI      = TelemetryServiceURI + "/MetricReports"
	AggregationServiceURI = RootURI + "/AggregationService"
	AggregationSourcesURI = AggregationServiceURI + "/AggregationSources"
	CompositionServiceURI = RootURI + "/CompositionService"
	ResourceBlocksURI     = CompositionServiceURI + "/ResourceBlocks"
	ResourceZonesURI      = CompositionServiceURI + "/ResourceZones"
	RegistriesURI         = RootURI + "/Registries"
)

// SystemComposer handles Redfish-native composition: a POST to the
// Systems collection becomes a composition request, and a DELETE of a
// composed system becomes decomposition; requests under /composer/ are
// its facade's. The Composability Manager implements it; the service
// stays policy-free.
type SystemComposer interface {
	http.Handler
	// ComposeSystem realizes the request payload and returns the composed
	// system's URI. ctx carries the request id for trace correlation.
	ComposeSystem(ctx context.Context, payload []byte) (odata.ID, error)
	// DecomposeSystem releases the composed system at the URI; an error
	// wrapping store.ErrNotFound means it composed none there.
	DecomposeSystem(ctx context.Context, systemURI odata.ID) error
}

// FabricHandler is implemented by Agents. The service forwards mutations of
// agent-owned fabric resources to the owning handler; the handler applies
// the change to its hardware (emulated or real) and publishes what the
// change touched before returning, so the store reflects hardware truth.
// Every operation takes the request context first: it carries the
// request's deadline and trace identity to a remote agent, and the
// request's unit of work (store.Deferred) to an in-process agent's
// publishes.
type FabricHandler interface {
	// CreateConnection establishes the requested connection in hardware.
	// The handler may mutate conn (fill identifiers, status) before it is
	// stored.
	CreateConnection(ctx context.Context, conn *redfish.Connection) error
	// DeleteConnection tears the connection down in hardware.
	DeleteConnection(ctx context.Context, id odata.ID) error
	// CreateZone establishes the zone in hardware.
	CreateZone(ctx context.Context, zone *redfish.Zone) error
	// DeleteZone removes the zone from hardware.
	DeleteZone(ctx context.Context, id odata.ID) error
	// Patch applies an arbitrary property patch to an agent-owned resource
	// (e.g. disabling a Port).
	Patch(ctx context.Context, id odata.ID, patch map[string]any) error
}

// Config parameterizes the service.
type Config struct {
	// Name is the service root display name.
	Name string
	// UUID identifies the service instance.
	UUID string
	// Credentials enables authentication when non-nil: every request
	// except the service root, $metadata and session creation must carry a
	// valid X-Auth-Token.
	Credentials sessions.Credentials
	// SessionTimeout bounds session lifetime (default 30 minutes).
	SessionTimeout time.Duration
	// Events tunes the event bus.
	Events events.Config
	// SSEKeepalive is the interval between comment frames written to idle
	// SSE streams so dead clients are detected and reaped instead of
	// holding a subscription forever (default 15s; negative disables).
	SSEKeepalive time.Duration
	// DirectWrites permits generic POST/PATCH/DELETE on resources that are
	// not handled by a dedicated endpoint or fabric agent. The in-process
	// testbed and the composer use this; it mirrors the reference OFMF
	// emulator's permissive mode.
	DirectWrites bool
	// ChangeEvents publishes ResourceAdded/Updated/Removed on every store
	// mutation (default on).
	ChangeEvents *bool
	// Logger receives the service's structured log output (default: drop
	// everything). Request-scoped lines carry the request_id attribute.
	Logger *slog.Logger
	// Metrics is the instrument bundle the service records into; when nil
	// a private registry is created. Expose it at /metrics via
	// Metrics.Registry().Handler().
	Metrics *obsv.Metrics
	// Tracer records request spans; when nil one is created on the
	// metrics registry with default options (traces buffered, no slow
	// logging). It is shared with the store, the event bus and the
	// composer so one request yields one linked trace.
	Tracer *obsv.Tracer
	// Liveness tunes the aggregation-source liveness sweeper (see
	// LivenessSweeper); with a zero Interval it sweeps only on demand.
	Liveness LivenessConfig
	// Deprecated: StoreShards is ignored — the store has one lock domain
	// (DESIGN §8). It exists only so the frozen bench/ module keeps
	// compiling; remove it with the persist shims at the next benchmark
	// PR.
	StoreShards int
}

// Service is the OFMF instance.
type Service struct {
	cfg Config

	store    *store.Store
	bus      *events.Bus
	tasks    *tasks.Service
	sessions *sessions.Service
	log      *slog.Logger
	metrics  *obsv.Metrics
	tracer   *obsv.Tracer

	mu sync.RWMutex
	// handlers is the handler index, who serves each subtree: the handler
	// operations under a prefix go to. below counts the prefixes strictly
	// under each id, so the nesting check is lookups along one path.
	handlers map[odata.ID]FabricHandler
	below    map[odata.ID]int
	composer SystemComposer

	subsMu sync.Mutex // serializes applySubscription

	// liveness is the projection of AggregationSources: the HostName
	// index registration dedups against, and the heartbeat sweeper.
	liveness *LivenessSweeper

	// allocMu serializes id allocation for POSTed resources so concurrent
	// creations in one collection cannot collide.
	allocMu sync.Mutex

	// replica, when non-nil, puts the service in replica serving mode:
	// reads are served from the local (replicated) tree, everything
	// else is redirected to the leader it names (see replica.go). An
	// atomic pointer so the hot GET path pays one load, no lock.
	replica atomic.Pointer[func() string]
}

// SetSystemComposer wires Redfish-native composition: subsequent POSTs to
// /redfish/v1/Systems, DELETEs of composed systems and requests under
// /composer/ route through c.
func (s *Service) SetSystemComposer(c SystemComposer) {
	s.mu.Lock()
	s.composer = c
	s.mu.Unlock()
}

func (s *Service) systemComposer() SystemComposer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.composer
}

// New assembles an OFMF service and bootstraps its resource tree.
func New(cfg Config) *Service {
	if cfg.Name == "" {
		cfg.Name = "OpenFabrics Management Framework"
	}
	if cfg.UUID == "" {
		cfg.UUID = "00000000-0000-0000-0000-000000000001"
	}
	if cfg.SessionTimeout <= 0 {
		cfg.SessionTimeout = 30 * time.Minute
	}
	if cfg.Logger == nil {
		cfg.Logger = obsv.NopLogger()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obsv.NewMetrics(obsv.NewRegistry())
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obsv.NewTracer(cfg.Metrics.Registry(), obsv.TracerOptions{Logger: cfg.Logger})
	}
	s := &Service{
		cfg:      cfg,
		store:    store.New(),
		log:      cfg.Logger,
		metrics:  cfg.Metrics,
		tracer:   cfg.Tracer,
		handlers: make(map[odata.ID]FabricHandler),
		below:    make(map[odata.ID]int),
	}
	// Watching from the very first mutation, the projection also covers
	// sources re-created by WAL replay and a leader's stream.
	s.liveness = newLivenessSweeper(s, cfg.Liveness)
	// One counter per store.OpNames entry, resolved up front: With builds
	// a key string on every call, which would put an allocation on the
	// zero-alloc read path. Finding the op is a scan of a dozen short
	// names, most of which differ in length.
	opCounters := make([]*obsv.Counter, len(store.OpNames))
	for i, op := range store.OpNames {
		opCounters[i] = s.metrics.StoreOps.With(op)
	}
	s.store.SetObserver(&store.Observer{
		Op: func(op string) {
			for i, name := range store.OpNames {
				if name == op {
					opCounters[i].Inc()
					return
				}
			}
		},
		LockWait: func(wait time.Duration) { s.metrics.StoreLockWait.Observe(wait.Seconds()) },
		Tracer:   s.tracer,
	})
	s.metrics.Registry().GaugeFunc("ofmf_store_entries",
		"Resources held by the store.",
		func() float64 { return float64(s.store.Len()) })
	s.metrics.Registry().GaugeFunc("ofmf_store_live_bytes",
		"Payload bytes the store holds: the live tree the WAL compaction trigger compares its log against.",
		func() float64 { return float64(s.store.LiveBytes()) })
	// Degrade a subscription's advertised health as deliveries fail, so
	// monitoring clients can see dead destinations in the tree.
	evCfg := cfg.Events
	if evCfg.Tracer == nil {
		evCfg.Tracer = s.tracer
	}
	if evCfg.OnDeliveryFailure == nil {
		evCfg.OnDeliveryFailure = func(subID string, consecutive int) {
			health := odata.HealthWarning
			if consecutive >= 3 {
				health = odata.HealthCritical
			}
			// SSE subscriptions have no stored resource; ignore misses.
			_ = s.store.Patch(SubscriptionsURI.Append(subID),
				map[string]any{"Status": map[string]any{"Health": health}}, "")
		}
	}
	if evCfg.PublishObserver == nil {
		evCfg.PublishObserver = func(d time.Duration) {
			s.metrics.EventPublishSeconds.Observe(d.Seconds())
		}
	}
	s.bus = events.NewBus(evCfg)
	// Stored subscriptions reach the bus only through this projection:
	// live POSTs, PATCHes and DELETEs, WAL replay and a leader's stream
	// alike, so a restart or a promotion needs no rebuild step.
	s.store.Watch(s.store.Projection(SubscriptionsURI, &s.subsMu, s.applySubscription))
	// Event-bus statistics surface as function metrics read at scrape
	// time, so the bus keeps sole ownership of its counters.
	reg := s.metrics.Registry()
	reg.CounterFunc("ofmf_events_published_total",
		"Events published on the bus.",
		func() float64 { return float64(s.bus.Stats().Published) })
	reg.CounterFunc("ofmf_events_delivered_total",
		"Successful event deliveries across subscriptions.",
		func() float64 { return float64(s.bus.Stats().Delivered) })
	reg.CounterFunc("ofmf_events_failed_total",
		"Event deliveries abandoned after exhausting retries.",
		func() float64 { return float64(s.bus.Stats().Failed) })
	reg.CounterFunc("ofmf_events_dropped_total",
		"Events dropped on full subscription queues.",
		func() float64 { return float64(s.bus.Stats().Dropped) })
	reg.CounterFunc("ofmf_events_dropped_closed_total",
		"Events discarded because their subscription was closed.",
		func() float64 { return float64(s.bus.Stats().DroppedClosed) })
	reg.GaugeFunc("ofmf_event_subscribers",
		"Registered event subscriptions.",
		func() float64 { return float64(len(s.bus.Subscriptions())) })
	reg.CounterFunc("ofmf_event_encodes_total",
		"Event envelope encodings (one per publish reaching a byte sink).",
		func() float64 { return float64(s.bus.Stats().Encodes) })
	reg.GaugeFunc("ofmf_event_workers",
		"Delivery worker pool size.",
		func() float64 { return float64(s.bus.Pool().Workers) })
	reg.GaugeFunc("ofmf_event_workers_busy",
		"Delivery workers currently mid-delivery.",
		func() float64 { return float64(s.bus.Pool().Busy) })
	reg.GaugeFunc("ofmf_event_queue_depth",
		"Events waiting across all subscription queues.",
		func() float64 { return float64(s.bus.Pool().Queued) })
	s.tasks = tasks.NewService(s.store, TasksURI, tasks.WithNotifier(s.Publish))
	check := cfg.Credentials
	if check == nil {
		check = func(string, string) bool { return true }
	}
	s.sessions = sessions.NewService(s.store, SessionsURI, check, cfg.SessionTimeout)
	s.bootstrap()
	if cfg.ChangeEvents == nil || *cfg.ChangeEvents {
		s.store.Watch(s.publishChange)
	}
	if cfg.Liveness.Interval > 0 {
		s.liveness.halt = s.liveness.start()
	}
	return s
}

// Store exposes the resource repository for in-process components (the
// composer, in-process agents, tests).
func (s *Service) Store() *store.Store { return s.store }

// Bus exposes the event bus for in-process subscribers.
func (s *Service) Bus() *events.Bus { return s.bus }

// Tasks exposes the task service.
func (s *Service) Tasks() *tasks.Service { return s.tasks }

// Logger exposes the service's structured logger so in-process
// components (composer, agents) log into the same correlated stream.
func (s *Service) Logger() *slog.Logger { return s.log }

// Metrics exposes the service's instrument bundle.
func (s *Service) Metrics() *obsv.Metrics { return s.metrics }

// Tracer exposes the service's span tracer so in-process components
// (composer, agents, the testbed) record into the same trace ring.
func (s *Service) Tracer() *obsv.Tracer { return s.tracer }

// Close releases the service's background resources: the liveness
// ticker, the event bus, and the store's durability backend if one is
// attached — flushing its write-ahead log and taking a final snapshot,
// so a graceful shutdown restarts without replay.
func (s *Service) Close() {
	if s.liveness.halt != nil {
		s.liveness.halt()
	}
	s.bus.Close()
	if err := s.store.Close(); err != nil {
		s.log.Error("service: store backend close failed", "err", err)
	}
}

func (s *Service) bootstrap() {
	st := s.store
	// Collections.
	st.RegisterCollection(SystemsURI, redfish.TypeComputerSystemCollection, "Computer System Collection")
	st.RegisterCollection(ChassisURI, redfish.TypeChassisCollection, "Chassis Collection")
	st.RegisterCollection(FabricsURI, redfish.TypeFabricCollection, "Fabric Collection")
	st.RegisterCollection(StorageURI, redfish.TypeStorageCollection, "Storage Collection")
	st.RegisterCollection(SubscriptionsURI, redfish.TypeEventDestCollection, "Event Subscriptions")
	st.RegisterCollection(TasksURI, redfish.TypeTaskCollection, "Task Collection")
	st.RegisterCollection(SessionsURI, redfish.TypeSessionCollection, "Session Collection")
	st.RegisterCollection(MetricDefinitionsURI, redfish.TypeMetricDefCollection, "Metric Definitions")
	st.RegisterCollection(MetricReportDefsURI, redfish.TypeMetricReportDefCollection, "Metric Report Definitions")
	st.RegisterCollection(MetricReportsURI, redfish.TypeMetricReportCollection, "Metric Reports")
	st.RegisterCollection(AggregationSourcesURI, redfish.TypeAggregationSrcCollection, "Aggregation Sources")
	st.RegisterCollection(ResourceBlocksURI, redfish.TypeResourceBlockCollection, "Resource Blocks")
	st.RegisterCollection(ResourceZonesURI, redfish.TypeResourceZoneCollection, "Resource Zones")

	// Service root and the fixed service resources.
	root := redfish.Root{
		Resource:           odata.NewResource(RootURI, redfish.TypeServiceRoot, s.cfg.Name),
		RedfishVersion:     "1.15.0",
		UUID:               s.cfg.UUID,
		Systems:            redfish.Ref(SystemsURI),
		Chassis:            redfish.Ref(ChassisURI),
		Fabrics:            redfish.Ref(FabricsURI),
		Storage:            redfish.Ref(StorageURI),
		EventService:       redfish.Ref(EventServiceURI),
		TaskService:        redfish.Ref(TaskServiceURI),
		SessionService:     redfish.Ref(SessionServiceURI),
		TelemetryService:   redfish.Ref(TelemetryServiceURI),
		AggregationService: redfish.Ref(AggregationServiceURI),
		CompositionService: redfish.Ref(CompositionServiceURI),
		Links:              redfish.RootLinks{Sessions: odata.NewRef(SessionsURI)},
	}
	must(st.Put(RootURI, root))

	must(st.Put(EventServiceURI, redfish.EventService{
		Resource:                     odata.NewResource(EventServiceURI, redfish.TypeEventService, "Event Service"),
		ServiceEnabled:               true,
		DeliveryRetryAttempts:        events.DefaultConfig().RetryAttempts,
		DeliveryRetryIntervalSeconds: int(events.DefaultConfig().RetryInterval / time.Second),
		EventTypesForSubscription: []string{
			redfish.EventResourceAdded, redfish.EventResourceRemoved,
			redfish.EventResourceUpdated, redfish.EventStatusChange,
			redfish.EventAlert, redfish.EventMetricReport,
		},
		ServerSentEventURI: string(SSEURI),
		Status:             odata.StatusOK(),
		Subscriptions:      redfish.Ref(SubscriptionsURI),
	}))

	must(st.Put(TaskServiceURI, redfish.TaskService{
		Resource:                        odata.NewResource(TaskServiceURI, redfish.TypeTaskService, "Task Service"),
		ServiceEnabled:                  true,
		CompletedTaskOverWritePolicy:    "Oldest",
		LifeCycleEventOnTaskStateChange: true,
		Status:                          odata.StatusOK(),
		Tasks:                           redfish.Ref(TasksURI),
	}))

	must(st.Put(SessionServiceURI, redfish.SessionService{
		Resource:       odata.NewResource(SessionServiceURI, redfish.TypeSessionService, "Session Service"),
		ServiceEnabled: true,
		SessionTimeout: int(s.cfg.SessionTimeout / time.Second),
		Status:         odata.StatusOK(),
		Sessions:       redfish.Ref(SessionsURI),
	}))

	must(st.Put(TelemetryServiceURI, redfish.TelemetryService{
		Resource:                odata.NewResource(TelemetryServiceURI, redfish.TypeTelemetryService, "Telemetry Service"),
		Status:                  odata.StatusOK(),
		MinCollectionInterval:   "PT1S",
		MetricDefinitions:       redfish.Ref(MetricDefinitionsURI),
		MetricReportDefinitions: redfish.Ref(MetricReportDefsURI),
		MetricReports:           redfish.Ref(MetricReportsURI),
	}))

	must(st.Put(AggregationServiceURI, redfish.AggregationService{
		Resource:           odata.NewResource(AggregationServiceURI, redfish.TypeAggregationSvc, "Aggregation Service"),
		ServiceEnabled:     true,
		Status:             odata.StatusOK(),
		AggregationSources: redfish.Ref(AggregationSourcesURI),
	}))

	st.RegisterCollection(RegistriesURI, "#MessageRegistryCollection.MessageRegistryCollection", "Registries")
	must(st.Put(RegistriesURI.Append("OFMF.1.0"), redfish.OFMFRegistry(RegistriesURI.Append("OFMF.1.0"))))

	must(st.Put(CompositionServiceURI, redfish.CompositionService{
		Resource:       odata.NewResource(CompositionServiceURI, redfish.TypeCompositionSvc, "Composition Service"),
		ServiceEnabled: true,
		Status:         odata.StatusOK(),
		ResourceBlocks: redfish.Ref(ResourceBlocksURI),
		ResourceZones:  redfish.Ref(ResourceZonesURI),
	}))
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("service: bootstrap: %v", err))
	}
}

func (s *Service) publishChange(c store.Change) {
	// A replayed change re-states history (recovery, a replica applying
	// its leader's stream): whoever made it has already announced it.
	// Task resources already produce dedicated task events; subscription
	// and session churn is excluded to avoid event-about-event feedback.
	if c.Replayed || s.following() || c.ID.Under(TasksURI) || c.ID.Under(SubscriptionsURI) || c.ID.Under(SessionsURI) {
		return
	}
	// The EventId is the change's commit sequence, which a restart
	// continues and a replica shares with its leader; an unlogged tree
	// numbers its changes instead.
	id := c.Commit
	if id == 0 {
		id = c.Seq
	}
	ctx := c.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// The record is built only if a subscription admits it: a change
	// nobody can receive costs no timestamp, reference or strings.
	kind := c.Kind.String()
	s.bus.PublishLazy(ctx, kind, c.ID, func() redfish.EventRecord {
		return events.Record(kind, strconv.FormatUint(id, 10), kind+": "+string(c.ID), c.ID)
	})
}

// Publish announces rec on the event bus, as publishChange announces
// tree changes; in-process producers (tasks, telemetry) publish here.
func (s *Service) Publish(rec redfish.EventRecord) {
	if !s.following() {
		s.bus.Publish(rec)
	}
}

// following is the one gate between the service and the bus: a replica
// announces nothing. Its tree, and so every event about it, is its
// leader's; it holds subscriptions only so they are live the moment it
// is promoted.
func (s *Service) following() bool { return s.replica.Load() != nil }

// claimed is a subtree a source holds in the handler index (see
// Service.handlers) with an in-process handler, nil until its agent
// attaches; a remote source holds its own by its *remoteHandler.
type claimed struct {
	FabricHandler
	source odata.ID
}

// holderOf returns the source an index entry belongs to; "" for a
// handler attached with none.
func holderOf(h FabricHandler) odata.ID {
	switch h := h.(type) {
	case *remoteHandler:
		return h.source
	case *claimed:
		return h.source
	}
	return ""
}

// RegisterFabricHandler attaches an Agent's handler for the subtree
// rooted at prefix (a fabric, a chassis, a storage service): requests
// that mutate resources under it are forwarded to h. Attaching at a
// prefix in the index replaces its handler and keeps its source, so a
// restarted agent re-attaches and a local agent serves what its source
// claims; a prefix that strictly contains one in the index, or lies
// strictly inside it, is refused with ErrPrefixConflict — no agent may
// take part of another's subtree.
func (s *Service) RegisterFabricHandler(prefix odata.ID, h FabricHandler) error {
	return s.hold(prefix, h, true)
}

// UnregisterFabricHandler drops prefix from the index.
func (s *Service) UnregisterFabricHandler(prefix odata.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropLocked(prefix)
}

// hold enters prefix into the index for h. An entry at prefix itself
// is replaced if attach is set, and any other overlap is
// ErrPrefixConflict.
func (s *Service) hold(prefix odata.ID, h FabricHandler, attach bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.handlers[prefix]; ok && attach {
		if src := holderOf(old); src != "" {
			h = &claimed{h, src}
		}
		s.handlers[prefix] = h
		return nil
	}
	if err := s.conflictLocked(prefix, nil); err != nil {
		return err
	}
	s.handlers[prefix] = h
	for p := prefix.Parent(); len(p) > 1; p = p.Parent() {
		s.below[p]++
	}
	return nil
}

// conflictLocked is ErrPrefixConflict if the index holds prefix or an
// ancestor of it, other than one in own, or a descendant of it.
// Callers hold s.mu.
func (s *Service) conflictLocked(prefix odata.ID, own []odata.ID) error {
	for p := prefix; len(p) > 1; p = p.Parent() {
		if _, ok := s.handlers[p]; ok && !slices.Contains(own, p) {
			return fmt.Errorf("%w: %s overlaps %s", ErrPrefixConflict, prefix, p)
		}
	}
	if s.below[prefix] > 0 {
		return fmt.Errorf("%w: %s contains a served subtree", ErrPrefixConflict, prefix)
	}
	return nil
}

// dropLocked removes prefix from the index. Callers hold s.mu.
func (s *Service) dropLocked(prefix odata.ID) {
	if _, ok := s.handlers[prefix]; !ok {
		return
	}
	delete(s.handlers, prefix)
	for p := prefix.Parent(); len(p) > 1; p = p.Parent() {
		if s.below[p]--; s.below[p] == 0 {
			delete(s.below, p)
		}
	}
}

// handlerFor returns the handler whose subtree holds id, and the prefix
// it is registered under: the first of id and its ancestors in the
// index, which never holds two of them.
func (s *Service) handlerFor(id odata.ID) (odata.ID, FabricHandler, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for p := id; len(p) > 1; p = p.Parent() {
		if h, ok := s.handlers[p]; ok {
			if c, ok := h.(*claimed); ok {
				h = c.FabricHandler
			}
			return p, h, h != nil
		}
	}
	return "", nil, false
}
