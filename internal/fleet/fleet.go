package fleet

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"ofmf/internal/events"
	"ofmf/internal/obsv"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/resilience"
	"ofmf/internal/service"
	"ofmf/internal/store/persist"
)

// The subscribers every fleet OFMF gets: sinks in-process counting
// subscriptions and sseStreams live SSE connections, both in the
// conservation ledger.
const (
	sinks      = 2
	sseStreams = 2
)

// Options parameterizes a fleet run.
type Options struct {
	// Agents is the fleet size (required, ≥ 1).
	Agents int
	// Seed drives every random choice — fault sequences, churn victim
	// selection. It is REQUIRED to be non-zero: an unseeded chaos run
	// cannot be replayed, so the wall-clock fallback FaultTransport
	// would otherwise use is rejected here (see
	// resilience.FaultTransport.EffectiveSeed).
	Seed int64
	// Workers bounds driver concurrency for fleet-wide operations
	// (default 64).
	Workers int
	// PersistDir, when non-empty, runs the OFMF on a write-ahead log in
	// that directory. Required by the killrecover scenario.
	PersistDir string
	// Liveness tunes the sweeper (defaults: 10s interval, 30s stale,
	// 90s unavailable — all in virtual time). Interval is the scripts'
	// beat round.
	Liveness service.LivenessConfig
	// Logger receives harness progress (default: drop everything).
	Logger *slog.Logger
}

func (o Options) withDefaults() (Options, error) {
	if o.Agents < 1 {
		return o, fmt.Errorf("fleet: Agents must be ≥ 1 (got %d)", o.Agents)
	}
	if o.Seed == 0 {
		return o, fmt.Errorf("fleet: explicit non-zero Seed required for reproducibility")
	}
	if o.Workers <= 0 {
		o.Workers = 64
	}
	if o.Liveness.Interval <= 0 {
		o.Liveness.Interval = 10 * time.Second
	}
	if o.Liveness.StaleAfter <= 0 {
		o.Liveness.StaleAfter = 3 * o.Liveness.Interval
	}
	if o.Liveness.UnavailableAfter <= 0 {
		o.Liveness.UnavailableAfter = 3 * o.Liveness.StaleAfter
	}
	if o.Logger == nil {
		o.Logger = obsv.NopLogger()
	}
	return o, nil
}

// Fleet drives one simulated fleet against one in-process OFMF.
type Fleet struct {
	opts   Options
	rng    *rand.Rand
	clock  *vclock
	faults *resilience.ScriptedFaults
	mem    *memTransport
	agents []*simAgent

	svc     *service.Service
	backend *persist.FileBackend

	httpSrv   *httptest.Server
	hooks     *httptest.Server // webhook receiver; outlives incarnations
	sseWG     sync.WaitGroup
	sseBodies []io.Closer

	sinks     []*countingSink
	statsBase events.Stats
	subCount  int

	sweepDur   []time.Duration
	violations []string

	res Result
}

// New builds a fleet; Run executes a scenario against it.
func New(opts Options) (*Fleet, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		opts:   opts,
		rng:    rand.New(rand.NewSource(opts.Seed)),
		clock:  newClock(),
		faults: resilience.NewScriptedFaults(),
		mem:    &memTransport{},
	}
	f.agents = make([]*simAgent, opts.Agents)
	for i := range f.agents {
		f.agents[i] = newSimAgent(i, opts.Seed, f.mem, f.faults)
	}
	// Counting sinks live as long as the fleet, not one OFMF incarnation:
	// per-agent receipts must stay cumulative across a kill/recover cycle
	// to match the agents' cumulative delivery counters.
	f.sinks = make([]*countingSink, sinks)
	for i := range f.sinks {
		f.sinks[i] = newCountingSink()
	}
	// Surface the seed actually in effect so any run can be replayed
	// from its log line alone.
	opts.Logger.Info("fleet: seeded",
		"seed", opts.Seed,
		"agents", opts.Agents,
		"agent0_transport_seed", f.agents[0].ft.EffectiveSeed())
	return f, nil
}

// violate records an invariant violation.
func (f *Fleet) violate(format string, args ...any) {
	f.violations = append(f.violations, fmt.Sprintf(format, args...))
}

// boot stands up one OFMF incarnation: service with its liveness
// sweeper on the virtual clock, optional WAL recovery, conservation
// subscribers, and the ledger baseline. Returns the recovery stats
// (zero on a fresh directory or without persistence).
func (f *Fleet) boot() (persist.RecoveryStats, error) {
	off := false
	f.svc = service.New(service.Config{
		Name:   "OFMF chaos sim",
		Logger: f.opts.Logger,
		// Change events off: the conservation ledger tracks exactly the
		// records the fleet itself emits (agent events + liveness), and
		// 10k registrations' worth of ResourceAdded noise would drown
		// the signal without adding coverage.
		ChangeEvents: &off,
		Events: events.Config{
			// Deep queues: receipt invariants require zero bus-side drops
			// at full fleet scale.
			QueueDepth: 1 << 20,
		},
		// No ticker: the scripts sweep on the virtual clock.
		Liveness: service.LivenessConfig{StaleAfter: f.opts.Liveness.StaleAfter, UnavailableAfter: f.opts.Liveness.UnavailableAfter},
	})
	// Before recovery: replay feeds the sweeper, which anchors what it
	// sees on this clock.
	f.svc.Liveness().SetClock(f.clock.Now)
	var stats persist.RecoveryStats
	if f.opts.PersistDir != "" {
		b, err := persist.Open(persist.Options{
			Dir:    f.opts.PersistDir,
			Fsync:  false, // process-kill durability is enough for the sim
			Logger: f.opts.Logger,
		})
		if err != nil {
			return stats, err
		}
		if stats, err = b.Recover(f.svc.Store()); err != nil {
			return stats, err
		}
		f.svc.Store().AttachBackend(b, stats.LastSeq)
		f.backend = b
	}
	f.mem.set(f.svc.Handler())

	// Conservation subscribers: every one is match-all, so each publish
	// must be accounted once per subscription. Stored webhook
	// subscriptions come back with the tree and count too.
	for i, cs := range f.sinks {
		if _, err := f.svc.Bus().Subscribe(cs.sink(), events.Filter{}, fmt.Sprintf("fleet-sink-%d", i)); err != nil {
			return stats, err
		}
	}
	f.httpSrv = httptest.NewServer(f.svc.Handler())
	for i := 0; i < sseStreams; i++ {
		if err := f.openSSEStream(); err != nil {
			return stats, err
		}
	}
	stored, err := f.svc.Store().Members(service.SubscriptionsURI)
	if err != nil {
		return stats, err
	}
	f.subCount = sinks + sseStreams + len(stored)
	if got := len(f.svc.Bus().Subscriptions()); got != f.subCount {
		return stats, fmt.Errorf("fleet: expected %d subscriptions, bus has %d", f.subCount, got)
	}
	f.statsBase = f.svc.Bus().Stats()
	return stats, nil
}

// openSSEStream connects one server-sent-events client and drains it on
// a background goroutine until the server goes away.
func (f *Fleet) openSSEStream() error {
	resp, err := f.httpSrv.Client().Get(f.httpSrv.URL + string(service.SSEURI))
	if err != nil {
		return fmt.Errorf("fleet: sse connect: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("fleet: sse connect: %s", resp.Status)
	}
	f.sseBodies = append(f.sseBodies, resp.Body)
	f.sseWG.Add(1)
	go func() {
		defer f.sseWG.Done()
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		for sc.Scan() {
			// Frames are drained, not asserted on: the bus-level ledger
			// (Delivered includes SSE subscriptions) is the invariant.
		}
	}()
	return nil
}

// closeSSE disconnects the SSE clients. The client side must close
// first: the stream handlers only return when their connection dies,
// and httptest's Close blocks until all in-flight requests finish.
func (f *Fleet) closeSSE() {
	for _, b := range f.sseBodies {
		_ = b.Close()
	}
	f.sseBodies = nil
	f.sseWG.Wait()
}

// kill simulates an OFMF process death: agent traffic starts failing,
// SSE clients are cut, the bus dies — but the store's WAL backend is
// ABANDONED, not closed, so no graceful-shutdown snapshot happens and
// the next boot must do real WAL replay.
func (f *Fleet) kill() {
	f.mem.kill()
	f.closeSSE()
	f.httpSrv.Close()
	f.svc.Bus().Close()
	f.backend = nil // abandoned: file contents are the crash state
	f.svc = nil
}

// close tears the current incarnation down gracefully (end of run).
func (f *Fleet) close() {
	if f.svc != nil {
		f.closeSSE()
		f.httpSrv.Close()
		f.svc.Close()
		f.svc = nil
	}
	if f.hooks != nil {
		f.hooks.Close()
	}
}

// subscribeWebhook POSTs one match-all EventDestination for the webhook
// receiver and returns its id. The ledger's window closes before it and
// reopens with the subscription counted.
func (f *Fleet) subscribeWebhook() (string, error) {
	f.checkConservationNow()
	if f.hooks == nil {
		f.hooks = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusNoContent)
		}))
	}
	rec := httptest.NewRecorder()
	f.svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, string(service.SubscriptionsURI),
		strings.NewReader(fmt.Sprintf(`{"Destination":%q}`, f.hooks.URL))))
	if rec.Code != http.StatusCreated {
		return "", fmt.Errorf("fleet: subscribe: %d %s", rec.Code, rec.Body)
	}
	f.subCount++
	f.statsBase = f.svc.Bus().Stats()
	return odata.ID(rec.Header().Get("Location")).Leaf(), nil
}

// runParallel applies fn to every index in [0, n) on Workers
// goroutines, partitioned deterministically (worker w owns i ≡ w mod
// W) so each agent's operation sequence is scheduling-independent.
// Returns the number of errors and the first one.
func (f *Fleet) runParallel(n int, fn func(i int) error) (int, error) {
	w := f.opts.Workers
	if w > n {
		w = n
	}
	var wg sync.WaitGroup
	errCounts := make([]int, w)
	firsts := make([]error, w)
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for i := wi; i < n; i += w {
				if err := fn(i); err != nil {
					errCounts[wi]++
					if firsts[wi] == nil {
						firsts[wi] = err
					}
				}
			}
		}(wi)
	}
	wg.Wait()
	total := 0
	var first error
	for wi := 0; wi < w; wi++ {
		total += errCounts[wi]
		if first == nil {
			first = firsts[wi]
		}
	}
	return total, first
}

// registerAll registers every agent (and publishes its subtree),
// returning the wall-clock registration rate.
func (f *Fleet) registerAll(withSubtrees bool) (perSec float64, err error) {
	vnow := f.clock.Now()
	start := time.Now()
	errs, first := f.runParallel(len(f.agents), func(i int) error {
		if err := f.agents[i].register(vnow); err != nil {
			return err
		}
		if withSubtrees {
			return f.agents[i].publishSubtree()
		}
		return nil
	})
	elapsed := time.Since(start)
	if errs > 0 {
		return 0, fmt.Errorf("fleet: %d/%d registrations failed: %w", errs, len(f.agents), first)
	}
	return float64(len(f.agents)) / elapsed.Seconds(), nil
}

// beatRound advances the virtual clock by d and has every running agent
// send one heartbeat. Beat failures are expected under faults — ground
// truth only advances on success.
func (f *Fleet) beatRound(d time.Duration) {
	vnow := f.clock.Advance(d)
	f.runParallel(len(f.agents), func(i int) error {
		a := f.agents[i]
		if !a.isBeating() {
			return nil
		}
		_ = a.beat(vnow) // failure = no ground-truth advance
		return nil
	})
}

// emitRound has every running agent publish n hardware events.
func (f *Fleet) emitRound(n int) {
	f.runParallel(len(f.agents), func(i int) error {
		if f.agents[i].isBeating() {
			f.agents[i].emit(n)
		}
		return nil
	})
}

// sweep runs one timed liveness pass.
func (f *Fleet) sweep() {
	start := time.Now()
	f.svc.Liveness().Sweep()
	f.sweepDur = append(f.sweepDur, time.Since(start))
}

// expectedLevels computes ground truth: for every agent whose source
// exists, the liveness level its last acknowledged heartbeat implies at
// virtual now — the same thresholds the sweeper applies.
func (f *Fleet) expectedLevels() map[odata.ID]int {
	vnow := f.clock.Now()
	out := make(map[odata.ID]int, len(f.agents))
	for _, a := range f.agents {
		uri, lastOK := a.groundTruth()
		if uri == "" || !f.svc.Store().Exists(uri) {
			continue
		}
		age := vnow.Sub(lastOK)
		switch {
		case age >= f.opts.Liveness.UnavailableAfter:
			out[uri] = service.LiveUnavailable
		case age >= f.opts.Liveness.StaleAfter:
			out[uri] = service.LiveDegraded
		default:
			out[uri] = service.LiveOK
		}
	}
	return out
}

// converge sweeps until the sweeper's verdicts match ground truth,
// advancing the virtual clock one second between attempts (transitions
// schedule immediate-reconcile deadlines, so one extra pass usually
// suffices). Returns the virtual and wall time it took, recording a
// violation on timeout.
func (f *Fleet) converge(maxSweeps int) (virtual time.Duration, wall time.Duration) {
	vstart, wstart := f.clock.Now(), time.Now()
	for i := 0; i < maxSweeps; i++ {
		f.sweep()
		if len(checkLiveness(f.svc.Liveness().SourcesSnapshot(), f.expectedLevels())) == 0 {
			return f.clock.Now().Sub(vstart), time.Since(wstart)
		}
		f.clock.Advance(time.Second)
	}
	for _, v := range checkLiveness(f.svc.Liveness().SourcesSnapshot(), f.expectedLevels()) {
		f.violate("%s", v)
	}
	return f.clock.Now().Sub(vstart), time.Since(wstart)
}

// recordConvergence runs the scenario's final convergence and stores
// its cost in the result.
func (f *Fleet) recordConvergence() {
	v, w := f.converge(12)
	f.res.ConvergenceVirtualS = v.Seconds()
	f.res.ConvergenceWallMs = float64(w) / float64(time.Millisecond)
}

// quiesce waits until the event bus has no queued or in-flight
// deliveries, so counters can be compared exactly.
func (f *Fleet) quiesce() error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		p := f.svc.Bus().Pool()
		if p.Queued == 0 && p.Busy == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: bus did not quiesce: %d queued, %d busy", p.Queued, p.Busy)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkConservationNow quiesces the bus and asserts the incarnation's
// event ledger.
func (f *Fleet) checkConservationNow() {
	if err := f.quiesce(); err != nil {
		f.violate("%v", err)
		return
	}
	for _, v := range checkConservation(f.statsBase, f.svc.Bus().Stats(), f.subCount) {
		f.violate("%s", v)
	}
}

// storedSources reads every member of the AggregationSources
// collection as stored.
func (f *Fleet) storedSources() (map[odata.ID]storedSource, error) {
	members, err := f.svc.Store().Members(service.AggregationSourcesURI)
	if err != nil {
		return nil, err
	}
	out := make(map[odata.ID]storedSource, len(members))
	for _, uri := range members {
		var src redfish.AggregationSource
		if err := f.svc.Store().GetAs(uri, &src); err != nil {
			return nil, fmt.Errorf("fleet: read %s: %w", uri, err)
		}
		out[uri] = storedSource{host: src.HostName, claims: odata.IDsOf(src.Links.ResourcesAccessed)}
	}
	return out, nil
}

// checkSourcesNow asserts no ghost/duplicate/missing aggregation
// sources against the full agent set, and one source and one
// forwarding target per claimed subtree.
func (f *Fleet) checkSourcesNow() {
	sources, err := f.storedSources()
	if err != nil {
		f.violate("%v", err)
		return
	}
	expected := make(map[string]bool, len(f.agents))
	for _, a := range f.agents {
		expected[a.host] = true
	}
	hosts := make(map[odata.ID]string, len(sources))
	for uri, src := range sources {
		hosts[uri] = src.host
	}
	for _, v := range checkSources(hosts, expected) {
		f.violate("%s", v)
	}
	for _, v := range checkClaims(sources, f.svc.Liveness().Forwarding()) {
		f.violate("%s", v)
	}
}

// checkAgentLedgersNow asserts per-agent event accounting against the
// first counting sink's receipts.
func (f *Fleet) checkAgentLedgersNow() {
	_, _, _, per := f.sinks[0].snapshot()
	for _, a := range f.agents {
		a.mu.Lock()
		emitted := a.emitted
		a.mu.Unlock()
		delivered, dropped := a.conn.EventsDelivered(), a.conn.EventsDropped()
		for _, v := range checkAgentLedger(a.idx, emitted, delivered, dropped, a.conn.EventBacklog(), per[a.idx]) {
			f.violate("%s", v)
		}
	}
}

// checkLivenessNow asserts sweeper convergence against ground truth.
func (f *Fleet) checkLivenessNow() {
	for _, v := range checkLiveness(f.svc.Liveness().SourcesSnapshot(), f.expectedLevels()) {
		f.violate("%s", v)
	}
}

// healAll clears every scripted fault.
func (f *Fleet) healAll() { f.faults.ClearAll() }

// pickAgents deterministically samples frac of the fleet.
func (f *Fleet) pickAgents(frac float64) []*simAgent {
	n := int(float64(len(f.agents)) * frac)
	if n < 1 {
		n = 1
	}
	perm := f.rng.Perm(len(f.agents))[:n]
	sort.Ints(perm)
	picked := make([]*simAgent, n)
	for i, idx := range perm {
		picked[i] = f.agents[idx]
	}
	return picked
}

// sweepP99 returns the 99th-percentile sweep duration observed so far.
func (f *Fleet) sweepP99() time.Duration {
	if len(f.sweepDur) == 0 {
		return 0
	}
	d := append([]time.Duration(nil), f.sweepDur...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[(len(d)*99)/100]
}

// Run executes the scenario end to end and returns its result. The
// returned error reports harness failures (setup, store errors);
// invariant violations are reported in Result.Violations.
func (f *Fleet) Run(sc Script) (Result, error) {
	if sc.Persist && f.opts.PersistDir == "" {
		return Result{}, fmt.Errorf("fleet: scenario %q requires Options.PersistDir", sc.Name)
	}
	f.res = Result{Scenario: sc.Name, Agents: f.opts.Agents, Seed: f.opts.Seed}
	if _, err := f.boot(); err != nil {
		return f.res, err
	}
	defer f.close()

	rate, err := f.registerAll(true)
	if err != nil {
		return f.res, err
	}
	f.res.RegistrationPerSec = rate

	for _, step := range sc.Steps {
		f.opts.Logger.Info("fleet: step", "scenario", sc.Name, "step", step.Name)
		if err := step.Run(f); err != nil {
			return f.res, fmt.Errorf("fleet: scenario %s step %s: %w", sc.Name, step.Name, err)
		}
	}

	// End-state invariants, common to every scenario.
	f.checkConservationNow()
	f.checkSourcesNow()
	f.checkAgentLedgersNow()
	f.checkLivenessNow()
	if f.opts.PersistDir != "" && f.svc.Store().Seq() == 0 {
		f.violate("store committed nothing to the WAL despite persistence")
	}

	f.res.SweepP99Ms = float64(f.sweepP99()) / float64(time.Millisecond)
	st := f.svc.Bus().Stats()
	f.res.EventsPublished = st.Published - f.statsBase.Published
	f.res.Violations = append(f.res.Violations, f.violations...)
	f.violations = nil
	return f.res, nil
}

// restartCrashed brings every crashed agent back: re-register (a
// revive, since the source still exists) and beat once.
func (f *Fleet) restartCrashed() error {
	vnow := f.clock.Now()
	errs, first := f.runParallel(len(f.agents), func(i int) error {
		a := f.agents[i]
		if a.isBeating() {
			return nil
		}
		if err := a.register(vnow); err != nil {
			return err
		}
		return a.beat(vnow)
	})
	if errs > 0 {
		return fmt.Errorf("fleet: %d restarts failed: %w", errs, first)
	}
	return nil
}
