package service

import (
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ofmf/internal/events"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/store"
)

// Liveness verdict levels, in order of decreasing health.
const (
	liveOK = iota
	liveDegraded
	liveUnavailable
)

// Exported liveness levels for introspection consumers: the chaos
// harness compares SourcesSnapshot verdicts against its ground truth.
const (
	LiveOK          = liveOK
	LiveDegraded    = liveDegraded
	LiveUnavailable = liveUnavailable
)

// LivenessConfig tunes the aggregation-source liveness sweeper.
type LivenessConfig struct {
	// Interval is the sweep cadence. Zero runs no ticker: sweeps happen
	// only when Sweep is called (tests, the chaos harness's virtual
	// clock).
	Interval time.Duration
	// StaleAfter is the heartbeat age at which a source is marked
	// Degraded (default 3×Interval, 30s without a ticker).
	StaleAfter time.Duration
	// UnavailableAfter is the heartbeat age at which a Degraded source
	// is marked Unavailable (default 3×StaleAfter).
	UnavailableAfter time.Duration
}

func (c LivenessConfig) withDefaults() LivenessConfig {
	if c.StaleAfter <= 0 {
		c.StaleAfter = 30 * time.Second
		if c.Interval > 0 {
			c.StaleAfter = 3 * c.Interval
		}
	}
	if c.UnavailableAfter <= 0 {
		c.UnavailableAfter = 3 * c.StaleAfter
	}
	return c
}

// LivenessSweeper is the service's one projection of the
// AggregationSources collection. It indexes each source's callback URL
// (registration dedup is one map lookup), forwards the fabric operations
// under a remote source's claims to that URL, and watches its
// Oem.OFMF.LastHeartbeat, flipping the source's Status as heartbeats go
// stale — Degraded (Health Warning) after StaleAfter, Unavailable
// (State UnavailableOffline, Health Critical) after UnavailableAfter —
// and back to OK when they resume. Every transition publishes a
// StatusChange event; the ofmf_agent_liveness gauge follows the stored
// Status. This closes the paper's centralization loop: the OFMF owns
// all composition state, so it must also own the authoritative view of
// which agents still answer for theirs.
//
// The index is a store.Projection: every change to a source — live,
// replayed at recovery, applied from a leader or restored by an admin —
// re-reads its stored bytes under mu, so the index and the forwarding
// converge on the tree with no sequence gate, no record of deleted
// sources and no seeding scan. Each entry
// holds one slot in a min-heap of next-transition deadlines, so a sweep
// pops only the sources whose verdict can have changed — O(changed),
// not O(fleet) — and the heap never holds more items than there are
// sources. Store writes, event publishes and logging all happen after
// mu is released, so a slow store can't back up the heartbeat path.
type LivenessSweeper struct {
	svc      *Service
	cfg      LivenessConfig
	onChange store.Watcher
	halt     func() // stops the ticker; nil without one

	mu      sync.Mutex
	now     func() time.Time
	sources map[odata.ID]*sourceEntry
	byHost  map[string]odata.ID // remote sources' HostName → URI
	// deadlines orders scheduled sources by the earliest instant their
	// verdict can change.
	deadlines deadlineHeap

	seq atomic.Int64 // event-id sequence
}

// sourceEntry is one aggregation source as the projection last read it.
type sourceEntry struct {
	uri      odata.ID
	host     string
	lastBeat time.Time // the stored LastHeartbeat; zero if it has none
	// anchor is when the projection first saw the source; staleness of
	// a source with no heartbeat is measured from it.
	anchor time.Time
	level  int
	// local marks in-process agents (no callback URL): they share the
	// OFMF's process fate, so there is no management path to lose and
	// they are live by construction, never swept.
	local bool
	at    time.Time // the scheduled deadline, while slot >= 0
	slot  int       // index in deadlines; -1 when not scheduled
	// claims is the source's stored ResourcesAccessed; held is those of
	// them the handler index holds for it.
	claims []odata.ID
	held   []odata.ID
}

// base is the instant the source's heartbeat age is measured from.
func (e *sourceEntry) base() time.Time {
	if e.lastBeat.IsZero() {
		return e.anchor
	}
	return e.lastBeat
}

// deadlineHeap is a min-heap of scheduled entries ordered by deadline;
// each entry tracks its own slot for heap.Fix and heap.Remove.
type deadlineHeap []*sourceEntry

func (h deadlineHeap) Len() int           { return len(h) }
func (h deadlineHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h deadlineHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].slot, h[j].slot = i, j
}
func (h *deadlineHeap) Push(x any) {
	e := x.(*sourceEntry)
	e.slot = len(*h)
	*h = append(*h, e)
}
func (h *deadlineHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	e.slot = -1
	return e
}

// newLivenessSweeper builds the service's projection of its aggregation
// sources and subscribes it to the store's change stream.
func newLivenessSweeper(s *Service, cfg LivenessConfig) *LivenessSweeper {
	w := &LivenessSweeper{
		svc:     s,
		cfg:     cfg.withDefaults(),
		now:     time.Now,
		sources: make(map[odata.ID]*sourceEntry),
		byHost:  make(map[string]odata.ID),
	}
	w.onChange = s.store.Projection(AggregationSourcesURI, &w.mu, w.apply)
	s.store.Watch(w.onChange)
	return w
}

// Liveness returns the service's liveness sweeper.
func (s *Service) Liveness() *LivenessSweeper { return s.liveness }

// SetClock overrides the sweeper's time source (tests, the chaos
// harness). Install it before the first source is stored: anchors and
// registration heartbeats are read from it.
func (w *LivenessSweeper) SetClock(now func() time.Time) {
	w.mu.Lock()
	w.now = now
	w.mu.Unlock()
}

// clock reads the sweeper's time source.
func (w *LivenessSweeper) clock() time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.now()
}

// start runs the sweeper at its configured interval until the returned
// stop function is called; stop returns once the ticker has exited.
func (w *LivenessSweeper) start() (stop func()) {
	done, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(w.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				w.Sweep()
			}
		}
	}()
	return sync.OnceFunc(func() {
		close(done)
		<-finished
	})
}

// lookup returns the source URI registered for the callback URL, if any.
func (w *LivenessSweeper) lookup(host string) (odata.ID, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	uri, ok := w.byHost[host]
	return uri, ok
}

// match returns the stored source a registration from host claiming
// claims revives, "" for none: the source holding claims[0] if it
// claims the same set, else the one registered from host. A claim that
// overlaps a subtree the handler index holds, other than one that
// source holds, is ErrPrefixConflict.
func (w *LivenessSweeper) match(host string, claims []odata.ID) (odata.ID, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.svc.mu.RLock()
	defer w.svc.mu.RUnlock()
	var e *sourceEntry
	if len(claims) > 0 {
		o := w.sources[holderOf(w.svc.handlers[claims[0]])]
		if o != nil && len(o.claims) == len(claims) &&
			!slices.ContainsFunc(claims, func(c odata.ID) bool { return !slices.Contains(o.claims, c) }) {
			e = o
		}
	}
	if e == nil && host != "" {
		e = w.sources[w.byHost[host]]
	}
	var uri odata.ID
	var own []odata.ID
	if e != nil {
		uri, own = e.uri, e.held
	}
	for _, p := range claims {
		if err := w.svc.conflictLocked(p, own); err != nil {
			return "", err
		}
	}
	return uri, nil
}

// held returns the subtrees the source at uri holds in the handler
// index: what deleting it removes.
func (w *LivenessSweeper) held(uri odata.ID) []odata.ID {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e := w.sources[uri]; e != nil {
		return slices.Clone(e.held)
	}
	return nil
}

// apply brings id's entry to the source's stored state (raw nil: gone):
// the host index and the handler index, the heartbeat and its metrics,
// the level and the entry's deadline. A change that keeps the host and
// the claims, such as a heartbeat, leaves the handler index alone.
// Caller holds w.mu.
func (w *LivenessSweeper) apply(id odata.ID, raw json.RawMessage) {
	e, existed := w.sources[id]
	var src redfish.AggregationSource
	if raw == nil || json.Unmarshal(raw, &src) != nil {
		if existed {
			w.dropLocked(e)
		}
		return
	}
	now := w.now()
	if !existed {
		e = &sourceEntry{uri: id, anchor: now, slot: -1}
		w.sources[id] = e
	}
	claims := odata.IDsOf(src.Links.ResourcesAccessed)
	if e.host != src.HostName || !slices.Equal(e.claims, claims) {
		w.releaseLocked(e)
		if w.byHost[e.host] == id {
			delete(w.byHost, e.host)
		}
		e.host, e.claims = src.HostName, claims
		if e.host != "" {
			w.byHost[e.host] = id
		}
		w.installLocked(e)
	}
	var beat time.Time
	if o := src.Oem.OFMF; o != nil && o.LastHeartbeat != "" {
		beat, _ = time.Parse(time.RFC3339, o.LastHeartbeat)
	}
	leaf := id.Leaf()
	m := w.svc.metrics
	if !beat.IsZero() && !beat.Equal(e.lastBeat) {
		if existed {
			m.AgentHeartbeats.With(leaf).Inc()
		}
		m.AgentLastHeartbeat.With(leaf).Set(float64(beat.UnixNano()) / 1e9)
	}
	e.lastBeat = beat
	e.local = src.HostName == ""
	e.level = liveOK
	if !e.local {
		e.level = levelOf(src.Status)
	}
	m.AgentLiveness.With(leaf).Set(livenessValue(e.level))
	w.scheduleLocked(e, now)
}

// installLocked enters e's claims into the handler index: a remote
// source's forwarded to its host, a local one's held for the handler
// its in-process agent attaches. A claim registration would refuse —
// not claimable, or overlapping a subtree the index holds — came
// through a PATCH or a restore; it is logged and skipped, so it cannot
// take routing. Callers hold w.mu.
func (w *LivenessSweeper) installLocked(e *sourceEntry) {
	for _, p := range e.claims {
		var err error
		if !w.svc.claimable(p) {
			err = fmt.Errorf("%w: ResourcesAccessed %q is not a subtree below a top-level collection", ErrInvalidRequest, p)
		} else {
			var h FabricHandler = &claimed{source: e.uri}
			if e.host != "" {
				h = &remoteHandler{url: e.host, source: e.uri}
			}
			err = w.svc.hold(p, h, false)
		}
		if err != nil {
			w.svc.log.LogAttrs(context.Background(), slog.LevelWarn, "aggregation source claim not forwarded",
				slog.String("source", string(e.uri)), slog.String("error", err.Error()))
			continue
		}
		e.held = append(e.held, p)
	}
}

// releaseLocked drops the subtrees e holds from the handler index.
// Callers hold w.mu.
func (w *LivenessSweeper) releaseLocked(e *sourceEntry) {
	w.svc.mu.Lock()
	defer w.svc.mu.Unlock()
	for _, p := range e.held {
		if holderOf(w.svc.handlers[p]) == e.uri {
			w.svc.dropLocked(p)
		}
	}
	e.held = nil
}

// dropLocked forgets a source that left the tree, its forwarding and
// per-source series included. Callers hold w.mu.
func (w *LivenessSweeper) dropLocked(e *sourceEntry) {
	w.releaseLocked(e)
	delete(w.sources, e.uri)
	if w.byHost[e.host] == e.uri {
		delete(w.byHost, e.host)
	}
	if e.slot >= 0 {
		heap.Remove(&w.deadlines, e.slot)
	}
	leaf := e.uri.Leaf()
	m := w.svc.metrics
	m.AgentLiveness.Delete(leaf)
	m.AgentHeartbeats.Delete(leaf)
	m.AgentLastHeartbeat.Delete(leaf)
}

// scheduleLocked sets the entry's one deadline: now when the stored
// level already disagrees with the heartbeat's age (a fresh beat on a
// downed source, a source registered stale), else the instant its
// verdict can next change. A local source, and one Unavailable by age,
// has none: only a change to its stored form can move it. Callers hold
// w.mu.
func (w *LivenessSweeper) scheduleLocked(e *sourceEntry, now time.Time) {
	var at time.Time
	switch {
	case e.local:
	case w.ageLevel(e, now) != e.level:
		at = now
	case e.level == liveOK:
		at = e.base().Add(w.cfg.StaleAfter)
	case e.level == liveDegraded:
		at = e.base().Add(w.cfg.UnavailableAfter)
	}
	switch {
	case at.IsZero():
		if e.slot >= 0 {
			heap.Remove(&w.deadlines, e.slot)
		}
	case e.slot >= 0:
		e.at = at
		heap.Fix(&w.deadlines, e.slot)
	default:
		e.at = at
		heap.Push(&w.deadlines, e)
	}
}

// ageLevel computes the verdict the source's heartbeat age alone
// implies at the given instant.
func (w *LivenessSweeper) ageLevel(e *sourceEntry, now time.Time) int {
	age := now.Sub(e.base())
	switch {
	case age >= w.cfg.UnavailableAfter:
		return liveUnavailable
	case age >= w.cfg.StaleAfter:
		return liveDegraded
	}
	return liveOK
}

// transition is one verdict change collected under the sweeper mutex
// and applied (store patch, event, log) after it is released.
type transition struct {
	uri odata.ID
	to  int
	age time.Duration
}

// Sweep performs one liveness pass. It pops only the sources whose
// deadline has arrived; everything else is untouched. A replica sweeps
// nothing: its sources' Status is its leader's to write.
func (w *LivenessSweeper) Sweep() {
	if w.svc.following() {
		return
	}
	start := time.Now()
	w.mu.Lock()
	now := w.now()
	var due []transition
	for len(w.deadlines) > 0 && !w.deadlines[0].at.After(now) {
		e := w.deadlines[0]
		if level := w.ageLevel(e, now); level != e.level {
			due = append(due, transition{uri: e.uri, to: level, age: now.Sub(e.base())})
			e.level = level
		}
		// The level now matches the age, so the entry moves to a later
		// deadline or leaves the heap: the loop ends.
		w.scheduleLocked(e, now)
	}
	w.mu.Unlock()
	for _, tr := range due {
		w.announce(tr)
	}
	if w.svc.metrics.SweepSeconds != nil {
		w.svc.metrics.SweepSeconds.Observe(time.Since(start).Seconds())
	}
}

// announce writes one transition to the store and publishes it. Runs
// with w.mu released: store I/O, event fan-out and logging never block
// the heartbeat path.
func (w *LivenessSweeper) announce(tr transition) {
	status, word, severity := statusFor(tr.to)
	if err := w.svc.store.Patch(tr.uri, map[string]any{"Status": map[string]any{
		"State": status.State, "Health": status.Health,
	}}, ""); err != nil {
		// The entry moved ahead of the tree: re-read what is stored, so
		// the next sweep retries a transient failure and a deleted
		// source is dropped rather than patched forever.
		w.onChange(store.Change{ID: tr.uri})
		return
	}
	rec := events.Record(redfish.EventStatusChange, fmt.Sprintf("liveness-%d", w.seq.Add(1)),
		fmt.Sprintf("aggregation source %s is %s (heartbeat age %s)", tr.uri.Leaf(), word, tr.age.Round(time.Second)), tr.uri)
	rec.Severity = severity
	w.svc.Publish(rec)
	w.svc.log.LogAttrs(context.Background(), slog.LevelWarn, "agent liveness transition",
		slog.String("source", string(tr.uri)),
		slog.String("to", word),
		slog.Duration("heartbeat_age", tr.age),
	)
}

// Forwarding returns the handler index's remote subtrees, each with the
// callback URL its operations are forwarded to. The chaos harness
// checks it against the stored claims: one source and one target per
// claimed subtree.
func (w *LivenessSweeper) Forwarding() map[odata.ID]string {
	w.svc.mu.RLock()
	defer w.svc.mu.RUnlock()
	out := make(map[odata.ID]string)
	for prefix, h := range w.svc.handlers {
		if rh, ok := h.(*remoteHandler); ok {
			out[prefix] = rh.url
		}
	}
	return out
}

// SourcesSnapshot returns the sweeper's current verdict for every
// indexed source (LiveOK/LiveDegraded/LiveUnavailable). The chaos
// harness diffs it against the store's members and its own ground
// truth after churn: a key the store lacks is a ghost entry, a missing
// key is a lost registration, a wrong level is a convergence failure.
func (w *LivenessSweeper) SourcesSnapshot() map[odata.ID]int {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[odata.ID]int, len(w.sources))
	for uri, e := range w.sources {
		out[uri] = e.level
	}
	return out
}

// PendingDeadlines returns the number of scheduled sources — never
// more than the sources indexed.
func (w *LivenessSweeper) PendingDeadlines() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.deadlines)
}

// levelOf maps a stored Status back to a liveness level.
func levelOf(st odata.Status) int {
	switch {
	case st.State == odata.StateUnavailable || st.Health == odata.HealthCritical:
		return liveUnavailable
	case st.Health == odata.HealthWarning:
		return liveDegraded
	}
	return liveOK
}

// statusFor maps a liveness level to the Redfish status written to the
// source, the transition word used in events, and the event severity.
func statusFor(level int) (odata.Status, string, string) {
	switch level {
	case liveUnavailable:
		return odata.Status{State: odata.StateUnavailable, Health: odata.HealthCritical}, "Unavailable", "Critical"
	case liveDegraded:
		return odata.Status{State: odata.StateEnabled, Health: odata.HealthWarning}, "Degraded", "Warning"
	}
	return odata.StatusOK(), "OK", "OK"
}

// livenessValue renders a level as the ofmf_agent_liveness gauge value.
func livenessValue(level int) float64 {
	switch level {
	case liveUnavailable:
		return 0
	case liveDegraded:
		return 0.5
	}
	return 1
}
