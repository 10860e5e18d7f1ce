package service

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
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
	// Interval is the sweep cadence (default 10s).
	Interval time.Duration
	// StaleAfter is the heartbeat age at which a source is marked
	// Degraded (default 3×Interval).
	StaleAfter time.Duration
	// UnavailableAfter is the heartbeat age at which a Degraded source
	// is marked Unavailable (default 3×StaleAfter).
	UnavailableAfter time.Duration
}

func (c LivenessConfig) withDefaults() LivenessConfig {
	if c.Interval <= 0 {
		c.Interval = 10 * time.Second
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 3 * c.Interval
	}
	if c.UnavailableAfter <= 0 {
		c.UnavailableAfter = 3 * c.StaleAfter
	}
	return c
}

// LivenessSweeper watches every AggregationSource's
// Oem.OFMF.LastHeartbeat and flips the source's Status as heartbeats go
// stale — Degraded (Health Warning) after StaleAfter, Unavailable
// (State UnavailableOffline, Health Critical) after UnavailableAfter —
// and back to OK when they resume. Every transition publishes a
// StatusChange event and refreshes the ofmf_agent_liveness gauge, so
// both subscribers and scrapers see dead agents without polling the
// tree. This closes the paper's centralization loop: the OFMF owns all
// composition state, so it must also own the authoritative view of
// which agents still answer for theirs.
//
// The sweeper keeps its own heartbeat index, fed by the store's change
// stream (registrations, heartbeat patches, deletions all pass through
// the store), plus a min-heap of next-transition deadlines. A sweep
// therefore pops only the sources whose verdict can have changed since
// the last pass — O(changed), not O(fleet) — and never decodes the
// AggregationSources collection in steady state. Store writes, event
// publishes and logging all happen after the sweeper mutex is
// released, so a slow store can't back up the heartbeat path.
type LivenessSweeper struct {
	svc *Service
	cfg LivenessConfig

	mu  sync.Mutex
	now func() time.Time
	// sources is the in-memory heartbeat index, keyed by source URI.
	sources map[odata.ID]*sourceEntry
	// deadlines orders sources by the earliest instant their verdict can
	// change. Entries are invalidated lazily: each (re)schedule bumps the
	// entry's gen, and popped items whose gen no longer matches are
	// skipped.
	deadlines deadlineHeap
	// tombs records the Change.Seq of each evicted source URI. The store
	// notifies watchers after releasing its lock, so notifications
	// for one URI can interleave across goroutines; without the
	// tombstone, a delete-then-recreate at the same URI whose stale
	// pre-delete notification replayed last would resurrect the old
	// entry — and its old deadline — firing a spurious Degraded for a
	// source that is beating fine.
	tombs map[odata.ID]uint64
	// seeded flips once the index has been primed from the store; seeding
	// is lazy so a sweeper built before a test clock is installed anchors
	// never-beaten sources against the right epoch.
	seeded  bool
	nextGen uint64

	seq int64 // event-id sequence (atomic)
}

// sourceEntry is one aggregation source's liveness state.
type sourceEntry struct {
	lastBeat time.Time // zero if the source has never sent a heartbeat
	// anchor is when the sweeper first saw the source; staleness for
	// never-beaten sources is measured from it, so an agent that dies
	// between registration and its first beat is still detected.
	anchor time.Time
	level  int
	// local marks in-process agents (no callback URL): they share the
	// OFMF's process fate, so there is no management path to lose and
	// they are live by construction, never swept.
	local bool
	gen   uint64 // matches the entry's one live deadline item, if any
	// seq is the Change.Seq of the newest change applied to this entry;
	// older reordered notifications are discarded against it. Zero for
	// entries primed by seedLocked (the store read is authoritative).
	seq uint64
}

// deadlineItem schedules one source for re-evaluation at a given time.
type deadlineItem struct {
	at  time.Time
	uri odata.ID
	gen uint64
}

// deadlineHeap is a min-heap of deadline items ordered by time.
type deadlineHeap []deadlineItem

func (h deadlineHeap) Len() int           { return len(h) }
func (h deadlineHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h deadlineHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *deadlineHeap) Push(x any)        { *h = append(*h, x.(deadlineItem)) }
func (h *deadlineHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = deadlineItem{}
	*h = old[:n-1]
	return it
}

// aggSourcesPrefix prefixes every aggregation-source URI; precomputed so
// the change-stream filter on the store's hot mutation path is a plain
// string check with no allocation.
var aggSourcesPrefix = string(AggregationSourcesURI) + "/"

// NewLivenessSweeper builds a sweeper over the service's aggregation
// sources and subscribes it to the store's change stream. Start it with
// Start, or drive sweeps manually with Sweep.
func (s *Service) NewLivenessSweeper(cfg LivenessConfig) *LivenessSweeper {
	w := &LivenessSweeper{
		svc:     s,
		cfg:     cfg.withDefaults(),
		now:     time.Now,
		sources: make(map[odata.ID]*sourceEntry),
		tombs:   make(map[odata.ID]uint64),
	}
	s.store.Watch(w.onChange)
	return w
}

// SetClock overrides the sweeper's time source (tests).
func (w *LivenessSweeper) SetClock(now func() time.Time) {
	w.mu.Lock()
	w.now = now
	w.mu.Unlock()
}

// Start runs the sweeper at its configured interval until the returned
// stop function is called.
func (w *LivenessSweeper) Start() (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
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
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}

// onChange maintains the heartbeat index from the store's change
// stream: registrations and heartbeat patches upsert, deletions evict.
func (w *LivenessSweeper) onChange(c store.Change) {
	// Cheap reject for the overwhelming majority of mutations: only
	// direct children of the AggregationSources collection matter.
	id := string(c.ID)
	if !strings.HasPrefix(id, aggSourcesPrefix) {
		return
	}
	if rest := id[len(aggSourcesPrefix):]; rest == "" || strings.Contains(rest, "/") {
		return
	}
	if c.Kind == store.Removed {
		w.mu.Lock()
		if e, ok := w.sources[c.ID]; ok {
			if c.Seq > e.seq {
				delete(w.sources, c.ID)
				w.nextGen++
				e.gen = w.nextGen // orphan any scheduled deadline
				w.tombs[c.ID] = c.Seq
			}
			// else: stale delete ordered before the entry's newest state
			// (the source was recreated); keep the live entry.
		} else if c.Seq > w.tombs[c.ID] {
			w.tombs[c.ID] = c.Seq
		}
		w.mu.Unlock()
		return
	}
	// The read can observe a state newer than this change; that is safe:
	// the newer mutation's own (higher-seq) notification re-applies it,
	// and the seq gate below keeps this one from clobbering it.
	var src redfish.AggregationSource
	if err := w.svc.store.GetAs(c.ID, &src); err != nil {
		return
	}
	w.mu.Lock()
	w.upsertLocked(c.ID, &src, w.now(), c.Seq)
	w.mu.Unlock()
}

// upsertLocked reconciles one source's index entry against its stored
// form and (re)schedules its next deadline. seq is the triggering
// Change.Seq (zero when priming from a direct store read); stale
// reordered notifications — including upserts ordered before a delete —
// are discarded so a recreate at the same URI starts from a fresh
// entry instead of resurrecting the old one's deadline. Callers hold
// w.mu.
func (w *LivenessSweeper) upsertLocked(uri odata.ID, src *redfish.AggregationSource, now time.Time, seq uint64) {
	e, ok := w.sources[uri]
	if !ok {
		if seq != 0 && seq <= w.tombs[uri] {
			return // pre-delete notification arriving after the delete
		}
		delete(w.tombs, uri)
		e = &sourceEntry{anchor: now}
		w.sources[uri] = e
	} else if seq != 0 && seq <= e.seq {
		return // stale reordered notification
	}
	if seq > e.seq {
		e.seq = seq
	}
	w.nextGen++
	e.gen = w.nextGen // supersede any previously scheduled deadline
	if src.HostName == "" {
		e.local = true
		w.svc.metrics.AgentLiveness.With(uri.Leaf()).Set(1)
		return
	}
	e.local = false
	e.lastBeat = time.Time{}
	if src.Oem.OFMF != nil && src.Oem.OFMF.LastHeartbeat != "" {
		if t, err := time.Parse(time.RFC3339, src.Oem.OFMF.LastHeartbeat); err == nil {
			e.lastBeat = t
		}
	}
	e.level = levelOf(src.Status)
	w.svc.metrics.AgentLiveness.With(uri.Leaf()).Set(livenessValue(e.level))
	if w.ageLevelLocked(e, now) != e.level {
		// The stored status already disagrees with the heartbeat age
		// (fresh beat on a downed source, or a source registered stale):
		// have the next sweep reconcile it immediately.
		heap.Push(&w.deadlines, deadlineItem{at: now, uri: uri, gen: e.gen})
		return
	}
	w.scheduleLocked(uri, e)
}

// scheduleLocked pushes the entry's next possible-transition deadline,
// derived from its current level and heartbeat anchor. Unavailable is
// terminal by age alone — only a fresh heartbeat (which arrives through
// onChange) can move it, so nothing is scheduled. Callers hold w.mu and
// have already bumped e.gen for this schedule.
func (w *LivenessSweeper) scheduleLocked(uri odata.ID, e *sourceEntry) {
	base := e.lastBeat
	if base.IsZero() {
		base = e.anchor
	}
	var at time.Time
	switch e.level {
	case liveOK:
		at = base.Add(w.cfg.StaleAfter)
	case liveDegraded:
		at = base.Add(w.cfg.UnavailableAfter)
	default:
		return
	}
	heap.Push(&w.deadlines, deadlineItem{at: at, uri: uri, gen: e.gen})
}

// ageLevelLocked computes the verdict the source's heartbeat age alone
// implies at the given instant. Callers hold w.mu.
func (w *LivenessSweeper) ageLevelLocked(e *sourceEntry, now time.Time) int {
	age := w.ageLocked(e, now)
	switch {
	case age >= w.cfg.UnavailableAfter:
		return liveUnavailable
	case age >= w.cfg.StaleAfter:
		return liveDegraded
	}
	return liveOK
}

// ageLocked is the source's heartbeat age (anchor-relative when it has
// never beaten). Callers hold w.mu.
func (w *LivenessSweeper) ageLocked(e *sourceEntry, now time.Time) time.Duration {
	base := e.lastBeat
	if base.IsZero() {
		base = e.anchor
	}
	return now.Sub(base)
}

// seedLocked primes the index from the store. It runs once, on the
// first sweep; afterwards the change stream keeps the index current and
// sweeps touch the store only to apply transitions. Callers hold w.mu.
func (w *LivenessSweeper) seedLocked(now time.Time) {
	members, err := w.svc.store.Members(AggregationSourcesURI)
	if err != nil {
		return
	}
	for _, uri := range members {
		if _, ok := w.sources[uri]; ok {
			continue // already indexed by a change-stream event
		}
		var src redfish.AggregationSource
		if err := w.svc.store.GetAs(uri, &src); err != nil {
			continue
		}
		w.upsertLocked(uri, &src, now, 0)
	}
	w.seeded = true
}

// transition is one verdict change collected under the sweeper mutex
// and applied (store patch, event, log) after it is released.
type transition struct {
	uri      odata.ID
	from, to int
	age      time.Duration
}

// Sweep performs one liveness pass. It pops only the sources whose
// deadline has arrived; everything else is untouched.
func (w *LivenessSweeper) Sweep() {
	start := time.Now()
	w.mu.Lock()
	now := w.now()
	if !w.seeded {
		w.seedLocked(now)
	}
	var due []transition
	for len(w.deadlines) > 0 && !w.deadlines[0].at.After(now) {
		it := heap.Pop(&w.deadlines).(deadlineItem)
		e, ok := w.sources[it.uri]
		if !ok || e.gen != it.gen || e.local {
			continue // superseded, evicted, or became in-process
		}
		level := w.ageLevelLocked(e, now)
		w.nextGen++
		e.gen = w.nextGen
		if level != e.level {
			due = append(due, transition{uri: it.uri, from: e.level, to: level, age: w.ageLocked(e, now)})
			e.level = level
		}
		w.scheduleLocked(it.uri, e)
	}
	w.mu.Unlock()
	for _, tr := range due {
		w.apply(tr)
	}
	if w.svc.metrics.SweepSeconds != nil {
		w.svc.metrics.SweepSeconds.Observe(time.Since(start).Seconds())
	}
}

// apply writes one transition to the store and announces it. Runs with
// w.mu released: store I/O, event fan-out and logging never block the
// heartbeat path through onChange.
func (w *LivenessSweeper) apply(tr transition) {
	status, word, severity := statusFor(tr.to)
	if err := w.svc.store.Patch(tr.uri, map[string]any{"Status": map[string]any{
		"State": status.State, "Health": status.Health,
	}}, ""); err != nil {
		w.mu.Lock()
		if e, ok := w.sources[tr.uri]; ok && !e.local {
			if errors.Is(err, store.ErrNotFound) {
				// The source is gone and its Removed notification may have
				// been processed before this sweep's transition was
				// collected: drop the entry. Reverting and rescheduling
				// here would retry the patch of a deleted source forever.
				delete(w.sources, tr.uri)
				w.nextGen++
				e.gen = w.nextGen
			} else {
				// Transient store error: revert the index so the next
				// sweep retries rather than believing the write.
				e.level = tr.from
				w.nextGen++
				e.gen = w.nextGen
				heap.Push(&w.deadlines, deadlineItem{at: w.now(), uri: tr.uri, gen: e.gen})
			}
		}
		w.mu.Unlock()
		return
	}
	w.svc.metrics.AgentLiveness.With(tr.uri.Leaf()).Set(livenessValue(tr.to))
	seq := atomic.AddInt64(&w.seq, 1)
	rec := events.Record(redfish.EventStatusChange, fmt.Sprintf("liveness-%d", seq),
		fmt.Sprintf("aggregation source %s is %s (heartbeat age %s)", tr.uri.Leaf(), word, tr.age.Round(time.Second)), tr.uri)
	rec.Severity = severity
	w.svc.bus.Publish(rec)
	w.svc.log.LogAttrs(context.Background(), slog.LevelWarn, "agent liveness transition",
		slog.String("source", string(tr.uri)),
		slog.String("to", word),
		slog.Duration("heartbeat_age", tr.age),
	)
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

// PendingDeadlines returns the deadline heap's length (live plus
// lazily-invalidated entries) — a churn-leak signal for the harness.
func (w *LivenessSweeper) PendingDeadlines() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.deadlines)
}

// Tombstones returns the number of deletion tombstones held.
func (w *LivenessSweeper) Tombstones() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.tombs)
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
