// Package events implements the OFMF event subsystem: a publish/subscribe
// bus carrying Redfish event records to registered destinations. The bus
// is built for fleet scale: an inverted subscription index makes publish
// cost proportional to the matching subscribers rather than the total
// subscription count, the event envelope is encoded once per publish and
// shared across every delivery and retry attempt, and deliveries are
// drained by a bounded worker pool over per-subscription FIFO queues so
// a slow subscriber can neither stall the management plane nor cost a
// dedicated goroutine. Deliveries are retried with a configurable
// attempt count and backoff, matching the Redfish EventService
// DeliveryRetryAttempts/DeliveryRetryIntervalSeconds model.
package events

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ofmf/internal/obsv"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/resilience"
)

// Sink receives delivered events. HTTP destinations and in-process
// subscribers both implement it.
type Sink interface {
	Deliver(ctx context.Context, ev redfish.Event) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(ctx context.Context, ev redfish.Event) error

// Deliver calls f.
func (f SinkFunc) Deliver(ctx context.Context, ev redfish.Event) error { return f(ctx, ev) }

// BytesSink is an optional extension of Sink. Destinations that forward
// the wire form unchanged (webhook POSTs, SSE frames) implement it to
// receive the publish's shared encoding: the bus then marshals the
// event once per publish, not once per subscriber per attempt. The
// payload is shared and must be treated as read-only; eventID is the
// envelope's Redfish event id (the SSE frame id).
type BytesSink interface {
	DeliverBytes(ctx context.Context, eventID string, payload []byte) error
}

// HTTPSink posts events to a subscriber's destination URL using the
// Redfish event payload format. NewHTTPSink validates the destination
// up front; a literal's URL is resolved at its first delivery. Either
// way it is parsed, and its proxy resolved, once, not once per POST.
type HTTPSink struct {
	URL string

	once   sync.Once
	target *resilience.Target
	err    error
}

// NewHTTPSink builds a sink for destination, which must be an absolute
// http or https URL.
func NewHTTPSink(destination string) (*HTTPSink, error) {
	h := &HTTPSink{URL: destination}
	if err := h.resolve(); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *HTTPSink) resolve() error {
	h.once.Do(func() {
		u, err := url.Parse(h.URL)
		if err == nil {
			h.target, err = poster.Target(u)
		}
		if err != nil {
			h.err = fmt.Errorf("events: destination: %w", err)
		}
	})
	return h.err
}

// Deliver encodes the event once and posts it. The bus prefers
// DeliverBytes, which shares one encoding across subscribers and retry
// attempts; Deliver exists for direct use.
func (h *HTTPSink) Deliver(ctx context.Context, ev redfish.Event) error {
	body, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("events: marshal: %w", err)
	}
	return h.DeliverBytes(ctx, ev.ID, body)
}

// DeliverBytes posts the pre-encoded payload as JSON, with the trace
// headers of ctx, and treats any 2xx status as success. A 3xx is a
// failed delivery: redirects are not followed.
func (h *HTTPSink) DeliverBytes(ctx context.Context, _ string, payload []byte) error {
	if err := h.resolve(); err != nil {
		return err
	}
	var buf [256]byte // the header lines: Content-Type, traceparent, X-Request-Id
	header := obsv.AppendHeaders(ctx, append(buf[:0], jsonContentType...))
	status, err := poster.Post(ctx, h.target, header, payload)
	if err != nil {
		return err
	}
	if status < 200 || status > 299 {
		return fmt.Errorf("events: destination returned %d %s", status, http.StatusText(status))
	}
	return nil
}

const jsonContentType = "Content-Type: application/json\r\n"

// poster carries every webhook delivery in the process: one pool of
// kept-alive connections and one circuit breaker per destination host,
// and a deadline per attempt. It makes one attempt per call — the bus
// already retries deliveries, and webhook POSTs are not idempotent.
var poster = resilience.NewPoster(resilience.DefaultPolicy())

// Filter selects which events a subscription receives. Zero-value filters
// match everything.
type Filter struct {
	// EventTypes restricts delivery to the listed Redfish event types.
	EventTypes []string
	// Origins restricts delivery to events whose OriginOfCondition equals
	// one of the listed resources, or lies beneath one of them when
	// Subordinate is set.
	Origins     []odata.ID
	Subordinate bool
}

// Matches reports whether the filter admits the record.
func (f Filter) Matches(rec redfish.EventRecord) bool {
	if !typeMatches(f.EventTypes, rec.EventType) {
		return false
	}
	if len(f.Origins) > 0 {
		if rec.OriginOfCondition == nil {
			return false
		}
		origin := rec.OriginOfCondition.ODataID
		ok := false
		for _, o := range f.Origins {
			if origin == o || (f.Subordinate && origin.Under(o)) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// retryMaxFactor caps the backoff between delivery retries at this many
// RetryIntervals.
const retryMaxFactor = 10

// Config tunes the bus's delivery behaviour.
type Config struct {
	// RetryAttempts is the number of delivery attempts per event (≥1).
	RetryAttempts int
	// RetryInterval is the base delay before the first retry. Successive
	// retries back off exponentially (with jitter) up to
	// retryMaxFactor×RetryInterval.
	RetryInterval time.Duration
	// QueueDepth bounds each subscription's pending-event queue; events
	// beyond the bound are dropped and counted.
	QueueDepth int
	// Workers bounds the delivery worker pool shared by all
	// subscriptions (default 4×GOMAXPROCS, clamped to [4,64]). Each
	// subscription is drained by at most one worker at a time, so
	// per-subscriber delivery order is FIFO regardless of pool size.
	Workers int
	// Synchronous delivers events inline on the publisher's goroutine
	// instead of through the worker pool. Retries still apply. It
	// exists for the delivery-strategy ablation benchmark.
	Synchronous bool
	// OnDeliveryFailure, when set, is invoked after each delivery that
	// exhausts its retries, with the consecutive-failure count; a
	// successful delivery resets the count. The OFMF uses it to degrade
	// the subscription resource's health in the tree.
	OnDeliveryFailure func(subscriptionID string, consecutive int)
	// PublishObserver, when set, receives the duration of every
	// PublishCtx call (match + enqueue, or inline delivery when
	// Synchronous). The OFMF feeds it into the
	// ofmf_event_publish_seconds histogram.
	PublishObserver func(time.Duration)
	// Tracer, when non-nil, records each delivery as an event.deliver
	// span parented to the publishing request's trace (see PublishCtx),
	// so one trace id follows a mutation from the OFMF to its sinks.
	Tracer *obsv.Tracer
}

// DefaultConfig mirrors the EventService defaults the OFMF advertises.
func DefaultConfig() Config {
	return Config{RetryAttempts: 3, RetryInterval: 50 * time.Millisecond, QueueDepth: 256}
}

// Stats counts delivery outcomes across the bus. Every event routed to
// a subscription lands in exactly one of Delivered, Failed, Dropped or
// DroppedClosed, so after the queues quiesce the counters conserve:
// matched enqueues = Delivered + Failed + Dropped + DroppedClosed. The
// chaos harness asserts this ledger after every churn scenario.
type Stats struct {
	// Published counts every publish, including one that matched no
	// subscription and so was delivered nowhere.
	Published int64
	Delivered int64 // successful deliveries (per subscription)
	Failed    int64 // deliveries abandoned after retries
	Dropped   int64 // events dropped on full queues
	// DroppedClosed counts events discarded because their subscription
	// was closed: queued events thrown away when a subscription retires
	// (Unsubscribe/Close) plus publishes that raced a retirement.
	DroppedClosed int64
	Encodes       int64 // envelope encodings (exactly one per publish that reached a byte sink)
}

// PoolStats is a snapshot of the delivery worker pool.
type PoolStats struct {
	Workers int   // pool size (0 in Synchronous mode)
	Busy    int64 // workers currently delivering
	Queued  int64 // events waiting in subscription queues
}

// drainBatch bounds how many events one worker delivers from a single
// subscription before re-queueing it, so a deep queue cannot starve
// other ready subscriptions of the pool.
const drainBatch = 32

// Subscription is one registered event destination.
type Subscription struct {
	ID      string
	Context string
	Filter  Filter

	contextJSON []byte // Context as a JSON string, marshaled once; nil when Context is empty

	sink   Sink
	ctx    context.Context // cancelled on Unsubscribe/Close: aborts in-flight backoff waits
	cancel context.CancelFunc

	mu      sync.Mutex
	cond    *sync.Cond // signalled when a draining worker parks the subscription
	pending []*envelope
	headIdx int  // pending[:headIdx] already delivered (cleared lazily)
	active  bool // a worker currently owns this subscription's queue
	closed  bool

	consecutive int64 // consecutive delivery failures (atomic)
}

// holds reports whether the subscription already delivers to sink, an
// HTTP destination, with f and contextStr.
func (s *Subscription) holds(sink Sink, f Filter, contextStr string) bool {
	cur, ok1 := s.sink.(*HTTPSink)
	next, ok2 := sink.(*HTTPSink)
	return ok1 && ok2 && cur.URL == next.URL && s.Context == contextStr &&
		s.Filter.Subordinate == f.Subordinate && slices.Equal(s.Filter.EventTypes, f.EventTypes) && slices.Equal(s.Filter.Origins, f.Origins)
}

// queueLen returns the pending count. Callers hold s.mu.
func (s *Subscription) queueLen() int { return len(s.pending) - s.headIdx }

// readyQueue is the unbounded list of subscriptions with pending events
// awaiting a worker. Unbounded so a publish burst can never block the
// publisher; memory is bounded by the subscription count (each
// subscription is enqueued at most once — the active flag).
type readyQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []*Subscription
	closed bool
}

func newReadyQueue() *readyQueue {
	r := &readyQueue{}
	r.cond = sync.NewCond(&r.mu)
	return r
}

func (r *readyQueue) push(sub *Subscription) {
	r.mu.Lock()
	if !r.closed {
		r.q = append(r.q, sub)
		r.cond.Signal()
	}
	r.mu.Unlock()
}

// pop blocks until a subscription is ready or the queue is closed. A
// closed queue still drains its remaining entries so every active
// subscription gets parked before the workers exit.
func (r *readyQueue) pop() (*Subscription, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.q) == 0 && !r.closed {
		r.cond.Wait()
	}
	if len(r.q) == 0 {
		return nil, false
	}
	sub := r.q[0]
	r.q[0] = nil
	r.q = r.q[1:]
	return sub, true
}

func (r *readyQueue) close() {
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Bus fans events out to subscriptions.
type Bus struct {
	cfg     Config
	backoff resilience.Backoff

	// snap is the publish path's copy-on-write subscription index;
	// PublishCtx takes no lock while it is built. Subscription churn
	// only clears it, and the next publish rebuilds it (see index), so
	// replaying n stored subscriptions at boot costs no n rebuilds.
	snap atomic.Pointer[snapshot]

	mu     sync.Mutex // guards subs, nextID, closed, snapshot swaps
	subs   map[string]*Subscription
	nextID int64
	closed bool

	ready *readyQueue
	wg    sync.WaitGroup

	published     int64
	delivered     int64
	failed        int64
	dropped       int64
	droppedClosed int64
	encodes       int64
	queued        int64 // events across all subscription queues
	busy          int64 // workers currently delivering
}

// NewBus creates a bus with the given configuration. Zero-valued fields
// are replaced with defaults.
func NewBus(cfg Config) *Bus {
	def := DefaultConfig()
	if cfg.RetryAttempts <= 0 {
		cfg.RetryAttempts = def.RetryAttempts
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = def.RetryInterval
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = def.QueueDepth
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4 * runtime.GOMAXPROCS(0)
		if cfg.Workers < 4 {
			cfg.Workers = 4
		}
		if cfg.Workers > 64 {
			cfg.Workers = 64
		}
	}
	b := &Bus{
		cfg:     cfg,
		backoff: resilience.Backoff{Base: cfg.RetryInterval, Max: retryMaxFactor * cfg.RetryInterval, Jitter: 0.5},
		subs:    make(map[string]*Subscription),
		ready:   newReadyQueue(),
	}
	if !cfg.Synchronous {
		b.wg.Add(cfg.Workers)
		for i := 0; i < cfg.Workers; i++ {
			go b.worker()
		}
	}
	return b
}

// ErrClosed is returned when operating on a closed bus.
var ErrClosed = errors.New("events: bus closed")

// Subscribe registers an in-process sink with a filter and returns the
// subscription. Its id is "local-N", which never equals the numeric
// leaf of a stored EventDestination (those are registered with Set).
func (b *Bus) Subscribe(sink Sink, filter Filter, contextStr string) (*Subscription, error) {
	b.mu.Lock()
	b.nextID++
	id := "local-" + strconv.FormatInt(b.nextID, 10)
	b.mu.Unlock()
	return b.Set(id, sink, filter, contextStr)
}

// Set registers sink under id, replacing whatever subscription id held;
// a nil sink only removes it. A replaced or removed subscription is
// retired — its queue discarded, its in-flight delivery cancelled — but
// Set does not wait for a worker to leave it, so it may be called under
// a lock that a delivery's OnDeliveryFailure callback takes. Setting
// what id already holds — the same HTTP destination, filter and context
// — keeps the subscription, its queue and its failure count.
func (b *Bus) Set(id string, sink Sink, filter Filter, contextStr string) (*Subscription, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	old := b.subs[id]
	if old == nil && sink == nil || old != nil && old.holds(sink, filter, contextStr) {
		b.mu.Unlock()
		return old, nil
	}
	delete(b.subs, id)
	var sub *Subscription
	if sink != nil {
		ctx, cancel := context.WithCancel(context.Background())
		sub = &Subscription{ID: id, Context: contextStr, Filter: filter, sink: sink, ctx: ctx, cancel: cancel}
		sub.cond = sync.NewCond(&sub.mu)
		if contextStr != "" {
			sub.contextJSON, _ = json.Marshal(contextStr) // a string always marshals
		}
		b.subs[id] = sub
	}
	b.snap.Store(nil)
	b.mu.Unlock()
	if old != nil {
		b.retire(old)
	}
	return sub, nil
}

// Unsubscribe removes the subscription, cancels its in-flight delivery
// waits and returns once no worker is draining it.
func (b *Bus) Unsubscribe(id string) error {
	b.mu.Lock()
	sub, ok := b.subs[id]
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("events: no subscription %q", id)
	}
	_, _ = b.Set(id, nil, Filter{}, "")
	sub.mu.Lock()
	for sub.active {
		sub.cond.Wait()
	}
	sub.mu.Unlock()
	return nil
}

// retire marks the subscription closed, discards its queue (counting
// the discards, so the delivery ledger stays conserved) and cancels any
// in-flight delivery wait.
func (b *Bus) retire(sub *Subscription) {
	sub.mu.Lock()
	sub.closed = true
	if n := int64(sub.queueLen()); n > 0 {
		atomic.AddInt64(&b.queued, -n)
		atomic.AddInt64(&b.droppedClosed, n)
	}
	sub.pending, sub.headIdx = nil, 0
	sub.mu.Unlock()
	sub.cancel()
}

// Subscriptions returns a snapshot of current subscription ids.
func (b *Bus) Subscriptions() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	ids := make([]string, 0, len(b.subs))
	for id := range b.subs {
		ids = append(ids, id)
	}
	return ids
}

// Lookup returns the subscription registered under id, or nil.
func (b *Bus) Lookup(id string) *Subscription {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.subs[id]
}

// Destination returns the URL the subscription delivers to; "" for an
// in-process sink.
func (s *Subscription) Destination() string {
	if h, ok := s.sink.(*HTTPSink); ok {
		return h.URL
	}
	return ""
}

// Publish fans the record out to every matching subscription with no
// originating trace context.
func (b *Bus) Publish(rec redfish.EventRecord) {
	b.PublishCtx(context.Background(), rec)
}

// PublishCtx fans the record out to every matching subscription,
// capturing ctx's span context so deliveries — queued or inline —
// happen inside the publishing request's trace. Only the trace identity
// is captured: queued deliveries are not cancelled when ctx is.
//
// The subscription index is read through one atomic snapshot load; only
// the first publish after subscription churn takes the bus lock, to
// rebuild it. Cost scales with the matching subscribers, not the total
// subscription count. A
// record no subscription admits is counted and observed, and costs no
// allocation: it is matched before anything is built for delivery.
func (b *Bus) PublishCtx(ctx context.Context, rec redfish.EventRecord) {
	b.PublishLazy(ctx, rec.EventType, originOf(rec), func() redfish.EventRecord { return rec })
}

// PublishLazy is PublishCtx for a publisher whose record costs more to
// build than to match: build runs only when a subscription admits a
// record of eventType about origin (zero for none), and must return a
// record of that type and origin. A publish nobody receives still
// counts in Stats.Published and reaches the PublishObserver.
func (b *Bus) PublishLazy(ctx context.Context, eventType string, origin odata.ID, build func() redfish.EventRecord) {
	start := time.Now()
	atomic.AddInt64(&b.published, 1)
	if targets := b.index().match(eventType, origin, nil); len(targets) > 0 {
		sc, _ := obsv.SpanContextFrom(ctx)
		env := newEnvelope(build(), sc)
		for _, sub := range targets {
			if b.cfg.Synchronous {
				b.attempt(sub, env)
				continue
			}
			b.enqueue(sub, env)
		}
	}
	if b.cfg.PublishObserver != nil {
		b.cfg.PublishObserver(time.Since(start))
	}
}

// index returns the subscription index, building it if churn cleared
// it since the last publish.
func (b *Bus) index() *snapshot {
	if sn := b.snap.Load(); sn != nil {
		return sn
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	sn := b.snap.Load()
	if sn == nil {
		sn = buildSnapshot(b.subs)
		b.snap.Store(sn)
	}
	return sn
}

// enqueue appends the envelope to the subscription's FIFO queue and
// hands the subscription to the worker pool when it is not already
// owned by (or ready for) a worker.
func (b *Bus) enqueue(sub *Subscription, env *envelope) {
	sub.mu.Lock()
	if sub.closed {
		sub.mu.Unlock()
		// The publish matched the pre-retirement snapshot: count the
		// discard so published events stay conserved across the stats.
		atomic.AddInt64(&b.droppedClosed, 1)
		return
	}
	if sub.queueLen() >= b.cfg.QueueDepth {
		sub.mu.Unlock()
		atomic.AddInt64(&b.dropped, 1)
		return
	}
	// Compact the lazily consumed head before the backing array grows.
	if sub.headIdx > 0 && len(sub.pending) == cap(sub.pending) {
		n := copy(sub.pending, sub.pending[sub.headIdx:])
		sub.pending, sub.headIdx = sub.pending[:n], 0
	}
	sub.pending = append(sub.pending, env)
	wake := !sub.active
	if wake {
		sub.active = true
	}
	sub.mu.Unlock()
	atomic.AddInt64(&b.queued, 1)
	if wake {
		b.ready.push(sub)
	}
}

// worker drains ready subscriptions until the bus closes.
func (b *Bus) worker() {
	defer b.wg.Done()
	for {
		sub, ok := b.ready.pop()
		if !ok {
			return
		}
		atomic.AddInt64(&b.busy, 1)
		b.drain(sub)
		atomic.AddInt64(&b.busy, -1)
	}
}

// drain delivers the subscription's queued events in FIFO order. Only
// the owning worker pops the queue, so per-subscriber ordering holds
// regardless of pool size. After drainBatch events the subscription is
// re-queued so one deep queue cannot monopolize a worker.
func (b *Bus) drain(sub *Subscription) {
	for n := 0; ; n++ {
		sub.mu.Lock()
		if sub.closed || sub.queueLen() == 0 {
			sub.active = false
			sub.cond.Broadcast()
			sub.mu.Unlock()
			return
		}
		if n >= drainBatch {
			sub.mu.Unlock()
			b.ready.push(sub) // still active: ownership passes with the queue entry
			return
		}
		env := sub.pending[sub.headIdx]
		sub.pending[sub.headIdx] = nil
		sub.headIdx++
		if sub.headIdx == len(sub.pending) {
			sub.pending, sub.headIdx = sub.pending[:0], 0
		}
		sub.mu.Unlock()
		atomic.AddInt64(&b.queued, -1)
		b.attempt(sub, env)
	}
}

// attempt delivers one envelope to the subscription, retrying with
// backoff. The wire payload is resolved once before the retry loop, so
// every attempt reuses the same bytes.
func (b *Bus) attempt(sub *Subscription, env *envelope) {
	ctx := obsv.ContextWithRemoteSpanContext(sub.ctx, env.sc)
	ctx, span := b.cfg.Tracer.StartIfTraced(ctx, "event.deliver")
	span.SetAttr("subscription", sub.ID)
	span.SetAttr("event_type", env.rec.EventType)
	var deliver func(context.Context) error
	if bs, ok := sub.sink.(BytesSink); ok {
		body, err := env.body(sub.contextJSON, func() { atomic.AddInt64(&b.encodes, 1) })
		if err != nil {
			span.EndErr(err)
			b.countFailure(sub)
			return
		}
		eventID := env.rec.EventID
		deliver = func(ctx context.Context) error { return bs.DeliverBytes(ctx, eventID, body) }
	} else {
		ev := env.event(sub.Context)
		deliver = func(ctx context.Context) error { return sub.sink.Deliver(ctx, ev) }
	}
	var err error
	for i := 0; i < b.cfg.RetryAttempts; i++ {
		if i > 0 {
			// Exponential backoff with jitter: a flapping destination is
			// given progressively more room to recover, and concurrent
			// deliveries don't re-knock in lockstep.
			select {
			case <-ctx.Done():
				// Only retirement cancels sub.ctx: the event is being
				// discarded with its subscription, not abandoned on error.
				atomic.AddInt64(&b.droppedClosed, 1)
				span.EndErr(ctx.Err())
				return
			case <-time.After(b.backoff.Delay(i)):
			}
		}
		if err = deliver(ctx); err == nil {
			atomic.AddInt64(&b.delivered, 1)
			atomic.StoreInt64(&sub.consecutive, 0)
			span.End()
			return
		}
	}
	span.EndErr(err)
	if sub.ctx.Err() != nil {
		// Retirement cut the last attempt short: the event goes with its
		// subscription, and the destination is not to blame.
		atomic.AddInt64(&b.droppedClosed, 1)
		return
	}
	b.countFailure(sub)
}

// countFailure records one delivery abandoned after retries.
func (b *Bus) countFailure(sub *Subscription) {
	atomic.AddInt64(&b.failed, 1)
	n := atomic.AddInt64(&sub.consecutive, 1)
	if b.cfg.OnDeliveryFailure != nil {
		b.cfg.OnDeliveryFailure(sub.ID, int(n))
	}
}

// Stats returns a snapshot of delivery counters.
func (b *Bus) Stats() Stats {
	return Stats{
		Published:     atomic.LoadInt64(&b.published),
		Delivered:     atomic.LoadInt64(&b.delivered),
		Failed:        atomic.LoadInt64(&b.failed),
		Dropped:       atomic.LoadInt64(&b.dropped),
		DroppedClosed: atomic.LoadInt64(&b.droppedClosed),
		Encodes:       atomic.LoadInt64(&b.encodes),
	}
}

// Pool returns a snapshot of the delivery worker pool.
func (b *Bus) Pool() PoolStats {
	workers := b.cfg.Workers
	if b.cfg.Synchronous {
		workers = 0
	}
	return PoolStats{
		Workers: workers,
		Busy:    atomic.LoadInt64(&b.busy),
		Queued:  atomic.LoadInt64(&b.queued),
	}
}

// Close stops the worker pool. The bus accepts no further
// subscriptions; Publish becomes a no-op.
func (b *Bus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := b.subs
	b.subs = make(map[string]*Subscription)
	b.snap.Store(nil)
	b.mu.Unlock()
	for _, s := range subs {
		b.retire(s)
	}
	// Closing the ready queue lets workers drain the remaining entries
	// (parking each retired subscription) and then exit.
	b.ready.close()
	b.wg.Wait()
}

// Record builds an event record with the current timestamp.
func Record(eventType, eventID, message string, origin odata.ID) redfish.EventRecord {
	rec := redfish.EventRecord{
		EventType:      eventType,
		EventID:        eventID,
		EventTimestamp: redfish.Timestamp(time.Now()),
		Message:        message,
		Severity:       "OK",
	}
	if !origin.IsZero() {
		ref := odata.NewRef(origin)
		rec.OriginOfCondition = &ref
	}
	return rec
}
