package events

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ofmf/internal/obsv"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
)

// byteCollector records the shared payloads the bus hands a BytesSink.
type byteCollector struct {
	mu       sync.Mutex
	payloads [][]byte
	ids      []string
}

func (c *byteCollector) Deliver(ctx context.Context, ev redfish.Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	return c.DeliverBytes(ctx, ev.ID, data)
}

func (c *byteCollector) DeliverBytes(_ context.Context, eventID string, payload []byte) error {
	c.mu.Lock()
	c.payloads = append(c.payloads, payload)
	c.ids = append(c.ids, eventID)
	c.mu.Unlock()
	return nil
}

func (c *byteCollector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.payloads)
}

// TestMarshalOncePerPublish proves the headline envelope property: one
// publish reaching many byte sinks performs exactly one encode, and
// context-free subscribers share the very same backing bytes.
func TestMarshalOncePerPublish(t *testing.T) {
	b := NewBus(Config{})
	defer b.Close()
	const nSubs = 8
	sinks := make([]*byteCollector, nSubs)
	for i := range sinks {
		sinks[i] = &byteCollector{}
		if _, err := b.Subscribe(sinks[i], Filter{}, ""); err != nil {
			t.Fatal(err)
		}
	}
	b.Publish(Record(redfish.EventResourceAdded, "once-1", "added", "/redfish/v1/Systems/S1"))
	waitFor(t, func() bool {
		for _, s := range sinks {
			if s.count() != 1 {
				return false
			}
		}
		return true
	})
	if got := b.Stats().Encodes; got != 1 {
		t.Fatalf("Encodes = %d after one publish to %d subscribers, want 1", got, nSubs)
	}
	first := sinks[0].payloads[0]
	for i, s := range sinks {
		if &s.payloads[0][0] != &first[0] {
			t.Fatalf("subscriber %d got a copied payload; context-free deliveries must share bytes", i)
		}
	}
	var ev redfish.Event
	if err := json.Unmarshal(first, &ev); err != nil {
		t.Fatalf("shared payload is not a valid Event: %v", err)
	}
	if ev.ID != "once-1" || len(ev.Events) != 1 || ev.Events[0].Message != "added" {
		t.Fatalf("payload round-trip = %+v", ev)
	}
	if ev.ODataType != redfish.TypeEvent {
		t.Fatalf("payload @odata.type = %q", ev.ODataType)
	}
}

// TestContextSplicedWithoutReencode checks the per-subscription Context
// is patched into the shared encoding rather than re-marshaling the
// records: two subscribers with different contexts still cost one
// encode, and each sees its own Context on the wire.
func TestContextSplicedWithoutReencode(t *testing.T) {
	b := NewBus(Config{})
	defer b.Close()
	plain, tagged := &byteCollector{}, &byteCollector{}
	if _, err := b.Subscribe(plain, Filter{}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe(tagged, Filter{}, "dashboard-42"); err != nil {
		t.Fatal(err)
	}
	b.Publish(Record(redfish.EventResourceUpdated, "ctx-1", "updated", "/redfish/v1/Systems/S1"))
	waitFor(t, func() bool { return plain.count() == 1 && tagged.count() == 1 })
	if got := b.Stats().Encodes; got != 1 {
		t.Fatalf("Encodes = %d, want 1 (Context splice must not re-encode)", got)
	}
	var ev redfish.Event
	if err := json.Unmarshal(tagged.payloads[0], &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Context != "dashboard-42" {
		t.Fatalf("tagged payload Context = %q, want dashboard-42", ev.Context)
	}
	if ev.Events[0].Message != "updated" {
		t.Fatalf("tagged payload events = %+v", ev.Events)
	}
	var base redfish.Event
	if err := json.Unmarshal(plain.payloads[0], &base); err != nil {
		t.Fatal(err)
	}
	if base.Context != "" {
		t.Fatalf("plain payload Context = %q, want empty", base.Context)
	}
}

// TestContextSpliceAllocs: a subscription's Context is marshaled once,
// at Subscribe, so a delivery's body with a Context costs exactly one
// allocation — the spliced copy.
func TestContextSpliceAllocs(t *testing.T) {
	b := NewBus(Config{})
	defer b.Close()
	const want = `dash"board <42>`
	sub, err := b.Subscribe(&byteCollector{}, Filter{}, want)
	if err != nil {
		t.Fatal(err)
	}
	env := newEnvelope(Record(redfish.EventResourceUpdated, "ctx-2", "updated", "/redfish/v1/Systems/S1"), obsv.SpanContext{})
	body, err := env.body(sub.contextJSON, nil) // the one encode, outside the count
	if err != nil {
		t.Fatal(err)
	}
	var ev redfish.Event
	if err := json.Unmarshal(body, &ev); err != nil || ev.Context != want {
		t.Fatalf("spliced body Context = %q (err %v), want %q", ev.Context, err, want)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := env.body(sub.contextJSON, nil); err != nil {
			t.Fatal(err)
		}
	})
	if got != 1 {
		t.Fatalf("envelope.body with a Context = %v allocations, want 1 (the spliced copy)", got)
	}
}

// TestPublishNoMatchAllocs: a publish no subscription admits is matched
// before anything is built for delivery, so on a bus whose index holds
// type, origin and prefix subscriptions that all miss it costs no
// allocation — no envelope, no span context, no records slice — even
// from a traced request. It is still counted and observed.
func TestPublishNoMatchAllocs(t *testing.T) {
	var observed atomic.Int64
	b := NewBus(Config{PublishObserver: func(time.Duration) { observed.Add(1) }})
	defer b.Close()
	for _, f := range []Filter{
		{EventTypes: []string{redfish.EventAlert}},
		{Origins: []odata.ID{"/redfish/v1/Chassis/C1"}},
		{Origins: []odata.ID{"/redfish/v1/Fabrics"}, Subordinate: true},
	} {
		if _, err := b.Subscribe(&byteCollector{}, f, "ctx"); err != nil {
			t.Fatal(err)
		}
	}
	ctx := obsv.ContextWithRemoteSpanContext(context.Background(), obsv.SpanContext{
		TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SpanID: "00f067aa0ba902b7",
	})
	rec := Record(redfish.EventResourceUpdated, "1", "updated", "/redfish/v1/Systems/S1")
	got := testing.AllocsPerRun(200, func() { b.PublishCtx(ctx, rec) })
	if got != 0 {
		t.Errorf("unmatched PublishCtx = %v allocations, want 0", got)
	}
	st := b.Stats()
	if runs := int64(201); st.Published != runs || observed.Load() != runs {
		t.Errorf("published %d, observed %d, want %d each", st.Published, observed.Load(), runs)
	}
	if st.Encodes != 0 || st.Delivered+st.Failed+st.Dropped+st.DroppedClosed != 0 {
		t.Errorf("an unmatched publish reached delivery: %+v", st)
	}
}

// TestPublishLazyBuildsOnlyOnMatch: PublishLazy's record is built only
// when a subscription admits its type and origin.
func TestPublishLazyBuildsOnlyOnMatch(t *testing.T) {
	b := NewBus(Config{Synchronous: true})
	defer b.Close()
	c := &byteCollector{}
	if _, err := b.Subscribe(c, Filter{Origins: []odata.ID{"/redfish/v1/Systems"}, Subordinate: true}, ""); err != nil {
		t.Fatal(err)
	}
	builds := 0
	publish := func(origin odata.ID) {
		b.PublishLazy(context.Background(), redfish.EventResourceUpdated, origin, func() redfish.EventRecord {
			builds++
			return Record(redfish.EventResourceUpdated, "1", "updated", origin)
		})
	}
	publish("/redfish/v1/Chassis/C1")
	publish("")
	if builds != 0 || c.count() != 0 {
		t.Fatalf("unmatched publishes built %d records and delivered %d", builds, c.count())
	}
	publish("/redfish/v1/Systems/S1")
	if builds != 1 || c.count() != 1 {
		t.Fatalf("matched publish built %d records and delivered %d, want 1 and 1", builds, c.count())
	}
	if st := b.Stats(); st.Published != 3 {
		t.Errorf("published = %d, want 3", st.Published)
	}
}

// TestPerSubscriberFIFOOrdering proves per-subscriber delivery order
// survives the shared worker pool: with more queued events than the
// drain batch and fewer workers than subscribers, every subscriber
// still sees the publish sequence in order.
func TestPerSubscriberFIFOOrdering(t *testing.T) {
	const nSubs, nEvents = 5, 200
	b := NewBus(Config{Workers: 2, QueueDepth: nEvents})
	defer b.Close()
	sinks := make([]*collector, nSubs)
	for i := range sinks {
		sinks[i] = &collector{}
		if _, err := b.Subscribe(sinks[i], Filter{}, ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nEvents; i++ {
		b.Publish(Record(redfish.EventResourceUpdated, strconv.Itoa(i), "seq", "/redfish/v1/Systems/S1"))
	}
	waitFor(t, func() bool {
		for _, s := range sinks {
			if s.count() != nEvents {
				return false
			}
		}
		return true
	})
	if d := b.Stats().Dropped; d != 0 {
		t.Fatalf("dropped %d events with sufficient queue depth", d)
	}
	for si, s := range sinks {
		s.mu.Lock()
		for i, ev := range s.evs {
			if ev.ID != strconv.Itoa(i) {
				s.mu.Unlock()
				t.Fatalf("subscriber %d event %d has id %q: out of order", si, i, ev.ID)
			}
		}
		s.mu.Unlock()
	}
}

// TestPublishDuringUnsubscribeRace hammers the copy-on-write index:
// publishes race subscription churn with no locks shared between them.
// Run under -race; the assertions are secondary to the detector.
func TestPublishDuringUnsubscribeRace(t *testing.T) {
	b := NewBus(Config{RetryAttempts: 1})
	defer b.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				b.Publish(Record(redfish.EventResourceUpdated, strconv.Itoa(i), "race", "/redfish/v1/Systems/S1"))
			}
		}()
	}
	for i := 0; i < 100; i++ {
		c := &collector{}
		sub, err := b.Subscribe(c, Filter{EventTypes: []string{redfish.EventResourceUpdated}}, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Unsubscribe(sub.ID); err != nil {
			t.Fatal(err)
		}
		// Unsubscribe returned: the count is final, later publishes must
		// not reach the retired sink.
		n := c.count()
		b.Publish(Record(redfish.EventResourceUpdated, "after", "race", "/redfish/v1/Systems/S1"))
		if got := c.count(); got != n {
			t.Fatalf("iteration %d: delivery after Unsubscribe returned (%d -> %d)", i, n, got)
		}
	}
	close(stop)
	wg.Wait()
}

// TestPublishAfterCloseRace races Close against publishers: no panics,
// and publishes landing after Close are silent no-ops.
func TestPublishAfterCloseRace(t *testing.T) {
	b := NewBus(Config{RetryAttempts: 1})
	c := &collector{}
	if _, err := b.Subscribe(c, Filter{}, ""); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b.Publish(Record(redfish.EventResourceUpdated, fmt.Sprintf("%d-%d", g, i), "close race", "/redfish/v1/Systems/S1"))
			}
		}(g)
	}
	b.Close()
	wg.Wait()
	if _, err := b.Subscribe(&collector{}, Filter{}, ""); err != ErrClosed {
		t.Fatalf("Subscribe after Close = %v, want ErrClosed", err)
	}
	n := c.count()
	b.Publish(Record(redfish.EventResourceUpdated, "post-close", "x", "/redfish/v1/Systems/S1"))
	if got := c.count(); got != n {
		t.Fatalf("publish after Close delivered (%d -> %d)", n, got)
	}
}

// TestSubordinatePrefixDedup covers the one index partition that can
// reach a subscription twice: nested Subordinate prefixes both covering
// the event origin must still deliver exactly once.
func TestSubordinatePrefixDedup(t *testing.T) {
	b := NewBus(Config{Synchronous: true, RetryAttempts: 1})
	defer b.Close()
	c := &collector{}
	if _, err := b.Subscribe(c, Filter{
		Origins:     []odata.ID{"/redfish/v1/Systems", "/redfish/v1/Systems/S1"},
		Subordinate: true,
	}, ""); err != nil {
		t.Fatal(err)
	}
	b.Publish(Record(redfish.EventResourceUpdated, "1", "x", "/redfish/v1/Systems/S1/Memory/M1"))
	if got := c.count(); got != 1 {
		t.Fatalf("delivered %d times through nested prefixes, want exactly 1", got)
	}
}

// noopByteSink is the benchmark sink: delivery cost ~0 so the measured
// time is the bus's own match + encode + enqueue work.
type noopByteSink struct{ delivered int64 }

func (n *noopByteSink) Deliver(context.Context, redfish.Event) error { return nil }
func (n *noopByteSink) DeliverBytes(context.Context, string, []byte) error {
	atomic.AddInt64(&n.delivered, 1)
	return nil
}

// BenchmarkEventFanout measures publish cost as the subscription set
// grows with *non-matching* subscribers: one StatusChange subscriber
// matches, N-1 Alert subscribers must cost nothing. Flat ns/op across
// 100→10k subscriptions is the inverted index working; the old linear
// filter scan grew ~100× over the same range.
func BenchmarkEventFanout(b *testing.B) {
	for _, subs := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			bus := NewBus(Config{Synchronous: true, RetryAttempts: 1})
			defer bus.Close()
			sink := &noopByteSink{}
			for i := 0; i < subs-1; i++ {
				if _, err := bus.Subscribe(sink, Filter{EventTypes: []string{redfish.EventAlert}}, ""); err != nil {
					b.Fatal(err)
				}
			}
			match := &noopByteSink{}
			if _, err := bus.Subscribe(match, Filter{EventTypes: []string{redfish.EventStatusChange}}, ""); err != nil {
				b.Fatal(err)
			}
			rec := Record(redfish.EventStatusChange, "bench", "status changed", "/redfish/v1/Systems/S1")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bus.Publish(rec)
			}
			b.StopTimer()
			if got := atomic.LoadInt64(&match.delivered); got != int64(b.N) {
				b.Fatalf("matching subscriber saw %d of %d publishes", got, b.N)
			}
		})
	}
}
