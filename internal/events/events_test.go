package events

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ofmf/internal/odata"
	"ofmf/internal/redfish"
)

// collector is a Sink that records delivered events.
type collector struct {
	mu   sync.Mutex
	evs  []redfish.Event
	fail int32 // number of initial deliveries to fail
}

func (c *collector) Deliver(_ context.Context, ev redfish.Event) error {
	if atomic.LoadInt32(&c.fail) > 0 {
		atomic.AddInt32(&c.fail, -1)
		return errors.New("transient")
	}
	c.mu.Lock()
	c.evs = append(c.evs, ev)
	c.mu.Unlock()
	return nil
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.evs)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met before deadline")
}

func TestPublishDelivers(t *testing.T) {
	b := NewBus(Config{})
	defer b.Close()
	c := &collector{}
	if _, err := b.Subscribe(c, Filter{}, "ctx1"); err != nil {
		t.Fatal(err)
	}
	b.Publish(Record(redfish.EventResourceAdded, "1", "added", "/redfish/v1/Systems/S1"))
	waitFor(t, func() bool { return c.count() == 1 })
	c.mu.Lock()
	ev := c.evs[0]
	c.mu.Unlock()
	if ev.Context != "ctx1" {
		t.Errorf("Context = %q", ev.Context)
	}
	if len(ev.Events) != 1 || ev.Events[0].EventType != redfish.EventResourceAdded {
		t.Errorf("Events = %+v", ev.Events)
	}
	if ev.Events[0].OriginOfCondition.ODataID != "/redfish/v1/Systems/S1" {
		t.Errorf("origin = %v", ev.Events[0].OriginOfCondition)
	}
}

func TestEventTypeFilter(t *testing.T) {
	b := NewBus(Config{})
	defer b.Close()
	c := &collector{}
	if _, err := b.Subscribe(c, Filter{EventTypes: []string{redfish.EventAlert}}, ""); err != nil {
		t.Fatal(err)
	}
	b.Publish(Record(redfish.EventResourceAdded, "1", "ignored", ""))
	b.Publish(Record(redfish.EventAlert, "2", "kept", ""))
	waitFor(t, func() bool { return c.count() == 1 })
	time.Sleep(20 * time.Millisecond)
	if c.count() != 1 {
		t.Errorf("delivered %d, want 1", c.count())
	}
}

func TestOriginFilterSubordinate(t *testing.T) {
	cases := []struct {
		sub    bool
		origin odata.ID
		want   bool
	}{
		{false, "/redfish/v1/Fabrics/CXL", true},
		{false, "/redfish/v1/Fabrics/CXL/Endpoints/E1", false},
		{true, "/redfish/v1/Fabrics/CXL/Endpoints/E1", true},
		{true, "/redfish/v1/Systems/S1", false},
	}
	for _, cse := range cases {
		f := Filter{Origins: []odata.ID{"/redfish/v1/Fabrics/CXL"}, Subordinate: cse.sub}
		rec := Record(redfish.EventAlert, "1", "m", cse.origin)
		if got := f.Matches(rec); got != cse.want {
			t.Errorf("Matches(sub=%v, origin=%s) = %v, want %v", cse.sub, cse.origin, got, cse.want)
		}
	}
}

func TestOriginFilterRequiresOrigin(t *testing.T) {
	f := Filter{Origins: []odata.ID{"/x"}}
	rec := Record(redfish.EventAlert, "1", "no origin", "")
	if f.Matches(rec) {
		t.Error("matched record with no origin")
	}
}

func TestRetrySucceedsAfterTransientFailure(t *testing.T) {
	b := NewBus(Config{RetryAttempts: 3, RetryInterval: time.Millisecond})
	defer b.Close()
	c := &collector{fail: 2}
	if _, err := b.Subscribe(c, Filter{}, ""); err != nil {
		t.Fatal(err)
	}
	b.Publish(Record(redfish.EventAlert, "1", "m", ""))
	waitFor(t, func() bool { return c.count() == 1 })
	if s := b.Stats(); s.Delivered != 1 || s.Failed != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestRetryExhaustionCountsFailure(t *testing.T) {
	b := NewBus(Config{RetryAttempts: 2, RetryInterval: time.Millisecond})
	defer b.Close()
	c := &collector{fail: 100}
	if _, err := b.Subscribe(c, Filter{}, ""); err != nil {
		t.Fatal(err)
	}
	b.Publish(Record(redfish.EventAlert, "1", "m", ""))
	waitFor(t, func() bool { return b.Stats().Failed == 1 })
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	b := NewBus(Config{})
	defer b.Close()
	c := &collector{}
	sub, err := b.Subscribe(c, Filter{}, "")
	if err != nil {
		t.Fatal(err)
	}
	b.Publish(Record(redfish.EventAlert, "1", "m", ""))
	waitFor(t, func() bool { return c.count() == 1 })
	if err := b.Unsubscribe(sub.ID); err != nil {
		t.Fatal(err)
	}
	b.Publish(Record(redfish.EventAlert, "2", "m", ""))
	time.Sleep(20 * time.Millisecond)
	if c.count() != 1 {
		t.Errorf("delivered after unsubscribe: %d", c.count())
	}
	if err := b.Unsubscribe(sub.ID); err == nil {
		t.Error("double unsubscribe succeeded")
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	b := NewBus(Config{QueueDepth: 1, RetryAttempts: 1})
	defer b.Close()
	block := make(chan struct{})
	slow := SinkFunc(func(context.Context, redfish.Event) error {
		<-block
		return nil
	})
	if _, err := b.Subscribe(slow, Filter{}, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b.Publish(Record(redfish.EventAlert, "x", "m", ""))
	}
	waitFor(t, func() bool { return b.Stats().Dropped >= 8 })
	close(block)
}

func TestSynchronousMode(t *testing.T) {
	b := NewBus(Config{Synchronous: true, RetryAttempts: 1})
	defer b.Close()
	c := &collector{}
	if _, err := b.Subscribe(c, Filter{}, ""); err != nil {
		t.Fatal(err)
	}
	b.Publish(Record(redfish.EventAlert, "1", "m", ""))
	// Synchronous: delivered before Publish returns.
	if c.count() != 1 {
		t.Errorf("count = %d immediately after publish", c.count())
	}
}

func TestHTTPSinkDeliver(t *testing.T) {
	var got atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			t.Errorf("method = %s", r.Method)
		}
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("content-type = %s", ct)
		}
		got.Add(1)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	sink := &HTTPSink{URL: srv.URL}
	err := sink.Deliver(context.Background(), redfish.Event{ID: "1"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Load() != 1 {
		t.Errorf("server saw %d posts", got.Load())
	}
}

func TestHTTPSinkNon2xxIsError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusBadGateway)
	}))
	defer srv.Close()
	sink := &HTTPSink{URL: srv.URL}
	if err := sink.Deliver(context.Background(), redfish.Event{}); err == nil {
		t.Error("expected error for 502")
	}
}

func TestCloseRejectsSubscribe(t *testing.T) {
	b := NewBus(Config{})
	b.Close()
	if _, err := b.Subscribe(SinkFunc(func(context.Context, redfish.Event) error { return nil }), Filter{}, ""); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v", err)
	}
	b.Close() // idempotent
}

func TestConcurrentPublish(t *testing.T) {
	b := NewBus(Config{QueueDepth: 4096})
	defer b.Close()
	c := &collector{}
	if _, err := b.Subscribe(c, Filter{}, ""); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const n = 50
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				b.Publish(Record(redfish.EventAlert, "e", "m", ""))
			}
		}()
	}
	wg.Wait()
	waitFor(t, func() bool { return c.count() == 4*n })
}

// TestRetireDuringLastAttemptIsNoFailure: re-filtering a subscription
// (Set) cancels its in-flight delivery. An attempt cut short that way
// discards the event with the subscription; it is no failure of the
// destination, so OnDeliveryFailure does not mark it degraded.
func TestRetireDuringLastAttemptIsNoFailure(t *testing.T) {
	var failures atomic.Int32
	b := NewBus(Config{RetryAttempts: 1, OnDeliveryFailure: func(string, int) { failures.Add(1) }})
	defer b.Close()
	entered := make(chan struct{}, 1)
	sink := SinkFunc(func(ctx context.Context, _ redfish.Event) error {
		entered <- struct{}{}
		<-ctx.Done()
		return ctx.Err()
	})
	if _, err := b.Set("1", sink, Filter{}, ""); err != nil {
		t.Fatal(err)
	}
	b.Publish(Record(redfish.EventAlert, "1", "m", ""))
	<-entered
	if _, err := b.Set("1", sink, Filter{EventTypes: []string{redfish.EventStatusChange}}, ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return b.Stats().DroppedClosed == 1 })
	if st := b.Stats(); st.Failed != 0 || failures.Load() != 0 {
		t.Errorf("Failed = %d, OnDeliveryFailure calls = %d; want 0 and 0", st.Failed, failures.Load())
	}
}

// TestSetKeepsAnUnchangedSubscription: setting what an id already holds
// keeps the subscription, so a re-applied stored subscription keeps its
// queue and failure count; any change of destination, filter or
// context replaces it.
func TestSetKeepsAnUnchangedSubscription(t *testing.T) {
	b := NewBus(Config{})
	defer b.Close()
	set := func(dest string, f Filter, contextStr string) *Subscription {
		t.Helper()
		sink, err := NewHTTPSink(dest)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := b.Set("1", sink, f, contextStr)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	alerts := func() Filter { return Filter{EventTypes: []string{redfish.EventAlert}} }
	prev := set("http://a.example/", alerts(), "c")
	if set("http://a.example/", alerts(), "c") != prev {
		t.Error("an unchanged Set replaced the subscription")
	}
	for _, next := range []func() *Subscription{
		func() *Subscription { return set("http://b.example/", alerts(), "c") },
		func() *Subscription { return set("http://b.example/", Filter{}, "c") },
		func() *Subscription { return set("http://b.example/", Filter{Origins: []odata.ID{"/x"}}, "c") },
		func() *Subscription { return set("http://b.example/", Filter{Origins: []odata.ID{"/x"}}, "d") },
	} {
		sub := next()
		if sub == prev {
			t.Errorf("a changed Set kept the subscription (%+v)", sub.Filter)
		}
		prev = sub
	}
}
