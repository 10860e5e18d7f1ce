package agent_test

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"ofmf/internal/agent"
	"ofmf/internal/events"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/resilience"
	"ofmf/internal/service"
)

// flakyRemote builds a Remote whose every request crosses a transport
// injecting the given error rate, with retries tuned fast for tests and
// the breaker disabled so statistics, not fail-fast, are under test.
func flakyRemote(baseURL string, errorRate float64, seed int64) (*agent.Remote, *resilience.FaultTransport) {
	fault := &resilience.FaultTransport{ErrorRate: errorRate, Seed: seed}
	remote := &agent.Remote{
		BaseURL:     baseURL,
		CallbackURL: "http://127.0.0.1:1",
		Client: &http.Client{Transport: &resilience.Transport{
			Base: fault,
			Policy: resilience.Policy{
				AttemptTimeout: 2 * time.Second,
				MaxAttempts:    12,
				Backoff:        resilience.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond},
				Breaker:        resilience.BreakerConfig{Threshold: -1},
			},
			Retryable: resilience.RetryAll,
		}},
	}
	return remote, fault
}

// TestAgentConvergesUnderInjectedFaults drives the full agent control
// plane — register, publish subtree, publish events, heartbeat — through
// a transport that fails 30% of requests, and requires every operation
// to converge with zero lost events.
func TestAgentConvergesUnderInjectedFaults(t *testing.T) {
	tb := newTestbed(t)
	remote, fault := flakyRemote(tb.srv.URL, 0.3, 11)

	// Record every event the OFMF's bus actually receives.
	var mu sync.Mutex
	got := make(map[string]bool)
	if _, err := tb.svc.Bus().Subscribe(events.SinkFunc(func(_ context.Context, ev redfish.Event) error {
		mu.Lock()
		defer mu.Unlock()
		for _, rec := range ev.Events {
			got[rec.EventID] = true
		}
		return nil
	}), events.Filter{EventTypes: []string{redfish.EventAlert}}, "test"); err != nil {
		t.Fatal(err)
	}

	fabricURI := odata.ID("/redfish/v1/Fabrics/Flaky")
	uri, err := remote.Register(redfish.AggregationSource{
		Resource: odata.Resource{Name: "Flaky Agent"},
		Oem:      redfish.AggSourceOem{OFMF: &redfish.AgentDescriptor{Technology: "CXL", Version: "1.0"}},
		Links:    redfish.AggSourceLinks{ResourcesAccessed: []odata.Ref{odata.NewRef(fabricURI)}},
	})
	if err != nil {
		t.Fatalf("register never converged: %v", err)
	}

	fab := redfish.Fabric{Resource: odata.NewResource(fabricURI, redfish.TypeFabric, "Flaky")}
	if err := remote.PublishSubtree(context.Background(), fabricURI, map[odata.ID]any{fabricURI: fab}); err != nil {
		t.Fatalf("publish subtree never converged: %v", err)
	}
	var gotFab redfish.Fabric
	if err := tb.svc.Store().GetAs(fabricURI, &gotFab); err != nil {
		t.Fatalf("published fabric missing from tree: %v", err)
	}

	const n = 40
	for i := 0; i < n; i++ {
		remote.PublishEvent(events.Record(redfish.EventAlert,
			fmt.Sprintf("flaky-%d", i), "injected-fault test event", fabricURI))
	}
	// Heartbeats double as the reconnect signal that flushes the spool.
	deadline := time.Now().Add(30 * time.Second)
	for remote.EventBacklog() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("event backlog stuck at %d", remote.EventBacklog())
		}
		_ = remote.TouchSource(uri, redfish.Timestamp(time.Now()))
	}
	if err := remote.TouchSource(uri, redfish.Timestamp(time.Now())); err != nil {
		t.Fatalf("heartbeat never converged: %v", err)
	}

	if dropped := remote.EventsDropped(); dropped != 0 {
		t.Errorf("events dropped = %d, want 0", dropped)
	}
	if delivered := remote.EventsDelivered(); delivered != n {
		t.Errorf("events delivered = %d, want %d", delivered, n)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		received := len(got)
		mu.Unlock()
		if received == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("OFMF bus saw %d/%d events", received, n)
		}
		time.Sleep(2 * time.Millisecond)
	}

	var src redfish.AggregationSource
	if err := tb.svc.Store().GetAs(uri, &src); err != nil {
		t.Fatal(err)
	}
	if src.Oem.OFMF == nil || src.Oem.OFMF.LastHeartbeat == "" {
		t.Error("heartbeat not recorded on the aggregation source")
	}
	if fault.Injected() == 0 {
		t.Error("fault transport injected nothing; test exercised no failures")
	}
}

// TestRegisterRetryDoesNotDuplicateSource covers the idempotent-
// registration contract the agent's RetryAll transport depends on: a
// retried POST of the same HostName must update the existing source, not
// mint a second one.
func TestRegisterRetryDoesNotDuplicateSource(t *testing.T) {
	tb := newTestbed(t)
	remote := &agent.Remote{BaseURL: tb.srv.URL, CallbackURL: "http://127.0.0.1:2"}

	src := redfish.AggregationSource{
		Resource: odata.Resource{Name: "Agent A"},
		Oem:      redfish.AggSourceOem{OFMF: &redfish.AgentDescriptor{Technology: "NVMeOverFabrics"}},
	}
	first, err := remote.Register(src)
	if err != nil {
		t.Fatal(err)
	}
	second, err := remote.Register(src)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("re-registration minted a new source: %s then %s", first, second)
	}
	members, err := tb.svc.Store().Members(service.AggregationSourcesURI)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 {
		t.Errorf("aggregation sources = %d, want 1", len(members))
	}
	// Re-registration revives a source the sweeper had downgraded.
	var stored redfish.AggregationSource
	if err := tb.svc.Store().GetAs(first, &stored); err != nil {
		t.Fatal(err)
	}
	if stored.Status.Health != "OK" {
		t.Errorf("re-registered source health = %q", stored.Status.Health)
	}
}

// TestHeartbeatReportsConsecutiveFailures verifies the heartbeat loop
// beats immediately and surfaces failures to its report callback instead
// of swallowing them.
func TestHeartbeatReportsConsecutiveFailures(t *testing.T) {
	tb := newTestbed(t)
	remote := &agent.Remote{BaseURL: tb.srv.URL, CallbackURL: "http://127.0.0.1:3"}
	uri, err := remote.Register(redfish.AggregationSource{
		Resource: odata.Resource{Name: "Beater"},
		Oem:      redfish.AggSourceOem{OFMF: &redfish.AgentDescriptor{Technology: "GPU"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	type beat struct {
		consecutive int
		err         error
	}
	beats := make(chan beat, 64)
	stop := agent.StartHeartbeat(remote, uri, time.Hour, agent.WithHeartbeatReport(
		func(consecutive int, err error) {
			beats <- beat{consecutive, err}
		}))
	defer stop()

	// The first beat arrives immediately, not one interval in.
	select {
	case b := <-beats:
		if b.err != nil || b.consecutive != 0 {
			t.Fatalf("first beat = %+v", b)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no immediate first heartbeat")
	}
	var src redfish.AggregationSource
	if err := tb.svc.Store().GetAs(uri, &src); err != nil {
		t.Fatal(err)
	}
	if src.Oem.OFMF == nil || src.Oem.OFMF.LastHeartbeat == "" {
		t.Error("immediate beat did not record LastHeartbeat")
	}
	stop()

	// Against a dead OFMF the failure count climbs instead of vanishing.
	dead := &agent.Remote{BaseURL: "http://127.0.0.1:1", Client: &http.Client{
		Transport: &resilience.Transport{Policy: resilience.Policy{
			AttemptTimeout: 200 * time.Millisecond,
			MaxAttempts:    1,
			Breaker:        resilience.BreakerConfig{Threshold: -1},
		}},
	}}
	beats2 := make(chan beat, 64)
	stop2 := agent.StartHeartbeat(dead, uri, time.Millisecond, agent.WithHeartbeatReport(
		func(consecutive int, err error) {
			beats2 <- beat{consecutive, err}
		}))
	defer stop2()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case b := <-beats2:
			if b.err == nil {
				t.Fatal("beat against dead OFMF reported success")
			}
			if b.consecutive >= 3 {
				return
			}
		case <-deadline:
			t.Fatal("consecutive failure count never reached 3")
		}
	}
}
