package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ofmf/internal/events"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/store"
)

// postSource registers an aggregation source with a heartbeat stamped at
// the given time and returns its URI.
func postSource(t *testing.T, srvURL string, host string, beat time.Time) odata.ID {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, srvURL+string(AggregationSourcesURI), map[string]any{
		"HostName": host,
		"Name":     "Agent " + host,
		"Oem": map[string]any{"OFMF": map[string]any{
			"Technology":    "CXL",
			"LastHeartbeat": redfish.Timestamp(beat),
		}},
	}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d: %s", resp.StatusCode, body)
	}
	var src redfish.AggregationSource
	if err := json.Unmarshal(body, &src); err != nil {
		t.Fatal(err)
	}
	return src.ODataID
}

func sourceStatus(t *testing.T, svc *Service, uri odata.ID) odata.Status {
	t.Helper()
	var src redfish.AggregationSource
	if err := svc.store.GetAs(uri, &src); err != nil {
		t.Fatal(err)
	}
	return src.Status
}

// TestLivenessSweeperTransitions walks one source through the full
// verdict ladder: OK → Degraded → Unavailable → (heartbeat resumes) OK,
// checking the stored Status and the StatusChange events at each step.
func TestLivenessSweeperTransitions(t *testing.T) {
	svc, srv := newTestServer(t, Config{Liveness: LivenessConfig{
		StaleAfter:       time.Minute,
		UnavailableAfter: 3 * time.Minute,
	}})

	var mu sync.Mutex
	var transitions []string
	if _, err := svc.Bus().Subscribe(events.SinkFunc(func(_ context.Context, ev redfish.Event) error {
		mu.Lock()
		defer mu.Unlock()
		for _, rec := range ev.Events {
			transitions = append(transitions, rec.Message)
		}
		return nil
	}), events.Filter{EventTypes: []string{redfish.EventStatusChange}}, "liveness-test"); err != nil {
		t.Fatal(err)
	}

	start := time.Unix(1_700_000_000, 0)
	now := start
	sweeper := svc.Liveness()
	sweeper.SetClock(func() time.Time { return now })
	uri := postSource(t, srv.URL, "http://agent-a.example", start)

	sweeper.Sweep()
	if st := sourceStatus(t, svc, uri); st != odata.StatusOK() {
		t.Fatalf("fresh source status = %+v", st)
	}

	// Stale past StaleAfter: Degraded, still Enabled.
	now = start.Add(90 * time.Second)
	sweeper.Sweep()
	if st := sourceStatus(t, svc, uri); st.State != odata.StateEnabled || st.Health != odata.HealthWarning {
		t.Fatalf("stale source status = %+v, want Enabled/Warning", st)
	}

	// A second sweep at the same level must not re-fire the transition.
	sweeper.Sweep()

	// Stale past UnavailableAfter: Unavailable/Critical.
	now = start.Add(5 * time.Minute)
	sweeper.Sweep()
	if st := sourceStatus(t, svc, uri); st.State != odata.StateUnavailable || st.Health != odata.HealthCritical {
		t.Fatalf("dead source status = %+v, want UnavailableOffline/Critical", st)
	}

	// Heartbeat resumes: next sweep restores OK.
	if err := svc.store.Patch(uri, map[string]any{
		"Oem": map[string]any{"OFMF": map[string]any{"LastHeartbeat": redfish.Timestamp(now)}},
	}, ""); err != nil {
		t.Fatal(err)
	}
	sweeper.Sweep()
	if st := sourceStatus(t, svc, uri); st != odata.StatusOK() {
		t.Fatalf("recovered source status = %+v", st)
	}

	want := []string{"Degraded", "Unavailable", "OK"}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(transitions)
		mu.Unlock()
		if n >= len(want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("saw %d transition events, want %d", n, len(want))
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(transitions) != len(want) {
		t.Fatalf("transition events = %q, want %d", transitions, len(want))
	}
	for i, word := range want {
		if !strings.Contains(transitions[i], " is "+word+" ") {
			t.Errorf("transition %d = %q, want %q", i, transitions[i], word)
		}
	}
}

// TestLivenessSweeperDetectsSilentSinceRegistration covers agents that
// register and then never beat: registration stamps the heartbeat.
func TestLivenessSweeperDetectsSilentSinceRegistration(t *testing.T) {
	svc, srv := newTestServer(t, Config{Liveness: LivenessConfig{StaleAfter: time.Minute}})
	start := time.Unix(1_700_000_000, 0)
	now := start
	svc.Liveness().SetClock(func() time.Time { return now })

	// Register without any heartbeat field at all.
	resp, body := doJSON(t, http.MethodPost, srv.URL+string(AggregationSourcesURI), map[string]any{
		"HostName": "http://mute.example", "Name": "Mute Agent",
	}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d: %s", resp.StatusCode, body)
	}
	var src redfish.AggregationSource
	if err := json.Unmarshal(body, &src); err != nil {
		t.Fatal(err)
	}

	if src.Oem.OFMF == nil || src.Oem.OFMF.LastHeartbeat != redfish.Timestamp(start) {
		t.Fatalf("registration stored heartbeat %+v, want %s", src.Oem.OFMF, redfish.Timestamp(start))
	}
	sweeper := svc.Liveness()
	sweeper.Sweep()
	if st := sourceStatus(t, svc, src.ODataID); st != odata.StatusOK() {
		t.Fatalf("just-seen source status = %+v", st)
	}
	now = start.Add(2 * time.Minute)
	sweeper.Sweep()
	if st := sourceStatus(t, svc, src.ODataID); st.Health != odata.HealthWarning {
		t.Fatalf("silent source status = %+v, want Warning", st)
	}
}

// TestLivenessSweeperStartStop exercises the ticker path end to end with
// real (short) intervals: a service with a sweep Interval sweeps on its
// own, and Close stops it.
func TestLivenessSweeperStartStop(t *testing.T) {
	svc, srv := newTestServer(t, Config{Liveness: LivenessConfig{
		Interval:         2 * time.Millisecond,
		StaleAfter:       10 * time.Millisecond,
		UnavailableAfter: 20 * time.Millisecond,
	}})
	uri := postSource(t, srv.URL, "http://agent-b.example", time.Now().Add(-time.Hour))

	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := sourceStatus(t, svc, uri); st.State == odata.StateUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweeper never marked the hour-stale source Unavailable")
		}
		time.Sleep(2 * time.Millisecond)
	}
	svc.Close() // stops the ticker; the cleanup's second Close is a no-op
}

// TestReplicaSweepsNothing: a replica's projection follows its leader's
// sources and heartbeats with at most one deadline per source, but
// while it follows a sweep neither patches nor publishes. The first
// sweep after promotion marks the source that went stale meanwhile.
func TestReplicaSweepsNothing(t *testing.T) {
	leader := New(Config{})
	defer leader.Close()
	replica := New(Config{Liveness: LivenessConfig{StaleAfter: time.Minute}})
	defer replica.Close()
	start := time.Unix(1_700_000_000, 0)
	now := start
	w := replica.Liveness()
	w.SetClock(func() time.Time { return now })
	leader.Store().AttachBackend(follower{replica.Store()}, 0)
	replica.SetReplicaMode(func() string { return "http://leader.invalid" })

	stale := putSource(leader, "stale", start)
	beating := putSource(leader, "beating", start)
	published := replica.Bus().Stats().Published
	for i := 0; i < 1000; i++ {
		now = now.Add(100 * time.Millisecond)
		if err := leader.Store().Patch(beating, map[string]any{
			"Oem": map[string]any{"OFMF": map[string]any{"LastHeartbeat": redfish.Timestamp(now)}},
		}, ""); err != nil {
			t.Fatal(err)
		}
		w.Sweep()
	}
	if n := w.PendingDeadlines(); n > 2 {
		t.Fatalf("replica holds %d deadlines for 2 sources", n)
	}
	if st := sourceStatus(t, replica, stale); st != odata.StatusOK() {
		t.Fatalf("a following replica patched %s to %+v", stale, st)
	}
	if got := replica.Bus().Stats().Published - published; got != 0 {
		t.Fatalf("a following replica published %d events", got)
	}

	replica.ClearReplicaMode()
	w.Sweep()
	if st := sourceStatus(t, replica, stale); st.Health != odata.HealthWarning {
		t.Fatalf("promoted replica left stale source at %+v, want Warning", st)
	}
	if st := sourceStatus(t, replica, beating); st != odata.StatusOK() {
		t.Fatalf("promoted replica marked a beating source %+v", st)
	}
}

// TestRecoveredStaleSourceIsSwept: WAL replay feeds the projection, so
// the first sweep after a restart marks a source whose heartbeat went
// stale while the OFMF was down, with no scan of the collection.
func TestRecoveredStaleSourceIsSwept(t *testing.T) {
	dir := t.TempDir()
	svc, srv := boot(t, dir, Config{})
	uri := putSource(svc, "old", time.Now().Add(-2*time.Minute))
	kill(svc, srv)

	svc, _ = boot(t, dir, Config{Liveness: LivenessConfig{StaleAfter: time.Minute}})
	var members atomic.Int64
	svc.Store().SetObserver(&store.Observer{Op: func(op string) {
		if op == "members" {
			members.Add(1)
		}
	}})
	svc.Liveness().Sweep()
	if st := sourceStatus(t, svc, uri); st.Health != odata.HealthWarning {
		t.Fatalf("recovered stale source status = %+v, want Warning", st)
	}
	if n := members.Load(); n != 0 {
		t.Fatalf("first sweep after recovery made %d members reads, want 0", n)
	}
}

// sourceSeries lists the per-source agent series naming source.
func sourceSeries(svc *Service, source string) []string {
	var out []string
	for _, fam := range svc.Metrics().Registry().Gather() {
		if !strings.HasPrefix(fam.Name, "ofmf_agent_") || len(fam.LabelNames) != 1 || fam.LabelNames[0] != "source" {
			continue
		}
		for _, s := range fam.Samples {
			if s.LabelValues[0] == source {
				out = append(out, fam.Name)
			}
		}
	}
	return out
}

// TestHeartbeatToMissingSourceMintsNoSeries: a heartbeat PATCH to a
// source that does not exist is a 404 and leaves /metrics alone; the
// heartbeat series follow the stored LastHeartbeat only.
func TestHeartbeatToMissingSourceMintsNoSeries(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	beat := map[string]any{"Oem": map[string]any{"OFMF": map[string]any{"LastHeartbeat": redfish.Timestamp(time.Now())}}}
	resp, body := doJSON(t, http.MethodPatch, srv.URL+string(AggregationSourcesURI.Append("99")), beat, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("heartbeat to a missing source = %d: %s", resp.StatusCode, body)
	}
	if got := sourceSeries(svc, "99"); len(got) != 0 {
		t.Fatalf("a 404 heartbeat minted series %v", got)
	}

	uri := postSource(t, srv.URL, "http://agent-m.example", time.Now().Add(-time.Minute))
	resp, body = doJSON(t, http.MethodPatch, srv.URL+string(uri), beat, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat = %d: %s", resp.StatusCode, body)
	}
	if got := svc.Metrics().AgentHeartbeats.With(uri.Leaf()).Value(); got != 1 {
		t.Fatalf("heartbeats_total after one beat = %v, want 1", got)
	}
}

// TestDeletedSourceLeavesMetrics: once a source is deleted, none of its
// per-source series remain.
func TestDeletedSourceLeavesMetrics(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	uri := postSource(t, srv.URL, "http://agent-d.example", time.Now().Add(-time.Minute))
	if err := svc.PatchResource(context.Background(), uri, map[string]any{
		"Oem": map[string]any{"OFMF": map[string]any{"LastHeartbeat": redfish.Timestamp(time.Now())}},
	}, ""); err != nil {
		t.Fatal(err)
	}
	if got := sourceSeries(svc, uri.Leaf()); len(got) == 0 {
		t.Fatal("a registered, beating source has no series")
	}
	if resp, body := doJSON(t, http.MethodDelete, srv.URL+string(uri), nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE %s = %d: %s", uri, resp.StatusCode, body)
	}
	if got := sourceSeries(svc, uri.Leaf()); len(got) != 0 {
		t.Fatalf("deleted source left series %v", got)
	}
}

// TestRestartCountsNoHeartbeats: a restart re-states heartbeats, it does
// not receive them. Recovery announces each source once, in its final
// state, so the restarted sweeper registers it with its last heartbeat,
// which the gauge reads, and heartbeats_total starts again at zero.
// (Replayed record by record, it used to count every heartbeat logged
// after the registration.)
func TestRestartCountsNoHeartbeats(t *testing.T) {
	dir := t.TempDir()
	svc, srv := boot(t, dir, Config{})
	start := time.Now().Add(-time.Hour).Truncate(time.Second)
	uri := postSource(t, srv.URL, "http://agent-r.example", start)
	var last time.Time
	for i := 1; i <= 3; i++ {
		last = start.Add(time.Duration(i) * time.Second)
		beat := map[string]any{"Oem": map[string]any{"OFMF": map[string]any{"LastHeartbeat": redfish.Timestamp(last)}}}
		if resp, body := doJSON(t, http.MethodPatch, srv.URL+string(uri), beat, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("heartbeat = %d: %s", resp.StatusCode, body)
		}
	}
	if got := svc.Metrics().AgentHeartbeats.With(uri.Leaf()).Value(); got != 3 {
		t.Fatalf("heartbeats_total before the restart = %v, want 3", got)
	}
	kill(svc, srv)

	svc, _ = boot(t, dir, Config{})
	if got := svc.Metrics().AgentHeartbeats.With(uri.Leaf()).Value(); got != 0 {
		t.Errorf("heartbeats_total after the restart = %v, want 0", got)
	}
	if got, want := svc.Metrics().AgentLastHeartbeat.With(uri.Leaf()).Value(), float64(last.UnixNano())/1e9; got != want {
		t.Errorf("last heartbeat after the restart = %v, want %v", got, want)
	}
}
