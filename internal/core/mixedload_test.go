package core_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ofmf/internal/core"
	"ofmf/internal/events"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
)

// TestMixedLoad is the correctness gate for concurrent mixed traffic:
// eight closed-loop clients run a fixed, seeded sequence of GETs,
// PATCHes and compose/decompose cycles over HTTP while webhook
// subscriptions and SSE streams consume the change events, and every
// count the run produces is checked exactly — no failed request, no
// lost acknowledged write, no leaked composition, no event unaccounted
// for.
func TestMixedLoad(t *testing.T) {
	const (
		workers      = 8
		opsPerWorker = 60
		webhooks     = 32 // 1 in 8 listens for ResourceUpdated, the rest for Alert, which never fires
		seed         = 1
	)
	f, err := core.New(core.Config{
		Nodes: 8,
		Service: service.Config{
			// The exact-count assertions need every publish to reach every
			// matching subscriber, so no queue may overflow: the run
			// publishes a few thousand events at most.
			Events: events.Config{QueueDepth: 1 << 16},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
	defer client.CloseIdleConnections()
	bus := f.Service.Bus()

	// do issues one request and returns its status and body; transport
	// failures are reported as status 0.
	do := func(method, path, body string) (int, []byte) {
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Errorf("%s %s: %v", method, path, err)
			return 0, nil
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}

	// An unfiltered in-process subscriber tallies publishes by type; the
	// expected delivery counts below are derived from it. Core's own
	// subscribers (the rule engine) are unfiltered too.
	unfiltered := int64(len(bus.Subscriptions()))
	var tallyMu sync.Mutex
	tally := map[string]int64{}
	if _, err := bus.Subscribe(events.SinkFunc(func(_ context.Context, ev redfish.Event) error {
		tallyMu.Lock()
		defer tallyMu.Unlock()
		for _, rec := range ev.Events {
			tally[rec.EventType]++
		}
		return nil
	}), events.Filter{}, "tally"); err != nil {
		t.Fatal(err)
	}
	unfiltered++

	var posts atomic.Int64
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		posts.Add(1)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer sink.Close()
	matching := 0
	for i := 0; i < webhooks; i++ {
		eventType := redfish.EventAlert
		if i%8 == 0 {
			eventType = redfish.EventResourceUpdated
			matching++
		}
		body, _ := json.Marshal(map[string]any{
			"Destination": sink.URL,
			"Context":     fmt.Sprintf("load-%d", i),
			"EventTypes":  []string{eventType},
		})
		if status, data := do(http.MethodPost, string(service.SubscriptionsURI), string(body)); status != http.StatusCreated {
			t.Fatalf("subscription %d: %d: %s", i, status, data)
		}
	}

	// Two SSE streams, one exercising the comma-separated type filter.
	// The stream is subscribed before its 200 is flushed, so once Do
	// returns the stream sees every later publish.
	sseTypes := [][]string{{redfish.EventResourceUpdated, redfish.EventResourceAdded}, nil}
	var frames [2]atomic.Int64
	sseCtx, stopSSE := context.WithCancel(context.Background())
	var sseWG sync.WaitGroup
	defer sseWG.Wait()
	defer stopSSE()
	for i, types := range sseTypes {
		uri := srv.URL + string(service.SSEURI)
		if types != nil {
			uri += "?EventType=" + strings.Join(types, ",")
		}
		req, err := http.NewRequestWithContext(sseCtx, http.MethodGet, uri, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("sse stream %d: %s", i, resp.Status)
		}
		sseWG.Add(1)
		go func(i int, body io.ReadCloser) {
			defer sseWG.Done()
			defer body.Close()
			rd := bufio.NewReader(body)
			for {
				line, err := rd.ReadString('\n')
				if err != nil {
					return
				}
				if strings.HasPrefix(line, "data: ") {
					frames[i].Add(1)
				}
			}
		}(i, resp.Body)
	}

	// Every computer system is a PATCH target.
	_, data := do(http.MethodGet, string(service.SystemsURI), "")
	var systems odata.Collection
	if err := json.Unmarshal(data, &systems); err != nil || len(systems.Members) == 0 {
		t.Fatalf("systems collection: %v: %s", err, data)
	}
	reads := []string{string(service.RootURI), string(service.SystemsURI), string(service.FabricsURI), string(service.ChassisURI)}
	for _, m := range systems.Members {
		reads = append(reads, string(m.ODataID))
	}

	// waitIdle returns once the bus has delivered everything published
	// so far (nothing is publishing while it is called).
	waitIdle := func() {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for p := bus.Pool(); p.Queued != 0 || p.Busy != 0; p = bus.Pool() {
			if time.Now().After(deadline) {
				t.Fatalf("event bus did not drain: %+v", p)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitIdle()
	base := bus.Stats()
	tallyMu.Lock()
	clear(tally)
	tallyMu.Unlock()
	sseDropped := f.Service.Metrics().SSEDropped
	baseSSEDropped := sseDropped.Value()

	// acked[w][system] is the last value worker w saw a 200 for.
	acked := make([]map[string]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		acked[w] = map[string]int{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for op := 1; op <= opsPerWorker; op++ {
				switch pick := rng.Intn(100); {
				case pick < 20:
					path := reads[rng.Intn(len(reads))]
					if status, data := do(http.MethodGet, path, ""); status != http.StatusOK {
						t.Errorf("worker %d: GET %s = %d: %s", w, path, status, data)
					}
				case pick < 90:
					sys := string(systems.Members[rng.Intn(len(systems.Members))].ODataID)
					body := fmt.Sprintf(`{"Oem":{"Load":{"W%d":%d}}}`, w, op)
					if status, data := do(http.MethodPatch, sys, body); status != http.StatusOK {
						t.Errorf("worker %d: PATCH %s = %d: %s", w, sys, status, data)
						continue
					}
					acked[w][sys] = op
				default:
					status, data := do(http.MethodPost, "/composer/v1/Compose", fmt.Sprintf(`{"Name":"load-w%d-%d","Cores":1}`, w, op))
					var comp struct {
						ID string `json:"Id"`
					}
					if status != http.StatusCreated || json.Unmarshal(data, &comp) != nil || comp.ID == "" {
						t.Errorf("worker %d: compose = %d: %s", w, status, data)
						continue
					}
					if status, data := do(http.MethodDelete, "/composer/v1/Compositions/"+comp.ID, ""); status != http.StatusNoContent {
						t.Errorf("worker %d: decompose %s = %d: %s", w, comp.ID, status, data)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// No acknowledged write lost: each worker's last 200 is what is served.
	for _, m := range systems.Members {
		sys := string(m.ODataID)
		status, data := do(http.MethodGet, sys, "")
		var got struct {
			Oem struct {
				Load map[string]int
			}
		}
		if err := json.Unmarshal(data, &got); status != http.StatusOK || err != nil {
			t.Fatalf("final GET %s = %d, %v: %s", sys, status, err, data)
		}
		for w := range acked {
			if want, ok := acked[w][sys]; ok && got.Oem.Load[fmt.Sprintf("W%d", w)] != want {
				t.Errorf("%s: Oem.Load.W%d = %d, want worker's last acknowledged %d", sys, w, got.Oem.Load[fmt.Sprintf("W%d", w)], want)
			}
		}
	}
	if st := f.Composer.Stats(); st.Compositions != 0 || st.UsedCores != 0 {
		t.Errorf("composer leaked: %d compositions, %d used cores after every decompose", st.Compositions, st.UsedCores)
	}

	// Event accounting, once the bus has drained.
	waitIdle()
	end := bus.Stats()
	tallyMu.Lock()
	byType := maps.Clone(tally)
	tallyMu.Unlock()
	published := end.Published - base.Published
	matched := func(types []string) int64 {
		if types == nil {
			return published
		}
		var n int64
		for _, typ := range types {
			n += byType[typ]
		}
		return n
	}
	var tallied int64
	for _, n := range byType {
		tallied += n
	}
	if tallied != published {
		t.Fatalf("unfiltered subscriber saw %d events of %d published", tallied, published)
	}
	updated := byType[redfish.EventResourceUpdated]
	if updated == 0 {
		t.Fatal("no ResourceUpdated event was published")
	}
	if got, want := posts.Load(), int64(matching)*updated; got != want {
		t.Errorf("webhook POSTs = %d, want %d matching subscriptions × %d ResourceUpdated = %d", got, matching, updated, want)
	}
	wantFrames := matched(sseTypes[0]) + matched(sseTypes[1])
	wantRouted := unfiltered*published + int64(matching)*updated +
		int64(webhooks-matching)*byType[redfish.EventAlert] + wantFrames
	delivered, failed := end.Delivered-base.Delivered, end.Failed-base.Failed
	dropped := end.Dropped - base.Dropped + end.DroppedClosed - base.DroppedClosed
	if delivered+failed+dropped != wantRouted {
		t.Errorf("event conservation broken: %d routed, accounted delivered %d + failed %d + dropped %d", wantRouted, delivered, failed, dropped)
	}
	if failed != 0 || dropped != 0 {
		t.Errorf("%d deliveries failed, %d dropped; want none", failed, dropped)
	}

	// A full SSE queue drops the frame and counts it; every routed frame
	// is either read by the client or in that count.
	var gotFrames, lost int64
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		gotFrames = frames[0].Load() + frames[1].Load()
		lost = int64(sseDropped.Value() - baseSSEDropped)
		if gotFrames+lost == wantFrames || time.Now().After(deadline) {
			break
		}
	}
	if gotFrames+lost != wantFrames {
		t.Errorf("SSE: %d frames read + %d reported dropped, want %d routed", gotFrames, lost, wantFrames)
	}
	for i := range frames {
		if got, want := frames[i].Load(), matched(sseTypes[i]); got == 0 || got > want {
			t.Errorf("SSE stream %d read %d frames, want 1..%d", i, got, want)
		}
	}
	t.Logf("%d events published (%d ResourceUpdated), %d webhook POSTs, SSE %d read + %d dropped",
		published, updated, posts.Load(), gotFrames, lost)
}
