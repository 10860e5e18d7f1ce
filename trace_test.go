package ofmf_test

// End-to-end tracing acceptance: one compose request on the demo
// topology must yield a single trace spanning the HTTP middleware, the
// composer, the agents, the store and the WAL, with correct
// parent/child links (agent publishes under their agent op, one WAL
// commit under the compose) — and the admin Traces endpoint must serve it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ofmf/internal/core"
	"ofmf/internal/obsv"
	"ofmf/internal/service"
	"ofmf/internal/store/persist"
)

func TestComposeTraceEndToEnd(t *testing.T) {
	reg := obsv.NewRegistry()
	metrics := obsv.NewMetrics(reg)
	tracer := obsv.NewTracer(reg, obsv.TracerOptions{})
	f, err := core.New(core.Config{
		Nodes:   2,
		Service: service.Config{Metrics: metrics, Tracer: tracer},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Attach a durable backend so the WAL group-commit seam shows up in
	// the trace too.
	backend, err := persist.Open(persist.Options{Dir: t.TempDir(), Fsync: true, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := backend.Recover(f.Service.Store())
	if err != nil {
		t.Fatal(err)
	}
	f.Service.Store().AttachBackend(backend, stats.LastSeq)

	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	body := []byte(`{"Name": "traced", "Cores": 1, "FabricMemoryMiB": 256}`)
	resp, err := http.Post(srv.URL+"/composer/v1/Compose", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		t.Fatalf("compose POST = %d", resp.StatusCode)
	}

	// The middleware finishes the http span after writing the response;
	// poll briefly for it.
	var httpSpan obsv.SpanRecord
	deadline := time.Now().Add(5 * time.Second)
	for httpSpan.SpanID == "" {
		for _, r := range tracer.Dump() {
			if r.Name == "http.Composer" && r.Attrs["path"] == "/composer/v1/Compose" {
				httpSpan = r
			}
		}
		if httpSpan.SpanID == "" {
			if time.Now().After(deadline) {
				t.Fatalf("no http.Composer span in %+v", tracer.Dump())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Collect the whole trace and index it by span id.
	byID := map[string]obsv.SpanRecord{}
	byName := map[string][]obsv.SpanRecord{}
	for _, r := range tracer.Dump() {
		if r.TraceID == httpSpan.TraceID {
			byID[r.SpanID] = r
			byName[r.Name] = append(byName[r.Name], r)
		}
	}

	// Every layer contributed spans to the one trace.
	for _, name := range []string{"compose.compose", "agent.CreateResource", "agent.CreateConnection", "store.put_subtree", "store.create", "wal.commit"} {
		if len(byName[name]) == 0 {
			names := make([]string, 0, len(byID))
			for _, r := range byID {
				names = append(names, r.Name)
			}
			t.Fatalf("trace has no %s span; trace spans: %v", name, names)
		}
	}

	// Parent/child links: compose hangs off the http span, and every
	// other span's parent chain reaches the http span within the trace.
	compose := byName["compose.compose"][0]
	if compose.ParentID != httpSpan.SpanID {
		t.Errorf("compose parent = %s, want http span %s", compose.ParentID, httpSpan.SpanID)
	}
	for _, r := range byID {
		if r.SpanID == httpSpan.SpanID {
			continue
		}
		// Walk to the root, bounded to catch cycles.
		cur, hops := r, 0
		for cur.ParentID != "" && hops < len(byID)+1 {
			parent, ok := byID[cur.ParentID]
			if !ok {
				t.Errorf("span %s (%s) has parent %s outside the trace", r.Name, r.SpanID, cur.ParentID)
				break
			}
			cur, hops = parent, hops+1
		}
		if cur.SpanID != httpSpan.SpanID {
			t.Errorf("span %s does not chain to the http span (stopped at %s)", r.Name, cur.Name)
		}
	}
	// The in-process agents publish under the request context: every
	// store.put_subtree of the compose hangs off the agent op that made it.
	for _, r := range byName["store.put_subtree"] {
		if parent, ok := byID[r.ParentID]; !ok || !strings.HasPrefix(parent.Name, "agent.") {
			t.Errorf("store.put_subtree parent = %+v, want an agent.* span", byID[r.ParentID])
		}
	}
	// One compose, one durability wait: a single wal.commit, directly
	// under the compose span, not one per store mutation.
	if n := len(byName["wal.commit"]); n != 1 {
		t.Errorf("trace has %d wal.commit spans, want exactly 1", n)
	}
	if wal := byName["wal.commit"][0]; wal.ParentID != compose.SpanID {
		t.Errorf("wal.commit parent = %+v, want the compose.compose span", byID[wal.ParentID])
	}

	// The admin Traces endpoint serves the same trace, and the
	// min-duration filter excludes it when set absurdly high.
	var dump struct {
		Count int
		Spans []obsv.SpanRecord
	}
	getTraces := func(query string) {
		t.Helper()
		resp, err := http.Get(srv.URL + string(service.TracesOemURI) + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("traces GET%s = %d", query, resp.StatusCode)
		}
		dump = struct {
			Count int
			Spans []obsv.SpanRecord
		}{}
		if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
			t.Fatal(err)
		}
	}
	getTraces("?trace=" + httpSpan.TraceID)
	if dump.Count < 5 {
		t.Errorf("traces endpoint returned %d spans for the compose trace, want >= 5", dump.Count)
	}
	for _, sp := range dump.Spans {
		if sp.TraceID != httpSpan.TraceID {
			t.Errorf("trace filter leaked span %+v", sp)
		}
	}
	getTraces(fmt.Sprintf("?trace=%s&min_ms=%d", httpSpan.TraceID, 1<<30))
	if dump.Count != 0 {
		t.Errorf("min_ms filter kept %d spans, want 0", dump.Count)
	}
}
