package core_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ofmf/internal/core"
	"ofmf/internal/obsv"
	"ofmf/internal/service"
)

// syncBuffer makes the log sink safe for the framework's goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestObservabilityEndToEnd drives one compose/decompose cycle and checks
// the full observability loop: /metrics exposition reflects the traffic,
// the compose path is timed, the ManagementPlane self-telemetry report is
// served from the Redfish tree, and every log line of the traced request
// carries the request id the client received in X-Request-Id.
func TestObservabilityEndToEnd(t *testing.T) {
	logs := &syncBuffer{}
	f, err := core.New(core.Config{
		Nodes: 2,
		Service: service.Config{
			Logger: obsv.NewLogger(logs, slog.LevelDebug),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	mux := http.NewServeMux()
	mux.Handle("/", f.Handler())
	mux.Handle("/metrics", f.Service.Metrics().Registry().Handler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Compose through the Redfish-native path.
	resp, err := http.Post(srv.URL+"/redfish/v1/Systems", "application/json",
		strings.NewReader(`{"Name":"obs-sys","Cores":2,"FabricMemoryMiB":1024}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("compose = %d: %s", resp.StatusCode, body)
	}
	reqID := resp.Header.Get(obsv.RequestIDHeader)
	if reqID == "" {
		t.Fatal("compose response missing X-Request-Id")
	}

	// Every log line of the compose request carries the same request id:
	// the middleware line, the compose-op line, and the agent-op lines for
	// the provisioning and connection forwarded to the CXL agent.
	logText := logs.String()
	for _, wantMsg := range []string{"http request", "compose op", "agent op"} {
		found := false
		for _, line := range strings.Split(logText, "\n") {
			if strings.Contains(line, `msg="`+wantMsg+`"`) && strings.Contains(line, "request_id="+reqID) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %q log line with request_id=%s\nlogs:\n%s", wantMsg, reqID, logText)
		}
	}

	// Decompose.
	var sys struct {
		ODataID string `json:"@odata.id"`
	}
	if err := json.Unmarshal(body, &sys); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+sys.ODataID, nil)
	resp, err = (&http.Client{}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("decompose = %d", resp.StatusCode)
	}

	// Scrape /metrics: request counters and compose timings are live.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != obsv.ContentType {
		t.Errorf("metrics Content-Type = %q", got)
	}
	metricsText := string(expo)
	for _, want := range []string{
		`ofmf_http_requests_total{method="POST",class="Systems",code="201"} 1`,
		`ofmf_http_requests_total{method="DELETE",class="Systems",code="204"} 1`,
		`ofmf_compose_duration_seconds_count{op="compose",outcome="ok"} 1`,
		`ofmf_compose_duration_seconds_count{op="decompose",outcome="ok"} 1`,
		`ofmf_agent_ops_total{fabric="CXLMemoryAppliance",op="CreateResource",outcome="ok"} 1`,
		`ofmf_agent_ops_total{fabric="CXL",op="CreateConnection",outcome="ok"} 1`,
		`ofmf_store_ops_total{op="get"} `,
		`ofmf_store_lock_wait_seconds_count `,
		`ofmf_store_entries `,
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The store is one lock domain: nothing is broken down by shard.
	for _, line := range strings.Split(metricsText, "\n") {
		if strings.Contains(line, "shard") {
			t.Errorf("/metrics still speaks of shards: %s", line)
		}
	}

	// The self-telemetry report is a plain Redfish resource.
	resp, err = http.Get(srv.URL + "/redfish/v1/TelemetryService/MetricReports/ManagementPlane")
	if err != nil {
		t.Fatal(err)
	}
	repBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ManagementPlane report = %d: %s", resp.StatusCode, repBody)
	}
	var report struct {
		MetricValues []struct {
			MetricID       string `json:"MetricId"`
			MetricProperty string `json:"MetricProperty"`
		} `json:"MetricValues"`
	}
	if err := json.Unmarshal(repBody, &report); err != nil {
		t.Fatal(err)
	}
	hasSelf := false
	for _, mv := range report.MetricValues {
		if mv.MetricID == "ofmf_store_ops_total" {
			hasSelf = true
			if !strings.HasPrefix(mv.MetricProperty, "ofmf_store_ops_total{op=") || strings.Contains(mv.MetricProperty, "shard") {
				t.Errorf("MetricProperty = %q", mv.MetricProperty)
			}
		}
	}
	if !hasSelf {
		t.Errorf("report has no ofmf_store_ops_total values: %s", repBody)
	}
}

// TestComposerFacadeInstrumented checks the /composer/v1 facade shares
// the observability middleware and the Redfish error envelope.
func TestComposerFacadeInstrumented(t *testing.T) {
	f, err := core.New(core.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	// Unknown composition: Redfish envelope with request id.
	resp, err := http.Get(srv.URL + "/composer/v1/Compositions/ghost")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.Header.Get(obsv.RequestIDHeader) == "" {
		t.Error("composer response missing X-Request-Id")
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
			Info []struct {
				MessageID string `json:"MessageId"`
			} `json:"@Message.ExtendedInfo"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("not a Redfish envelope: %v: %s", err, body)
	}
	if env.Error.Code != "Base.1.0.ResourceMissingAtURI" || len(env.Error.Info) != 1 {
		t.Errorf("envelope = %s", body)
	}

	// The request landed in the Composer route class.
	if got := f.Service.Metrics().HTTPRequests.With("GET", "Composer", "404").Value(); got != 1 {
		t.Errorf("composer request counter = %v, want 1", got)
	}
}
