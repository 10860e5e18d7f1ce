package agent_test

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ofmf/internal/agent"
	"ofmf/internal/agent/fabagent"
	"ofmf/internal/emul/fabsim"
	"ofmf/internal/obsv"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
)

type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestOneCorrelationID: a request has one correlation id. Bringing
// neither X-Request-Id nor traceparent, it gets the first 16 hex digits
// of its trace id, and that value is the X-Request-Id the client reads,
// the request_id of every log line on the OFMF, the X-Request-Id the
// agent's ops server receives, and the request_id the agent logs. A
// client-supplied id takes the same road verbatim.
func TestOneCorrelationID(t *testing.T) {
	ofmfLogs, agentLogs := &lockedBuffer{}, &lockedBuffer{}
	tracer := obsv.NewTracer(obsv.NewRegistry(), obsv.TracerOptions{})
	svc := service.New(service.Config{Tracer: tracer, Logger: obsv.NewLogger(ofmfLogs, slog.LevelDebug)})
	ofmfSrv := httptest.NewServer(svc.Handler())
	defer func() {
		ofmfSrv.Close()
		svc.Close()
	}()

	remote := &agent.Remote{BaseURL: ofmfSrv.URL}
	var hopMu sync.Mutex
	var hopIDs []string
	ops := remote.Handler()
	opsSrv := httptest.NewServer(obsv.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hopMu.Lock()
		hopIDs = append(hopIDs, r.Header.Get(obsv.RequestIDHeader))
		hopMu.Unlock()
		ops.ServeHTTP(w, r)
	}), nil, obsv.NewLogger(agentLogs, slog.LevelDebug), func(string) string { return "AgentOps" },
		obsv.NewTracer(nil, obsv.TracerOptions{})))
	defer opsSrv.Close()
	remote.CallbackURL = opsSrv.URL

	fab := fabsim.New()
	if _, err := fabsim.BuildStar(fab, "h", 3, 100); err != nil {
		t.Fatal(err)
	}
	ag := fabagent.New(remote, fab, "IB", redfish.ProtocolInfiniBand)
	if err := ag.Start(); err != nil {
		t.Fatal(err)
	}

	zoneBody, _ := json.Marshal(redfish.Zone{
		Links: redfish.ZoneLinks{Endpoints: []odata.Ref{
			odata.NewRef(ag.FabricID().Append("Endpoints", "h0")),
			odata.NewRef(ag.FabricID().Append("Endpoints", "h1")),
		}},
	})
	createZone := func(clientID string) (id string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ofmfSrv.URL+string(ag.FabricID().Append("Zones")), bytes.NewReader(zoneBody))
		req.Header.Set("Content-Type", "application/json")
		if clientID != "" {
			req.Header.Set(obsv.RequestIDHeader, clientID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("zone POST = %d", resp.StatusCode)
		}
		return resp.Header.Get(obsv.RequestIDHeader)
	}
	// requestLines returns the log lines of one request by its id.
	requestLines := func(logs *lockedBuffer, id string) (lines []string) {
		for _, line := range strings.Split(logs.String(), "\n") {
			if strings.Contains(line, "request_id="+id) {
				lines = append(lines, line)
			}
		}
		return lines
	}
	hasMsg := func(lines []string, msg string) bool {
		for _, line := range lines {
			if strings.Contains(line, `msg="`+msg+`"`) {
				return true
			}
		}
		return false
	}
	check := func(id string) {
		t.Helper()
		hopMu.Lock()
		hop := hopIDs[len(hopIDs)-1]
		hopMu.Unlock()
		if hop != id {
			t.Errorf("agent hop carried X-Request-Id %q, want %q", hop, id)
		}
		if lines := requestLines(ofmfLogs, id); !hasMsg(lines, "http request") || !hasMsg(lines, "agent op") {
			t.Errorf("OFMF log lines under request_id=%s lack the access or agent-op line:\n%s", id, strings.Join(lines, "\n"))
		}
		if lines := requestLines(agentLogs, id); !hasMsg(lines, "http request") {
			t.Errorf("agent logged no access line under request_id=%s:\n%s", id, agentLogs.String())
		}
	}

	// No inbound ids: the request id is the trace id's first 16 digits.
	id := createZone("")
	var traceID string
	for _, rec := range tracer.Dump() {
		if rec.Name == "http.Fabrics.Zones" && rec.Attrs["method"] == http.MethodPost {
			traceID = rec.TraceID
		}
	}
	if len(id) != 16 || !strings.HasPrefix(traceID, id) {
		t.Fatalf("X-Request-Id = %q, want the first 16 hex digits of trace id %q", id, traceID)
	}
	check(id)

	// A client-supplied id is adopted verbatim, all the way to the agent.
	if got := createZone("client-chosen-id"); got != "client-chosen-id" {
		t.Fatalf("X-Request-Id = %q, want client-chosen-id", got)
	}
	check("client-chosen-id")
}
