package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"ofmf/internal/odata"
)

// TestErrorEnvelopeShape drives every class of failing request and checks
// each error body is the same Redfish extended-error envelope: a top-level
// "error" object whose @Message.ExtendedInfo entry repeats the registry
// code as MessageId and maps the HTTP status to a severity.
func TestErrorEnvelopeShape(t *testing.T) {
	cases := []struct {
		name         string
		cfg          Config
		method, path string
		body         string
		wantStatus   int
		wantCode     string
		wantSeverity string
	}{
		{
			name:   "missing resource",
			method: http.MethodGet, path: "/redfish/v1/Systems/nope",
			wantStatus: http.StatusNotFound,
			wantCode:   "Base.1.0.ResourceMissingAtURI", wantSeverity: "Warning",
		},
		{
			name:   "method not allowed",
			method: http.MethodDelete, path: "/redfish/v1",
			wantStatus: http.StatusMethodNotAllowed,
			wantCode:   "Base.1.0.OperationNotAllowed", wantSeverity: "Warning",
		},
		{
			name:   "malformed json",
			method: http.MethodPost, path: "/redfish/v1/EventService/Subscriptions",
			body:       "{not json",
			wantStatus: http.StatusBadRequest,
			wantCode:   "Base.1.0.MalformedJSON", wantSeverity: "Warning",
		},
		{
			name:   "subscription destination not a url",
			method: http.MethodPost, path: "/redfish/v1/EventService/Subscriptions",
			body:       `{"Destination":"not a url"}`,
			wantStatus: http.StatusBadRequest,
			wantCode:   "Base.1.0.PropertyValueFormatError", wantSeverity: "Warning",
		},
		{
			name:   "subscription destination not http",
			method: http.MethodPost, path: "/redfish/v1/EventService/Subscriptions",
			body:       `{"Destination":"ftp://receiver.example/events"}`,
			wantStatus: http.StatusBadRequest,
			wantCode:   "Base.1.0.PropertyValueFormatError", wantSeverity: "Warning",
		},
		{
			name:   "etag mismatch",
			cfg:    Config{DirectWrites: true},
			method: http.MethodPatch, path: "/redfish/v1",
			body:       `{"Name":"x"}`,
			wantStatus: http.StatusPreconditionFailed,
			wantCode:   "Base.1.0.PreconditionFailed", wantSeverity: "Warning",
		},
		{
			name:   "post to read-only collection",
			method: http.MethodPost, path: "/redfish/v1/Systems",
			body:       `{"Cores":1}`,
			wantStatus: http.StatusMethodNotAllowed,
			wantCode:   "Base.1.0.OperationNotAllowed", wantSeverity: "Warning",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, srv := newTestServer(t, tc.cfg)
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantCode == "Base.1.0.PreconditionFailed" {
				req.Header.Set("If-Match", `"bogus-etag"`)
			}
			resp, err := (&http.Client{}).Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			var env odata.ErrorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("body is not an error envelope: %v", err)
			}
			if env.Error.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", env.Error.Code, tc.wantCode)
			}
			if len(env.Error.Info) != 1 {
				t.Fatalf("@Message.ExtendedInfo entries = %d, want 1", len(env.Error.Info))
			}
			info := env.Error.Info[0]
			if info.MessageID != tc.wantCode {
				t.Errorf("MessageId = %q, want %q", info.MessageID, tc.wantCode)
			}
			if info.Severity != tc.wantSeverity {
				t.Errorf("Severity = %q, want %q", info.Severity, tc.wantSeverity)
			}
			if info.Message == "" || info.Resolution == "" {
				t.Errorf("incomplete ExtendedInfo: %+v", info)
			}
		})
	}
}

func TestRedfishErrorSeverities(t *testing.T) {
	for status, want := range map[int]string{
		http.StatusOK:                  "OK",
		http.StatusNotFound:            "Warning",
		http.StatusConflict:            "Warning",
		http.StatusInternalServerError: "Critical",
		http.StatusNotImplemented:      "Critical",
	} {
		env := RedfishError(status, "C", "m")
		if got := env.Error.Info[0].Severity; got != want {
			t.Errorf("severityFor(%d) = %q, want %q", status, got, want)
		}
	}
}

func TestRouteClass(t *testing.T) {
	for path, want := range map[string]string{
		"/redfish":                              "Versions",
		"/redfish/v1":                           "ServiceRoot",
		"/redfish/v1/":                          "ServiceRoot",
		"/redfish/v1/Systems":                   "Systems",
		"/redfish/v1/Systems/node001":           "Systems",
		"/redfish/v1/Fabrics":                   "Fabrics",
		"/redfish/v1/Fabrics/CXL":               "Fabrics",
		"/redfish/v1/Fabrics/CXL/Connections/7": "Fabrics.Connections",
		"/redfish/v1/Fabrics/CXL/Zones":         "Fabrics.Zones",
		"/redfish/v1/Oem/OFMF/Subtree":          "Oem",
		"/redfish/v1/$metadata":                 "Metadata",
		"/redfish/v1/TelemetryService/MetricReports/ManagementPlane": "TelemetryService",
		"/composer/v1/Compose": "Composer",
		"/elsewhere":           "Other",
		// The set is closed: a segment the service does not know never
		// becomes a class of its own.
		"/redfish/v1/Anything":                         "Other",
		"/redfish/v1/Anything/deeper":                  "Other",
		"/redfish/v1/Fabrics/CXL/Anything":             "Other",
		"/redfish/v1/Fabrics/CXL/Switches/S1/Ports/P1": "Fabrics.Switches",
		"/redfish/v1/EventService/SSE":                 "EventService",
		"/redfish/v1x":                                 "Other",
	} {
		if got := RouteClass(path); got != want {
			t.Errorf("RouteClass(%q) = %q, want %q", path, got, want)
		}
	}
}
