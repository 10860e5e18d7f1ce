package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ofmf/internal/obsv"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
)

// headerWriter is the cheapest honest ResponseWriter: a header map and a
// status, the body discarded.
type headerWriter struct {
	h      http.Header
	status int
}

func (w *headerWriter) Header() http.Header         { return w.h }
func (w *headerWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *headerWriter) WriteHeader(code int)        { w.status = code }

// TestHandlerGetAllocs is the exact-count gate on what a GET costs at
// the edge in the default configuration (metrics, tracer, info-level
// logger; the request brings no ids): the whole Handler() stack, from
// the middleware through route lookup, authorization and the store's
// zero-copy view. Measured: plain resource GET 8 allocations (33 at
// PR 18) — the middleware's 6 plus the ETag and Content-Type header
// value slices; conditional GET -> 304, 6. The numbers are the gate,
// not a ceiling to grow into.
func TestHandlerGetAllocs(t *testing.T) {
	svc := New(Config{Logger: obsv.NewLogger(io.Discard, slog.LevelInfo)})
	defer svc.Close()
	id := SystemsURI.Append("node001")
	if err := svc.Store().Put(id, redfish.ComputerSystem{
		Resource: odata.NewResource(id, redfish.TypeComputerSystem, "node001"),
		Status:   odata.StatusOK(),
	}); err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	w := &headerWriter{h: http.Header{}}
	serve := func(req *http.Request, want int) float64 {
		t.Helper()
		allocs := testing.AllocsPerRun(500, func() {
			clear(w.h)
			w.status = 0
			h.ServeHTTP(w, req)
		})
		if w.status != want {
			t.Fatalf("%s %s = %d, want %d", req.Method, req.URL, w.status, want)
		}
		return allocs
	}
	get := httptest.NewRequest(http.MethodGet, string(id), nil)
	plain := serve(get, http.StatusOK)
	cond := httptest.NewRequest(http.MethodGet, string(id), nil)
	cond.Header.Set("If-None-Match", w.h.Get("ETag"))
	notModified := serve(cond, http.StatusNotModified)
	t.Logf("plain GET %v allocations, conditional GET %v", plain, notModified)
	if plain > 8 {
		t.Errorf("plain GET = %v allocations, want <= 8", plain)
	}
	if notModified > plain {
		t.Errorf("conditional GET = %v allocations, more than the plain GET's %v", notModified, plain)
	}
}

// seriesCount is the number of series the registry exposes, all
// families together.
func seriesCount(reg *obsv.Registry) int {
	n := 0
	for _, fam := range reg.Gather() {
		n += len(fam.Samples)
	}
	return n
}

// TestMetricSeriesStayBounded: the route class and the method label are
// assigned before authorization, from what the client sent, so both
// must come from closed sets. Before this gate a random path segment
// became a class (three permanent series per curl) and a made-up method
// its own label. A thousand random paths and fifty random methods must
// leave the registry exactly as large as the first few did.
func TestMetricSeriesStayBounded(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	h := svc.Handler()
	rng := rand.New(rand.NewSource(1))
	word := func() string {
		b := make([]byte, 4+rng.Intn(8))
		for i := range b {
			b[i] = byte('A' + rng.Intn(26))
		}
		return string(b)
	}
	shapes := []func() string{
		func() string { return "/" + word() },
		func() string { return "/redfish/v1/" + word() },
		func() string { return "/redfish/v1/" + word() + "/" + word() },
		func() string { return "/redfish/v1/Fabrics/x/" + word() },
		func() string { return "/redfish/v1/Fabrics/" + word() + "/" + word() + "/" + word() },
		func() string { return "/redfish/v1/Oem/" + word() },
	}
	hit := func(method, path string) {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, path, nil))
	}
	// The first few: every path shape under GET and under one invented
	// method, which is every (method, class, status) the rest can reach.
	for _, shape := range shapes {
		hit(http.MethodGet, shape())
		hit(word(), shape())
	}
	before := seriesCount(svc.Metrics().Registry())
	for i := 0; i < 1000; i++ {
		hit(http.MethodGet, shapes[i%len(shapes)]())
	}
	for i := 0; i < 50; i++ {
		hit(word(), shapes[i%len(shapes)]())
	}
	if after := seriesCount(svc.Metrics().Registry()); after != before {
		t.Errorf("registry grew from %d to %d series under random paths and methods", before, after)
	}
	for _, fam := range svc.Metrics().Registry().Gather() {
		if fam.Name != "ofmf_http_requests_total" {
			continue
		}
		for _, s := range fam.Samples {
			method, class := s.LabelValues[0], s.LabelValues[1]
			if (method != "GET" && method != "OTHER") || (class != "Other" && class != "Oem" && class != "Fabrics") {
				t.Errorf("unexpected series method=%q class=%q", method, class)
			}
		}
	}
}

// TestTracesEndpointReportsRequestLine: the entry span keeps method,
// path and status as typed fields, and the Traces endpoint still serves
// them as the span's attributes — for any request, not a sample.
func TestTracesEndpointReportsRequestLine(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	resp, _ := doJSON(t, http.MethodGet, srv.URL+"/redfish/v1/Systems/ghost", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET ghost = %d", resp.StatusCode)
	}
	reqID := resp.Header.Get(obsv.RequestIDHeader)
	deadline := time.Now().Add(5 * time.Second)
	for {
		// The request id is the head of the trace id: ask for the trace.
		_, body := doJSON(t, http.MethodGet, srv.URL+string(TracesOemURI), nil, nil)
		var dump struct {
			Spans []obsv.SpanRecord
		}
		if err := json.Unmarshal(body, &dump); err != nil {
			t.Fatalf("traces: %v: %s", err, body)
		}
		for _, sp := range dump.Spans {
			if sp.Name != "http.Systems" || !strings.HasPrefix(sp.TraceID, reqID) {
				continue
			}
			if sp.Attrs["method"] != "GET" || sp.Attrs["path"] != "/redfish/v1/Systems/ghost" || sp.Attrs["status"] != "404" {
				t.Fatalf("http span attrs = %v, want method/path/status of the request", sp.Attrs)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no http.Systems span for request %s in %s", reqID, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHandlerPatchAllocs is the exact-count gate on what a PATCH costs
// at the edge, on a system shaped like the testbed's and a body shaped
// like a resource manager's (`{"Oem":{"Bench":{"Seq":k}}}`, k changing
// so every request commits, notifies and publishes): the whole
// Handler() stack, the body decode, the store's byte merge, the
// ResourceUpdated publish (no subscribers) and the reply written from
// the merged bytes. Measured: 33 allocations (167 when the store decoded
// the payload to a map, marshalled it back and the reply was a second
// lookup; 40 when the event record and its envelope were built before
// the bus knew nobody would receive them) — 15 reading and decoding the
// body into its three maps, the middleware's 6, 2 for the store.patch
// span, 4 for the new entry, its bytes, its tag and the pointer the
// entry keeps to it (the reply carries the tag, so it is hashed at
// once), 2 header values, the patch variable, the change notice, the
// decoder's error context; the publish itself costs none. The number is the gate, not a ceiling
// to grow into.
func TestHandlerPatchAllocs(t *testing.T) {
	allocs := PatchAllocs(t, nil)
	t.Logf("PATCH %v allocations", allocs)
	if allocs > 33 && !raceDetector {
		t.Errorf("PATCH = %v allocations, want <= 33", allocs)
	}
}

// RaceDetector tells the external tests whether allocation counts hold.
const RaceDetector = raceDetector

// PatchAllocs measures the allocations of a PATCH of a compute node's
// system through the handler of a service that mount, when not nil,
// adds to before the node is stored (the composer's external test
// builds the composer with it).
func PatchAllocs(t *testing.T, mount func(*Service)) float64 {
	t.Helper()
	svc := New(Config{Logger: obsv.NewLogger(io.Discard, slog.LevelInfo), DirectWrites: true})
	defer svc.Close()
	if mount != nil {
		mount(svc)
	}
	id := SystemsURI.Append("node001")
	if err := svc.Store().Put(id, redfish.ComputerSystem{
		Resource:         odata.NewResource(id, redfish.TypeComputerSystem, "node001"),
		SystemType:       "Physical",
		Status:           odata.StatusOK(),
		PowerState:       "On",
		HostName:         "node001",
		ProcessorSummary: &redfish.ProcessorSummary{Count: 1, TotalCores: 56},
		MemorySummary:    &redfish.MemorySummary{TotalSystemMemoryGiB: 128},
	}); err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	w := &headerWriter{h: http.Header{}}
	bodies := [][]byte{[]byte(`{"Oem":{"Bench":{"Seq":1}}}`), []byte(`{"Oem":{"Bench":{"Seq":2}}}`)}
	body := bytes.NewReader(nil)
	req := httptest.NewRequest(http.MethodPatch, string(id), nil)
	req.Body = io.NopCloser(body)
	n := 0
	allocs := testing.AllocsPerRun(500, func() {
		clear(w.h)
		w.status = 0
		body.Reset(bodies[n%2])
		n++
		h.ServeHTTP(w, req)
	})
	if w.status != http.StatusOK {
		t.Fatalf("PATCH %s = %d, want 200", id, w.status)
	}
	var got struct {
		Oem struct{ Bench struct{ Seq int } }
	}
	if err := svc.Store().GetAs(id, &got); err != nil || got.Oem.Bench.Seq != 1+(n-1)%2 {
		t.Fatalf("stored Seq = %d (%v) after %d PATCHes", got.Oem.Bench.Seq, err, n)
	}
	return allocs
}
