package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ofmf/internal/composer"
	"ofmf/internal/core"
	"ofmf/internal/obsv"
	"ofmf/internal/service"
	"ofmf/internal/store/repl"
)

// TestCollapsedStackReachesEveryHandler drives the request path the
// daemon serves — rootHandler in front of the testbed's one route lookup
// and one middleware, no mux anywhere — and checks every kind of
// endpoint still reaches its handler: the version document, the service
// root (with its trailing slash), the composer facade, /metrics, the
// replication protocol on a leader, and an SSE stream (which needs
// http.Flusher through the middleware). Composer requests are counted
// once, under class Composer; the uninstrumented endpoints not at all.
func TestCollapsedStackReachesEveryHandler(t *testing.T) {
	f, err := core.New(core.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewUnstartedServer(nil)
	node, err := repl.NewNode(repl.Config{
		Store:  f.Service.Store(),
		Self:   "http://" + srv.Listener.Addr().String(),
		Leader: true,
		Logger: obsv.NopLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := f.Service.Metrics().Registry()
	srv.Config.Handler = rootHandler(f.Handler(), reg.Handler(), node.Handler(), nil)
	srv.Start()
	defer srv.Close()
	node.Start()
	defer node.Stop()

	get := func(path string) (int, string, http.Header) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header
	}
	for _, tc := range []struct{ path, want string }{
		{"/redfish", `"v1":"/redfish/v1/"`},
		{"/redfish/v1/", `"RedfishVersion"`},
		{"/redfish/v1/Systems?$expand=.", `"Members":[{`},
		{"/composer/v1/Stats", `"FreeMemoryMiB"`},
		{"/metrics", "ofmf_http_requests_total"},
		{repl.PathPrefix + "status", `"Role":"leader"`},
	} {
		status, body, hdr := get(tc.path)
		if status != http.StatusOK || !strings.Contains(body, tc.want) {
			t.Errorf("GET %s = %d, body lacks %s: %.300s", tc.path, status, tc.want, body)
		}
		instrumented := hdr.Get(obsv.RequestIDHeader) != ""
		if want := strings.HasPrefix(tc.path, "/redfish") || strings.HasPrefix(tc.path, "/composer"); instrumented != want {
			t.Errorf("GET %s: passed the middleware = %v, want %v", tc.path, instrumented, want)
		}
	}
	// Endpoints that are off, and paths nobody owns (the facade's
	// included), are the app's 404.
	for _, path := range []string{"/debug/pprof/", "/nowhere", "/composer/v1/nowhere"} {
		if status, body, _ := get(path); status != http.StatusNotFound || !strings.Contains(body, "@Message.ExtendedInfo") {
			t.Errorf("GET %s = %d %.200s, want the Redfish 404", path, status, body)
		}
	}

	// SSE: the stream's first frame arrives while the request is open.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/redfish/v1/EventService/SSE", nil)
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := stream.Header.Get("Content-Type"); stream.StatusCode != http.StatusOK || !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("SSE = %d %q", stream.StatusCode, ct)
	}
	// A compose through the facade publishes the events the stream carries.
	resp, err := http.Post(srv.URL+"/composer/v1/Compose", "application/json",
		strings.NewReader(`{"Name":"stack","Cores":1,"FabricMemoryMiB":256}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		t.Errorf("POST /composer/v1/Compose = %d", resp.StatusCode)
	}
	line, err := bufio.NewReader(stream.Body).ReadString('\n')
	if err != nil || strings.TrimSpace(line) == "" {
		t.Fatalf("no SSE frame through the middleware: %q, %v", line, err)
	}
	cancel()
	stream.Body.Close()

	m := f.Service.Metrics()
	if got := m.HTTPRequests.With("POST", "Composer", "201").Value() + m.HTTPRequests.With("POST", "Composer", "200").Value(); got != 1 {
		t.Errorf("composer POST counted %v times, want once", got)
	}
	if got := m.HTTPRequests.With("GET", "Composer", "200").Value(); got != 1 {
		t.Errorf("composer GET counted %v times, want once", got)
	}
	for _, fam := range reg.Gather() {
		if fam.Name != "ofmf_http_requests_total" {
			continue
		}
		for _, s := range fam.Samples {
			// "Other" holds exactly the two 404 probes above: /metrics and
			// the replication protocol never reached the middleware.
			if class := s.LabelValues[1]; class == "Root" || (class == "Other" && (s.LabelValues[2] != "404" || s.Value != 2)) {
				t.Errorf("uninstrumented endpoint was counted: %v = %v", s.LabelValues, s.Value)
			}
		}
	}
}

// TestReplicaServesTheComposer assembles a leader with the testbed and a
// replica without, as the daemon does, and composes at the leader. The
// replica's composer follows the replicated tree, so it lists the
// leader's compositions from its own projection; a compose sent to the
// replica is a write, redirected to the leader.
func TestReplicaServesTheComposer(t *testing.T) {
	type member struct {
		f    *core.Framework
		srv  *httptest.Server
		node *repl.Node
	}
	nodes := make([]*member, 2)
	for i := range nodes {
		nodes[i] = &member{srv: httptest.NewUnstartedServer(nil)}
	}
	url := func(i int) string { return "http://" + nodes[i].srv.Listener.Addr().String() }
	for i, m := range nodes {
		f, err := core.Assemble(core.Config{Nodes: 2, Service: service.Config{Logger: obsv.NopLogger()}}, i == 0)
		if err != nil {
			t.Fatal(err)
		}
		node, err := repl.NewNode(repl.Config{
			Store:      f.Service.Store(),
			Self:       url(i),
			Peers:      []string{url(1 - i)},
			Leader:     i == 0,
			OnLeader:   func(uint64) { f.Service.ClearReplicaMode() },
			OnFollower: func(string) { f.Service.SetReplicaMode(func() string { return url(0) }) },
			Logger:     obsv.NopLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		m.f, m.node = f, node
		m.srv.Config.Handler = rootHandler(f.Handler(), nil, node.Handler(), nil)
		m.srv.Start()
	}
	for _, m := range nodes {
		m.node.Start()
	}
	defer func() {
		for _, m := range nodes {
			m.node.Stop()
			m.srv.CloseClientConnections()
			m.srv.Close()
			m.f.Close()
		}
	}()
	leader, replica := nodes[0], nodes[1]
	if _, err := leader.f.Composer.Compose(composer.Request{Name: "job", Cores: 4, FabricMemoryMiB: 1024}); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(leader.f.Composer.Compositions())
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(url(1) + "/composer/v1/Compositions")
		if err != nil {
			t.Fatal(err)
		}
		got, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && string(bytes.TrimSpace(got)) == string(want) {
			break
		}
	}
	if string(bytes.TrimSpace(got)) != string(want) {
		t.Fatalf("replica's compositions = %s, want the leader's %s", got, want)
	}

	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := noRedirect.Post(url(1)+"/composer/v1/Compose", "application/json", strings.NewReader(`{"Cores":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if loc := resp.Header.Get("Location"); resp.StatusCode != http.StatusTemporaryRedirect || loc != url(0)+"/composer/v1/Compose" {
		t.Errorf("compose at the replica = %s to %q, want 307 to the leader", resp.Status, loc)
	}
	if n := len(replica.f.Composer.Compositions()); n != 1 {
		t.Errorf("replica projects %d compositions after the redirect, want 1", n)
	}
}
