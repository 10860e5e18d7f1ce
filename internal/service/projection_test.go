package service

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ofmf/internal/events"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/sessions"
	"ofmf/internal/store"
	"ofmf/internal/store/persist"
	"ofmf/internal/telemetry"
)

// hook is a webhook receiver that records every event record delivered
// to it and answers status.
type hook struct {
	url    string
	status int

	mu  sync.Mutex
	got []redfish.EventRecord
}

func newHook(t *testing.T, status int) *hook {
	t.Helper()
	h := &hook{status: status}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ev redfish.Event
		_ = json.NewDecoder(r.Body).Decode(&ev)
		h.mu.Lock()
		h.got = append(h.got, ev.Events...)
		h.mu.Unlock()
		w.WriteHeader(h.status)
	}))
	t.Cleanup(srv.Close)
	h.url = srv.URL
	return h
}

func (h *hook) records() []redfish.EventRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]redfish.EventRecord(nil), h.got...)
}

// settle waits until the hook has n records, then a little longer, and
// returns everything it got: a duplicate shows up as more than n.
func (h *hook) settle(t *testing.T, n int) []redfish.EventRecord {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for len(h.records()) < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	return h.records()
}

func eventID(t *testing.T, rec redfish.EventRecord) uint64 {
	t.Helper()
	id, err := strconv.ParseUint(rec.EventID, 10, 64)
	if err != nil {
		t.Fatalf("EventId %q is not a sequence number", rec.EventID)
	}
	return id
}

// boot starts a service over dir the way cmd/ofmf does: recover the
// tree, then log every mutation.
func boot(t *testing.T, dir string, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	b, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := b.Recover(svc.Store())
	if err != nil {
		t.Fatal(err)
	}
	svc.Store().AttachBackend(b, stats.LastSeq)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Bus().Close()
	})
	return svc, srv
}

// kill stops a booted service as SIGKILL would: nothing is flushed or
// compacted. Its bus stops only so the dead process delivers no more.
func kill(svc *Service, srv *httptest.Server) {
	srv.Close()
	svc.Bus().Close()
}

func postSub(t *testing.T, base string, dest redfish.EventDestination) odata.ID {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, base+string(SubscriptionsURI), dest, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("subscribe = %d: %s", resp.StatusCode, body)
	}
	return odata.ID(resp.Header.Get("Location"))
}

func putSystem(t *testing.T, svc *Service, name, state string) odata.ID {
	t.Helper()
	id := SystemsURI.Append(name)
	if err := svc.Store().Put(id, map[string]any{"@odata.id": string(id), "Name": name, "PowerState": state}); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestSubscriptionDeleteLeavesSSEStreams: an SSE stream is an
// in-process bus subscription with no resource, so DELETE of
// Subscriptions/1 must not find it — it used to answer 204 and kill
// the stream, whose bus id was "1".
func TestSubscriptionDeleteLeavesSSEStreams(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	resp, err := http.Get(srv.URL + string(SSEURI))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	deadline := time.Now().Add(2 * time.Second)
	for len(svc.Bus().Subscriptions()) == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	del, body := doJSON(t, http.MethodDelete, srv.URL+string(SubscriptionsURI.Append("1")), nil, nil)
	if del.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE Subscriptions/1 with only an SSE stream open = %d, want 404: %s", del.StatusCode, body)
	}
	svc.Bus().Publish(events.Record(redfish.EventAlert, "1", "still streaming", ""))
	frame := make(chan bool, 1)
	go func() {
		reader := bufio.NewReader(resp.Body)
		for {
			line, err := reader.ReadString('\n')
			if err != nil {
				frame <- false
				return
			}
			if strings.HasPrefix(line, "data: ") {
				frame <- true
				return
			}
		}
	}()
	select {
	case ok := <-frame:
		if !ok {
			t.Fatal("SSE stream ended after the DELETE")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no SSE frame after the DELETE")
	}
}

// TestSubscriptionDeleteAfterRestart: a stored subscription is still a
// subscription after a restart, so its DELETE answers 204 and removes
// the resource — it used to answer 404 and leave the resource behind.
func TestSubscriptionDeleteAfterRestart(t *testing.T) {
	h := newHook(t, http.StatusNoContent)
	dir := t.TempDir()
	svc, srv := boot(t, dir, Config{})
	sub := postSub(t, srv.URL, redfish.EventDestination{Destination: h.url})
	kill(svc, srv)

	svc, srv = boot(t, dir, Config{})
	resp, body := doJSON(t, http.MethodDelete, srv.URL+string(sub), nil, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE %s after restart = %d, want 204: %s", sub, resp.StatusCode, body)
	}
	if resp, _ := doJSON(t, http.MethodGet, srv.URL+string(sub), nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET %s after DELETE = %d, want 404", sub, resp.StatusCode)
	}
	if ids := svc.Bus().Subscriptions(); len(ids) != 0 {
		t.Errorf("bus still holds %v", ids)
	}
}

// TestSubscriptionSurvivesRestart: subscribe, SIGKILL, recover, PATCH.
// The PATCH is delivered exactly once, under an EventId that is its
// commit sequence and so above every one delivered before the kill, and
// the next POST takes a fresh id instead of overwriting the recovered
// subscription.
func TestSubscriptionSurvivesRestart(t *testing.T) {
	h := newHook(t, http.StatusNoContent)
	dir := t.TempDir()
	cfg := Config{DirectWrites: true}
	svc, srv := boot(t, dir, cfg)
	sub := postSub(t, srv.URL, redfish.EventDestination{
		Destination: h.url, EventTypes: []string{redfish.EventResourceUpdated}, Context: "restart",
	})
	sys := putSystem(t, svc, "S1", "Off")
	for _, state := range []string{"On", "Off"} {
		if resp, body := doJSON(t, http.MethodPatch, srv.URL+string(sys), map[string]any{"PowerState": state}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("PATCH = %d: %s", resp.StatusCode, body)
		}
	}
	before := h.settle(t, 2)
	if len(before) != 2 {
		t.Fatalf("before the kill: %d deliveries, want 2", len(before))
	}
	kill(svc, srv)

	svc, srv = boot(t, dir, cfg)
	if ids := svc.Bus().Subscriptions(); len(ids) != 1 || ids[0] != sub.Leaf() {
		t.Fatalf("recovered bus subscriptions = %v, want [%s]", ids, sub.Leaf())
	}
	if resp, body := doJSON(t, http.MethodPatch, srv.URL+string(sys), map[string]any{"PowerState": "On"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH after restart = %d: %s", resp.StatusCode, body)
	}
	got := h.settle(t, 3)
	if len(got) != 3 {
		t.Fatalf("after the restart: %d deliveries in all, want 3: %+v", len(got), got)
	}
	last := got[2]
	if last.OriginOfCondition == nil || last.OriginOfCondition.ODataID != sys {
		t.Fatalf("post-restart delivery is about %+v, want %s", last.OriginOfCondition, sys)
	}
	if got, want := eventID(t, last), svc.Store().Seq(); got != want {
		t.Errorf("post-restart EventId %d, want the PATCH's commit sequence %d", got, want)
	}
	for _, rec := range before {
		if eventID(t, last) <= eventID(t, rec) {
			t.Errorf("post-restart EventId %s is not above pre-kill EventId %s", last.EventID, rec.EventID)
		}
	}
	if next := postSub(t, srv.URL, redfish.EventDestination{Destination: h.url}); next == sub {
		t.Errorf("POST after restart reused %s", sub)
	}
	var stored redfish.EventDestination
	if err := svc.Store().GetAs(sub, &stored); err != nil || stored.Context != "restart" {
		t.Errorf("recovered subscription overwritten: %+v (%v)", stored, err)
	}
}

// TestSubscriptionPatchRefilters: the bus follows the stored resource,
// so a PATCH of EventTypes changes what the destination receives.
func TestSubscriptionPatchRefilters(t *testing.T) {
	h := newHook(t, http.StatusNoContent)
	svc, srv := newTestServer(t, Config{})
	sub := postSub(t, srv.URL, redfish.EventDestination{Destination: h.url, EventTypes: []string{redfish.EventResourceAdded}})
	a := putSystem(t, svc, "A", "Off")
	if got := h.settle(t, 1); len(got) != 1 || got[0].EventType != redfish.EventResourceAdded {
		t.Fatalf("before the PATCH: %+v, want one ResourceAdded", got)
	}
	if resp, body := doJSON(t, http.MethodPatch, srv.URL+string(sub),
		map[string]any{"EventTypes": []string{redfish.EventResourceUpdated}}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH EventTypes = %d: %s", resp.StatusCode, body)
	}
	putSystem(t, svc, "B", "Off") // added: no longer wanted
	putSystem(t, svc, "A", "On")  // updated: now wanted
	got := h.settle(t, 2)
	if len(got) != 2 || got[1].EventType != redfish.EventResourceUpdated || got[1].OriginOfCondition.ODataID != a {
		t.Fatalf("after the PATCH: %+v, want the ResourceUpdated of %s only", got, a)
	}
}

// TestFailingSubscriptionDeletedMidRetry: a failing destination makes
// the bus workers PATCH the subscription's health, which re-enters the
// subscription projection from a worker while PATCHes that replace the
// bus subscription, and finally DELETEs, go through it from the request
// side. Neither may wait for the other.
func TestFailingSubscriptionDeletedMidRetry(t *testing.T) {
	h := newHook(t, http.StatusBadGateway)
	svc, srv := newTestServer(t, Config{Events: events.Config{RetryAttempts: 1, RetryInterval: time.Millisecond}})
	var subs []odata.ID
	for i := 0; i < 4; i++ {
		subs = append(subs, postSub(t, srv.URL, redfish.EventDestination{Destination: h.url}))
	}
	stop := make(chan struct{})
	published := make(chan struct{})
	go func() {
		defer close(published)
		for {
			select {
			case <-stop:
				return
			default:
				svc.Bus().Publish(events.Record(redfish.EventAlert, "x", "m", ""))
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	// Count abandoned deliveries, not hook hits: the sink's circuit
	// breaker soon stops the POSTs, not the failures.
	for svc.Bus().Stats().Failed < 8 {
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 20; round++ {
			types := []string{redfish.EventAlert}
			if round%2 == 0 {
				types = append(types, redfish.EventStatusChange)
			}
			for _, sub := range subs {
				if resp, body := doJSON(t, http.MethodPatch, srv.URL+string(sub), map[string]any{"EventTypes": types}, nil); resp.StatusCode != http.StatusOK {
					t.Errorf("PATCH %s = %d: %s", sub, resp.StatusCode, body)
				}
			}
		}
		for _, sub := range subs {
			if resp, body := doJSON(t, http.MethodDelete, srv.URL+string(sub), nil, nil); resp.StatusCode != http.StatusNoContent {
				t.Errorf("DELETE %s = %d: %s", sub, resp.StatusCode, body)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("PATCH or DELETE of a failing subscription deadlocked")
	}
	close(stop)
	<-published
	if ids := svc.Bus().Subscriptions(); len(ids) != 0 {
		t.Errorf("bus still holds %v", ids)
	}
}

// TestTaskAfterRestartKeepsStoredTask: task ids come from the
// collection, so a task started after a restart does not overwrite the
// Tasks/1 the previous run left.
func TestTaskAfterRestartKeepsStoredTask(t *testing.T) {
	dir := t.TempDir()
	svc, srv := boot(t, dir, Config{})
	first := svc.Tasks().Start("before")
	if err := first.Complete("done"); err != nil {
		t.Fatal(err)
	}
	want, _, err := svc.Store().Get(first.URI())
	if err != nil {
		t.Fatal(err)
	}
	kill(svc, srv)

	svc, _ = boot(t, dir, Config{})
	next := svc.Tasks().Start("after")
	if next.URI() == first.URI() {
		t.Fatalf("task after restart reused %s", first.URI())
	}
	if got, _, err := svc.Store().Get(first.URI()); err != nil || !bytes.Equal(got, want) {
		t.Errorf("stored %s changed across the restart: %s -> %s (%v)", first.URI(), want, got, err)
	}
}

// lockedBuffer is a log sink safe for the service's concurrent writers.
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

// TestSessionTokenSurvivesRestart: the stored Session is the session,
// so a token validates after a restart and on a caught-up replica — and
// the token itself is in no stored payload, WAL byte, log line or GET
// body, only its SHA-256 is.
func TestSessionTokenSurvivesRestart(t *testing.T) {
	logs := &lockedBuffer{}
	cfg := Config{
		Credentials: sessions.StaticCredentials(map[string]string{"admin": "pw"}),
		Logger:      slog.New(slog.NewTextHandler(logs, &slog.HandlerOptions{Level: slog.LevelDebug})),
	}
	dir := t.TempDir()
	svc, srv := boot(t, dir, cfg)
	resp, body := doJSON(t, http.MethodPost, srv.URL+string(SessionsURI),
		map[string]string{"UserName": "admin", "Password": "pw"}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("login = %d: %s", resp.StatusCode, body)
	}
	token, loc := resp.Header.Get("X-Auth-Token"), resp.Header.Get("Location")
	auth := map[string]string{"X-Auth-Token": token}
	resp, body = doJSON(t, http.MethodGet, srv.URL+loc, nil, auth)
	if resp.StatusCode != http.StatusOK || bytes.Contains(body, []byte(token)) {
		t.Fatalf("GET %s = %d, token in body %v: %s", loc, resp.StatusCode, bytes.Contains(body, []byte(token)), body)
	}
	kill(svc, srv)

	svc, srv = boot(t, dir, cfg)
	if resp, _ := doJSON(t, http.MethodGet, srv.URL+string(SystemsURI), nil, auth); resp.StatusCode != http.StatusOK {
		t.Errorf("token after restart = %d, want 200", resp.StatusCode)
	}
	// A replica catches up from its leader's snapshot, as a new replica
	// does, and serves reads locally.
	snap, err := svc.Store().Cut()
	if err != nil {
		t.Fatal(err)
	}
	replica, rsrv := newTestServer(t, cfg)
	if err := replica.Store().Import(snap.Resources); err != nil {
		t.Fatal(err)
	}
	replica.SetReplicaMode(func() string { return srv.URL })
	if resp, _ := doJSON(t, http.MethodGet, rsrv.URL+string(SystemsURI), nil, auth); resp.StatusCode != http.StatusOK {
		t.Errorf("leader's token on a caught-up replica = %d, want 200", resp.StatusCode)
	}

	if strings.Contains(logs.String(), token) {
		t.Error("the session token reached the log")
	}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err == nil && bytes.Contains(data, []byte(token)) {
			t.Errorf("the session token is stored in %s", filepath.Base(path))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// follower is a durability backend that applies every committed record
// to a second store, in commit order, as a replica's stream does.
type follower struct{ st *store.Store }

func (f follower) Append(batch []store.Record) func() error {
	for _, rec := range batch {
		_ = f.st.Apply(rec)
	}
	return nil
}

func (follower) Close() error { return nil }

// TestReplicaStaysSilent: a replica holds its leader's subscriptions so
// they are live the moment it is promoted, but while it follows it
// announces nothing — not a local Put, not a telemetry tick, either of
// which would otherwise reach every destination twice.
func TestReplicaStaysSilent(t *testing.T) {
	h := newHook(t, http.StatusNoContent)
	leader, lsrv := newTestServer(t, Config{})
	replica, _ := newTestServer(t, Config{})
	leader.Store().AttachBackend(follower{replica.Store()}, 0)
	replica.SetReplicaMode(func() string { return lsrv.URL })
	postSub(t, lsrv.URL, redfish.EventDestination{Destination: h.url})
	if ids := replica.Bus().Subscriptions(); len(ids) != 1 {
		t.Fatalf("replica bus subscriptions = %v, want the leader's one", ids)
	}

	putSystem(t, replica, "local", "On")
	telem := telemetry.NewService(TelemetryServiceURI,
		func(id odata.ID, res any) { _ = replica.Store().Put(id, res) }, replica.Publish)
	if err := telem.DefineReport("tick", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := telem.Generate("tick"); err != nil {
		t.Fatal(err)
	}
	if got := h.settle(t, 0); len(got) != 0 {
		t.Fatalf("a following replica delivered %d events: %+v", len(got), got)
	}

	replica.ClearReplicaMode()
	promoted := putSystem(t, replica, "promoted", "On")
	got := h.settle(t, 1)
	if len(got) != 1 || got[0].OriginOfCondition == nil || got[0].OriginOfCondition.ODataID != promoted {
		t.Fatalf("after ClearReplicaMode: %+v, want one event about %s", got, promoted)
	}
}

// TestSessionIsNotPatchable: Validate trusts the stored Session, so no
// generic write may change one. Were it patchable under DirectWrites, a
// token holder could move CreatedTime forward to keep the token alive
// forever, or install a token hash of its own choosing.
func TestSessionIsNotPatchable(t *testing.T) {
	const timeout = time.Second
	_, srv := newTestServer(t, Config{
		DirectWrites:   true,
		Credentials:    sessions.StaticCredentials(map[string]string{"admin": "pw"}),
		SessionTimeout: timeout,
	})
	resp, body := doJSON(t, http.MethodPost, srv.URL+string(SessionsURI),
		map[string]string{"UserName": "admin", "Password": "pw"}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("login = %d: %s", resp.StatusCode, body)
	}
	loggedIn := time.Now()
	loc := resp.Header.Get("Location")
	auth := map[string]string{"X-Auth-Token": resp.Header.Get("X-Auth-Token")}
	_, before := doJSON(t, http.MethodGet, srv.URL+loc, nil, auth)

	for _, patch := range []map[string]any{
		{"CreatedTime": "2999-01-01T00:00:00Z"},
		{"Oem": map[string]any{"OFMF": map[string]any{"TokenSHA256": strings.Repeat("0", 64)}}},
	} {
		if resp, body := doJSON(t, http.MethodPatch, srv.URL+loc, patch, auth); resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("PATCH %v = %d, want 405: %s", patch, resp.StatusCode, body)
		}
	}
	push := SubtreePayload{Prefix: odata.ID(loc), Resources: map[odata.ID]json.RawMessage{
		odata.ID(loc): json.RawMessage(`{"CreatedTime":"2999-01-01T00:00:00Z"}`),
	}}
	if resp, body := doJSON(t, http.MethodPost, srv.URL+string(SubtreeOemURI), push, auth); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("subtree push over a session = %d, want 400: %s", resp.StatusCode, body)
	}
	if _, after := doJSON(t, http.MethodGet, srv.URL+loc, nil, auth); !bytes.Equal(before, after) {
		t.Errorf("session changed:\n%s\n%s", before, after)
	}

	time.Sleep(time.Until(loggedIn.Add(timeout + 50*time.Millisecond)))
	if resp, _ := doJSON(t, http.MethodGet, srv.URL+string(SystemsURI), nil, auth); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("token past CreatedTime + SessionTimeout = %d, want 401", resp.StatusCode)
	}
}

// TestSubscriptionPatchRefusesBadDestination: a PATCH is checked as a
// POST is. Stored, a Destination no delivery could reach, or a filter of
// the wrong type, would drop the bus subscription while the resource
// still read OK.
func TestSubscriptionPatchRefusesBadDestination(t *testing.T) {
	h := newHook(t, http.StatusNoContent)
	svc, srv := newTestServer(t, Config{})
	sub := postSub(t, srv.URL, redfish.EventDestination{Destination: h.url})
	for _, patch := range []map[string]any{{"Destination": "ftp://x"}, {"Destination": nil}, {"EventTypes": 5}} {
		if resp, body := doJSON(t, http.MethodPatch, srv.URL+string(sub), patch, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("PATCH %v = %d, want 400: %s", patch, resp.StatusCode, body)
		}
	}
	a := putSystem(t, svc, "A", "On")
	if got := h.settle(t, 1); len(got) != 1 || got[0].OriginOfCondition == nil || got[0].OriginOfCondition.ODataID != a {
		t.Fatalf("after the refused PATCHes: %+v, want one event about %s", got, a)
	}
}

// TestAdminRestoreLeavesSessions: an admin tree restore never installs
// or removes a Session. The dump holds a forged one (the hash of a token
// its author chose, created far in the future) and lacks the live one:
// it restores with 204, the forged token is refused, and the live token
// still validates.
func TestAdminRestoreLeavesSessions(t *testing.T) {
	_, srv := newTestServer(t, Config{Credentials: sessions.StaticCredentials(map[string]string{"admin": "pw"})})
	resp, body := doJSON(t, http.MethodPost, srv.URL+string(SessionsURI),
		map[string]string{"UserName": "admin", "Password": "pw"}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("login = %d: %s", resp.StatusCode, body)
	}
	live := map[string]string{"X-Auth-Token": resp.Header.Get("X-Auth-Token")}
	resp, body = doJSON(t, http.MethodGet, srv.URL+string(AdminTreeOemURI), nil, live)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dump = %d: %s", resp.StatusCode, body)
	}
	var dump map[odata.ID]json.RawMessage
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatal(err)
	}
	for id := range dump {
		if id.Parent() == SessionsURI {
			delete(dump, id)
		}
	}
	forgedURI := SessionsURI.Append("99")
	sum := sha256.Sum256([]byte("forged"))
	forged := redfish.Session{
		Resource:    odata.NewResource(forgedURI, redfish.TypeSession, "Session 99"),
		UserName:    "admin",
		CreatedTime: "2999-01-01T00:00:00Z",
		Oem:         &redfish.SessionOem{},
	}
	forged.Oem.OFMF.TokenSHA256 = hex.EncodeToString(sum[:])
	raw, err := json.Marshal(forged)
	if err != nil {
		t.Fatal(err)
	}
	dump[forgedURI] = raw

	if resp, body := doJSON(t, http.MethodPost, srv.URL+string(AdminTreeOemURI), dump, live); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("restore = %d: %s", resp.StatusCode, body)
	}
	if resp, _ := doJSON(t, http.MethodGet, srv.URL+string(SystemsURI), nil, map[string]string{"X-Auth-Token": "forged"}); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("forged token after restore = %d, want 401", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodGet, srv.URL+string(SystemsURI), nil, live); resp.StatusCode != http.StatusOK {
		t.Errorf("live token after restore = %d, want 200", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodGet, srv.URL+string(forgedURI), nil, live); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET %s after restore = %d, want 404", forgedURI, resp.StatusCode)
	}
}
