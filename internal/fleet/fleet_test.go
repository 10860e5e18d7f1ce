package fleet

import (
	"strings"
	"testing"

	"ofmf/internal/events"
	"ofmf/internal/odata"
)

func TestCheckSources(t *testing.T) {
	expected := map[string]bool{"h1": true, "h2": true, "h3": true}
	clean := map[odata.ID]string{"/s/1": "h1", "/s/2": "h2", "/s/3": "h3"}
	if v := checkSources(clean, expected); len(v) != 0 {
		t.Fatalf("clean set reported violations: %v", v)
	}
	dirty := map[odata.ID]string{
		"/s/1": "h1", "/s/2": "h1", // duplicate for h1
		"/s/3": "h2",
		"/s/4": "ghost-host", // nobody owns it
		// h3 missing
	}
	v := checkSources(dirty, expected)
	if len(v) != 3 {
		t.Fatalf("want 3 violations, got %d: %v", len(v), v)
	}
	joined := strings.Join(v, "\n")
	for _, want := range []string{"duplicate sources for host h1", "ghost source", "missing source for host h3"} {
		if !strings.Contains(joined, want) {
			t.Errorf("violations missing %q:\n%s", want, joined)
		}
	}
}

func TestCheckClaims(t *testing.T) {
	sources := map[odata.ID]storedSource{
		"/s/1": {host: "h1", claims: []odata.ID{"/f/1"}},
		"/s/2": {host: "h2", claims: []odata.ID{"/f/2"}},
		"/s/3": {host: "h3"},
	}
	forward := map[odata.ID]string{"/f/1": "h1", "/f/2": "h2"}
	if v := checkClaims(sources, forward); len(v) != 0 {
		t.Fatalf("one holder per subtree reported violations: %v", v)
	}
	sources["/s/3"] = storedSource{host: "h3", claims: []odata.ID{"/f/1"}} // a second source
	forward["/f/2"] = "h-old"                                              // a stale target
	forward["/f/9"] = "h9"                                                 // nobody claims it
	v := checkClaims(sources, forward)
	if len(v) != 3 {
		t.Fatalf("want 3 violations, got %d: %v", len(v), v)
	}
	joined := strings.Join(v, "\n")
	for _, want := range []string{"/f/1 claimed by several sources", "/f/2 of source /s/2 at h2 is forwarded to \"h-old\"", "ghost forwarding of unclaimed subtree /f/9"} {
		if !strings.Contains(joined, want) {
			t.Errorf("violations missing %q:\n%s", want, joined)
		}
	}
}

func TestCheckConservation(t *testing.T) {
	base := events.Stats{Published: 10, Delivered: 30, Failed: 1, Dropped: 2, DroppedClosed: 3}
	// 90 publishes × 2 subs = 180, split across the four outcome counters.
	end := events.Stats{Published: 100, Delivered: 30 + 170, Failed: 1 + 4, Dropped: 2 + 5, DroppedClosed: 3 + 1}
	if v := checkConservation(base, end, 2); len(v) != 0 {
		t.Fatalf("balanced ledger reported violations: %v", v)
	}
	end.Delivered++ // one phantom delivery
	if v := checkConservation(base, end, 2); len(v) != 1 {
		t.Fatalf("unbalanced ledger not caught: %v", v)
	}
}

func TestCheckAgentLedger(t *testing.T) {
	ok := agentReceipt{count: 7}
	if v := checkAgentLedger(3, 10, 7, 2, 1, ok); len(v) != 0 {
		t.Fatalf("balanced agent ledger reported violations: %v", v)
	}
	// emitted != delivered + dropped + backlog
	if v := checkAgentLedger(3, 11, 7, 2, 1, ok); len(v) != 1 {
		t.Fatalf("spool ledger break not caught: %v", v)
	}
	// receiver saw fewer than the spool claims it delivered
	if v := checkAgentLedger(3, 10, 7, 2, 1, agentReceipt{count: 6}); len(v) != 1 {
		t.Fatalf("receipt mismatch not caught: %v", v)
	}
	if v := checkAgentLedger(3, 10, 7, 2, 1, agentReceipt{count: 7, dups: 1, orderViols: 2}); len(v) != 2 {
		t.Fatalf("dup/order breaks not caught: %v", v)
	}
}

func TestCheckLiveness(t *testing.T) {
	got := map[odata.ID]int{"/s/1": 0, "/s/2": 1}
	want := map[odata.ID]int{"/s/1": 0, "/s/2": 1}
	if v := checkLiveness(got, want); len(v) != 0 {
		t.Fatalf("converged state reported violations: %v", v)
	}
	got["/s/2"] = 2  // wrong level
	got["/s/3"] = 0  // ghost track
	want["/s/4"] = 1 // lost source
	if v := checkLiveness(got, want); len(v) != 3 {
		t.Fatalf("want 3 violations, got %d: %v", len(v), v)
	}
}

func TestParseFleetEventID(t *testing.T) {
	idx, seq, ok := parseFleetEventID("f00042-000007")
	if !ok || idx != 42 || seq != 7 {
		t.Fatalf("parse: got (%d,%d,%v)", idx, seq, ok)
	}
	for _, bad := range []string{"", "liveness-3", "f0042-000007", "x00042-000007", "f00042_000007"} {
		if _, _, ok := parseFleetEventID(bad); ok {
			t.Errorf("parsed junk id %q", bad)
		}
	}
}

// runScenario stands up a small fleet and runs one scenario to a clean
// converged end state.
func runScenario(t *testing.T, name string, agents int, seed int64) Result {
	t.Helper()
	opts := Options{Agents: agents, Seed: seed}
	if name == "killrecover" {
		opts.PersistDir = t.TempDir()
	}
	f, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sc, err := Scenario(name)
	if err != nil {
		t.Fatalf("Scenario(%s): %v", name, err)
	}
	res, err := f.Run(sc)
	if err != nil {
		t.Fatalf("%s: harness error: %v", name, err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s: invariant violated: %s", name, v)
	}
	return res
}

// TestFleetSmallChaos drives every scenario with a 100-agent fleet —
// the deterministic CI-gate configuration (make chaossmoke runs the
// same shape under -race via cmd/ofmfchaos).
func TestFleetSmallChaos(t *testing.T) {
	for _, name := range ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			res := runScenario(t, name, 100, 42)
			if res.EventsPublished == 0 {
				t.Errorf("%s: no events published", name)
			}
			if res.RegistrationPerSec <= 0 {
				t.Errorf("%s: registration rate not measured", name)
			}
		})
	}
}

// TestFleetDeterministic runs the partition scenario twice with one
// seed and requires identical virtual-time outcomes: same events
// published, same convergence cost in virtual seconds.
func TestFleetDeterministic(t *testing.T) {
	a := runScenario(t, "partition", 60, 7)
	b := runScenario(t, "partition", 60, 7)
	if a.EventsPublished != b.EventsPublished {
		t.Errorf("events published diverged: %d vs %d", a.EventsPublished, b.EventsPublished)
	}
	if a.ConvergenceVirtualS != b.ConvergenceVirtualS {
		t.Errorf("virtual convergence diverged: %v vs %v", a.ConvergenceVirtualS, b.ConvergenceVirtualS)
	}
}

func TestFleetRequiresSeed(t *testing.T) {
	if _, err := New(Options{Agents: 1}); err == nil {
		t.Fatal("fleet accepted a zero seed")
	}
}

func TestKillRecoverRequiresPersistDir(t *testing.T) {
	f, err := New(Options{Agents: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(KillRecoverScript()); err == nil {
		t.Fatal("killrecover ran without a persistence directory")
	}
}
