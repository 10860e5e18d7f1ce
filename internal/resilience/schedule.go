package resilience

import (
	"net/http"
	"sync"
	"time"
)

// FaultRule is one scripted fault condition applied to a request in
// place of a FaultTransport's static configuration. The zero rule is a
// healthy link: no latency, no failures.
type FaultRule struct {
	// ErrorRate in [0,1] is the probability the request fails with
	// ErrInjected before reaching the wire (link flap).
	ErrorRate float64
	// Latency is added before any other behaviour.
	Latency time.Duration
	// Deny fails every request immediately, like a connection refused
	// from a partitioned peer.
	Deny bool
	// BlackHole hangs the request until its context expires, like a
	// wedged peer.
	BlackHole bool
}

// ScriptedFaults is a keyed table of fault rules that a chaos scenario
// mutates as it runs: partition a set of agents (Deny), flap their
// links (ErrorRate), heal them (Clear), all without racing against the
// transports' own fields. Keys are chosen by the harness — one per
// agent, or one per network segment shared by many transports.
type ScriptedFaults struct {
	mu    sync.RWMutex
	rules map[string]FaultRule
}

// NewScriptedFaults returns an empty (all links healthy) schedule.
func NewScriptedFaults() *ScriptedFaults {
	return &ScriptedFaults{rules: make(map[string]FaultRule)}
}

// Set installs the rule for key, replacing any previous one.
func (s *ScriptedFaults) Set(key string, r FaultRule) {
	s.mu.Lock()
	s.rules[key] = r
	s.mu.Unlock()
}

// Clear heals the link for key.
func (s *ScriptedFaults) Clear(key string) {
	s.mu.Lock()
	delete(s.rules, key)
	s.mu.Unlock()
}

// ClearAll heals every link.
func (s *ScriptedFaults) ClearAll() {
	s.mu.Lock()
	s.rules = make(map[string]FaultRule)
	s.mu.Unlock()
}

// RuleFor returns the rule for key, if one is installed.
func (s *ScriptedFaults) RuleFor(key string) (FaultRule, bool) {
	s.mu.RLock()
	r, ok := s.rules[key]
	s.mu.RUnlock()
	return r, ok
}

// Active returns the number of keys with a rule installed.
func (s *ScriptedFaults) Active() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rules)
}

// Bind returns a FaultTransport.Rules hook that always consults key's
// rule, ignoring the request — the shape used when each agent has its
// own transport and the key identifies the agent.
func (s *ScriptedFaults) Bind(key string) func(*http.Request) (FaultRule, bool) {
	return func(*http.Request) (FaultRule, bool) { return s.RuleFor(key) }
}
