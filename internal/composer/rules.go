package composer

import (
	"context"
	"slices"
	"strings"
	"sync"

	"ofmf/internal/events"
	"ofmf/internal/redfish"
)

// Rule reacts to OFMF events — the paper's "dynamic provisioning of
// resources to maintain running client computations".
type Rule struct {
	// Name labels the rule in Fired() accounting.
	Name string
	// EventTypes lists the Redfish event types Matches can accept; the
	// engine subscribes to the bus for these types only, so an event of
	// any other type never reaches it. Empty means every type.
	EventTypes []string
	// Matches selects the events the rule reacts to.
	Matches func(rec redfish.EventRecord) bool
	// Action runs for each matching event.
	Action func(rec redfish.EventRecord)
}

// RuleEngine dispatches OFMF events to a rule set fixed when the engine
// is built. Bound to the bus, it receives only the event types its
// rules declare, and an engine with no rules does not subscribe at all:
// an event no rule can match costs the bus no delivery.
type RuleEngine struct {
	rules []Rule

	mu    sync.Mutex
	fired map[string]int
}

// NewRuleEngine creates an engine running rules.
func NewRuleEngine(rules ...Rule) *RuleEngine {
	return &RuleEngine{rules: rules, fired: make(map[string]int)}
}

// Fired reports how many times the named rule has triggered.
func (e *RuleEngine) Fired(name string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fired[name]
}

// Bind subscribes the engine to the bus for the union of its rules'
// event types (every type if any rule declares none). An engine with no
// rules leaves the bus untouched.
func (e *RuleEngine) Bind(bus *events.Bus) error {
	if len(e.rules) == 0 {
		return nil
	}
	var types []string
	for _, r := range e.rules {
		if len(r.EventTypes) == 0 {
			types = nil
			break
		}
		for _, t := range r.EventTypes {
			if !slices.Contains(types, t) {
				types = append(types, t)
			}
		}
	}
	_, err := bus.Subscribe(events.SinkFunc(func(_ context.Context, ev redfish.Event) error {
		for _, rec := range ev.Events {
			e.dispatch(rec)
		}
		return nil
	}), events.Filter{EventTypes: types}, "composability-rules")
	return err
}

// Dispatch runs the engine on one record directly (used by in-process
// publishers and tests).
func (e *RuleEngine) Dispatch(rec redfish.EventRecord) { e.dispatch(rec) }

// dispatch reads the rule set without a lock: it never changes after
// NewRuleEngine.
func (e *RuleEngine) dispatch(rec redfish.EventRecord) {
	for _, r := range e.rules {
		if r.Matches(rec) {
			e.mu.Lock()
			e.fired[r.Name]++
			e.mu.Unlock()
			r.Action(rec)
		}
	}
}

// MessageOutOfMemory is the alert message id the OOM mitigation rule
// listens for; workload managers publish it when a composition nears
// memory exhaustion.
const MessageOutOfMemory = "OFMF.1.0.OutOfMemory"

// OOMRule hot-adds stepMiB of fabric memory to the composition named in
// the event's MessageArgs[0] whenever an out-of-memory alert arrives.
func OOMRule(c *Composer, stepMiB int64) Rule {
	return Rule{
		Name:       "oom-hot-add",
		EventTypes: []string{redfish.EventAlert},
		Matches: func(rec redfish.EventRecord) bool {
			return rec.MessageID == MessageOutOfMemory && len(rec.MessageArgs) > 0
		},
		Action: func(rec redfish.EventRecord) {
			_ = c.HotAddMemory(rec.MessageArgs[0], stepMiB)
		},
	}
}

// LinkFailoverRule invokes onFailure for every fabric LinkDown alert — the
// hook point for network fail-over orchestration above what agents already
// re-route themselves.
func LinkFailoverRule(onFailure func(rec redfish.EventRecord)) Rule {
	return Rule{
		Name:       "link-failover",
		EventTypes: []string{redfish.EventAlert},
		Matches: func(rec redfish.EventRecord) bool {
			return strings.HasSuffix(rec.MessageID, "FabricLinkDown")
		},
		Action: onFailure,
	}
}
