package core_test

import (
	"testing"
	"time"

	"ofmf/internal/composer"
	"ofmf/internal/core"
	"ofmf/internal/events"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
)

// waitUntil polls cond for up to five seconds (bus delivery is
// asynchronous).
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// quiesce waits until the bus has no queued event and no delivery in
// flight.
func quiesce(t *testing.T, bus *events.Bus) {
	t.Helper()
	waitUntil(t, "the bus to drain", func() bool {
		p := bus.Pool()
		return p.Queued == 0 && p.Busy == 0
	})
}

func oomAlert(id, comp string) redfish.EventRecord {
	return redfish.EventRecord{
		EventType:   redfish.EventAlert,
		EventID:     id,
		Severity:    "Critical",
		MessageID:   composer.MessageOutOfMemory,
		MessageArgs: []string{comp},
	}
}

// TestDefaultTestbedHasNoSubscriptions: with no rule configured the rule
// engine stays off the bus, so a store mutation's event is delivered
// nowhere.
func TestDefaultTestbedHasNoSubscriptions(t *testing.T) {
	f, err := core.New(core.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if subs := f.Service.Bus().Subscriptions(); len(subs) != 0 {
		t.Fatalf("default testbed holds %d bus subscriptions, want 0", len(subs))
	}
	if _, err := f.Composer.Compose(composer.Request{Cores: 1}); err != nil {
		t.Fatal(err)
	}
	if st := f.Service.Bus().Stats(); st.Published == 0 || st.Delivered != 0 {
		t.Errorf("published %d, delivered %d: want some published and none delivered", st.Published, st.Delivered)
	}
}

// TestOOMRuleSubscribesToAlertsOnly: the OOM rule binds one subscription
// that admits Alert events and nothing else; an alert published on the
// bus (not handed to Dispatch) hot-adds the memory.
func TestOOMRuleSubscribesToAlertsOnly(t *testing.T) {
	f, err := core.New(core.Config{Nodes: 1, OOMHotAddMiB: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bus := f.Service.Bus()
	if subs := bus.Subscriptions(); len(subs) != 1 {
		t.Fatalf("bus subscriptions = %d, want 1", len(subs))
	}
	comp, err := f.Composer.Compose(composer.Request{Cores: 4, FabricMemoryMiB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// The CXL appliance announces the compose's chunk as Alerts; let
	// those land before taking the baseline.
	quiesce(t, bus)
	delivered := bus.Stats().Delivered

	// Delivery is FIFO per subscription: had the ResourceUpdated been
	// admitted, it would be delivered before the Alert behind it.
	bus.Publish(events.Record(redfish.EventResourceUpdated, "ru-1", "updated", service.SystemsURI.Append(comp.ID)))
	bus.Publish(events.Record(redfish.EventAlert, "probe-1", "probe", ""))
	waitUntil(t, "the probe's delivery", func() bool { return bus.Stats().Delivered > delivered })
	quiesce(t, bus)
	if got := bus.Stats().Delivered - delivered; got != 1 {
		t.Errorf("delivered %d events, want 1 (the Alert only)", got)
	}
	if got := f.Rules.Fired("oom-hot-add"); got != 0 {
		t.Errorf("oom-hot-add fired %d times before any OOM alert", got)
	}

	free := f.CXL.FreeMiB()
	bus.Publish(oomAlert("oom-1", comp.ID))
	waitUntil(t, "the OOM rule", func() bool { return f.Rules.Fired("oom-hot-add") == 1 })
	quiesce(t, bus) // the rule counts itself fired before its action runs
	if got := f.CXL.FreeMiB(); got != free-4096 {
		t.Errorf("CXL free = %d MiB, want %d", got, free-4096)
	}
}

// TestRuleWithoutEventTypesSeesEveryType: a rule that declares no types
// subscribes its engine to every event type.
func TestRuleWithoutEventTypesSeesEveryType(t *testing.T) {
	f, err := core.New(core.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := make(chan string, 16)
	eng := composer.NewRuleEngine(composer.Rule{
		Name:    "any",
		Matches: func(redfish.EventRecord) bool { return true },
		Action:  func(rec redfish.EventRecord) { seen <- rec.EventType },
	})
	if err := eng.Bind(f.Service.Bus()); err != nil {
		t.Fatal(err)
	}
	for _, typ := range []string{redfish.EventResourceUpdated, redfish.EventStatusChange, redfish.EventAlert} {
		f.Service.Bus().Publish(events.Record(typ, "e-"+typ, typ, ""))
		select {
		case got := <-seen:
			if got != typ {
				t.Errorf("rule saw %s, want %s", got, typ)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("rule never saw a %s event", typ)
		}
	}
}

// TestLinkFailoverRuleFiresThroughFabricAgent: a link failure in the
// fabric simulator becomes the fabric agent's LinkDown Alert on the bus,
// which reaches a LinkFailoverRule subscribed to Alerts only.
func TestLinkFailoverRuleFiresThroughFabricAgent(t *testing.T) {
	f, err := core.New(core.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	down := make(chan redfish.EventRecord, 1)
	eng := composer.NewRuleEngine(composer.LinkFailoverRule(func(rec redfish.EventRecord) { down <- rec }))
	if err := eng.Bind(f.Service.Bus()); err != nil {
		t.Fatal(err)
	}
	l := f.Fabric.Links()[0]
	if err := f.Fabric.FailLink(l.A, l.B); err != nil {
		t.Fatal(err)
	}
	select {
	case rec := <-down:
		if rec.EventType != redfish.EventAlert || rec.Severity != "Critical" {
			t.Errorf("LinkDown arrived as %s/%s, want Alert/Critical", rec.EventType, rec.Severity)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("link-failover never fired")
	}
	if got := eng.Fired("link-failover"); got != 1 {
		t.Errorf("link-failover fired %d times, want 1", got)
	}
}
