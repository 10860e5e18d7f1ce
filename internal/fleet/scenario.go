package fleet

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"time"

	"ofmf/internal/resilience"
	"ofmf/internal/service"
)

// Step is one scripted action against a running fleet. Steps run in
// order; a returned error aborts the scenario (harness failure), while
// invariant breaches are recorded via Fleet.violate and reported in the
// Result.
type Step struct {
	Name string
	Run  func(f *Fleet) error
}

// Script is a deterministic churn scenario: a named sequence of steps,
// optionally requiring WAL persistence.
type Script struct {
	Name    string
	Persist bool
	Steps   []Step
}

// ScenarioNames lists the built-in scenarios in canonical order.
func ScenarioNames() []string {
	return []string{"crash", "partition", "storm", "killrecover"}
}

// Scenario returns the named built-in script.
func Scenario(name string) (Script, error) {
	switch name {
	case "crash":
		return CrashScript(), nil
	case "partition":
		return PartitionScript(), nil
	case "storm":
		return StormScript(), nil
	case "killrecover":
		return KillRecoverScript(), nil
	default:
		return Script{}, fmt.Errorf("fleet: unknown scenario %q (have %v)", name, ScenarioNames())
	}
}

// CrashScript kills 20%% of the fleet, watches the sweeper walk the
// victims through Degraded to Unavailable while the survivors stay OK,
// then restarts them and requires full reconvergence.
func CrashScript() Script {
	var victims []*simAgent
	requireLevel := func(f *Fleet, want int, phase string) {
		snap := f.svc.Liveness().SourcesSnapshot()
		for _, a := range victims {
			uri, _ := a.groundTruth()
			if lvl, ok := snap[uri]; !ok || lvl != want {
				f.violate("crash/%s: victim %s at level %d (tracked %v), want %d", phase, uri, lvl, ok, want)
			}
		}
	}
	return Script{Name: "crash", Steps: []Step{
		{"warmup", func(f *Fleet) error {
			for i := 0; i < 2; i++ {
				f.beatRound(f.opts.Liveness.Interval)
				f.emitRound(1)
			}
			f.sweep()
			return nil
		}},
		{"crash-20pct", func(f *Fleet) error {
			victims = f.pickAgents(0.20)
			for _, a := range victims {
				a.crash()
			}
			return nil
		}},
		{"age-to-degraded", func(f *Fleet) error {
			// 4 intervals without victim beats pushes their age past
			// StaleAfter (3×) while survivors keep beating.
			for i := 0; i < 4; i++ {
				f.beatRound(f.opts.Liveness.Interval)
			}
			f.converge(12)
			requireLevel(f, service.LiveDegraded, "degraded")
			return nil
		}},
		{"age-to-unavailable", func(f *Fleet) error {
			for i := 0; i < 7; i++ {
				f.beatRound(f.opts.Liveness.Interval)
			}
			f.converge(12)
			requireLevel(f, service.LiveUnavailable, "unavailable")
			return nil
		}},
		{"restart", func(f *Fleet) error {
			if err := f.restartCrashed(); err != nil {
				return err
			}
			f.recordConvergence()
			requireLevel(f, service.LiveOK, "restarted")
			return nil
		}},
	}}
}

// PartitionScript cuts 30%% of the fleet off entirely (connection
// refused) and gives another 20%% a flapping link, runs churn rounds
// with event traffic spooling behind the partition, heals, and requires
// the spools to drain and liveness to reconverge.
func PartitionScript() Script {
	return Script{Name: "partition", Steps: []Step{
		{"partition", func(f *Fleet) error {
			picked := f.pickAgents(0.50)
			nDeny := len(picked) * 3 / 5 // 30% of fleet denied, 20% flapping
			for i, a := range picked {
				if i < nDeny {
					f.faults.Set(a.key, resilience.FaultRule{Deny: true})
				} else {
					// Latency stays zero: injected delays plus per-attempt
					// timeouts could fail a request the server already
					// processed, breaking the exactly-once receipt invariant.
					f.faults.Set(a.key, resilience.FaultRule{ErrorRate: 0.4})
				}
			}
			return nil
		}},
		{"churn", func(f *Fleet) error {
			for i := 0; i < 6; i++ {
				f.beatRound(f.opts.Liveness.Interval)
				f.emitRound(2)
				f.sweep()
			}
			return nil
		}},
		{"heal", func(f *Fleet) error {
			f.healAll()
			// The next successful beat doubles as the reconnect signal that
			// drains each agent's spool.
			f.beatRound(f.opts.Liveness.Interval)
			return nil
		}},
		{"converge", func(f *Fleet) error {
			f.recordConvergence()
			for _, a := range f.agents {
				if n := a.conn.EventBacklog(); n != 0 {
					f.violate("partition: agent %05d still spools %d events after heal", a.idx, n)
				}
			}
			return nil
		}},
	}}
}

// StormScript hammers the registration and heartbeat paths: heartbeat
// bursts, a full-fleet re-registration storm that must mint zero new
// sources, 10%% of the fleet re-registering from a new port (each must
// supersede its own source), delete-then-recreate churn on 5%% of
// sources, and an event burst — then requires the sweeper's index to
// match the store exactly.
func StormScript() Script {
	return Script{Name: "storm", Steps: []Step{
		{"beat-storm", func(f *Fleet) error {
			for i := 0; i < 3; i++ {
				f.beatRound(time.Second)
			}
			return nil
		}},
		{"reregister-storm", func(f *Fleet) error {
			rate, err := f.registerAll(false)
			if err != nil {
				return err
			}
			f.res.ReregistrationPerSec = rate
			sources, err := f.storedSources()
			if err != nil {
				return err
			}
			if len(sources) != len(f.agents) {
				f.violate("storm: re-registration changed source count: %d sources for %d agents", len(sources), len(f.agents))
			}
			return nil
		}},
		{"port-churn-10pct", func(f *Fleet) error {
			vnow := f.clock.Now()
			for _, a := range f.pickAgents(0.10) {
				old, _ := a.groundTruth()
				a.rehost()
				if err := a.register(vnow); err != nil {
					return fmt.Errorf("re-register %s: %w", a.host, err)
				}
				if cur, _ := a.groundTruth(); cur != old {
					f.violate("storm: %s re-registered from a new port as %s, want its source %s", a.key, cur, old)
				}
			}
			return nil
		}},
		{"delete-recreate-5pct", func(f *Fleet) error {
			vnow := f.clock.Now()
			for _, a := range f.pickAgents(0.05) {
				old, _ := a.groundTruth()
				if err := f.svc.Store().Delete(old); err != nil {
					return fmt.Errorf("delete %s: %w", old, err)
				}
				if err := a.register(vnow); err != nil {
					return fmt.Errorf("recreate %s: %w", a.host, err)
				}
				if cur, _ := a.groundTruth(); cur == old {
					f.violate("storm: recreate of %s reused deleted URI %s", a.host, old)
				}
			}
			return nil
		}},
		{"event-burst", func(f *Fleet) error {
			f.emitRound(5)
			return nil
		}},
		{"converge", func(f *Fleet) error {
			f.recordConvergence()
			// The sweeper's index must mirror the store exactly — stale
			// deadlines from deleted incarnations must be gone.
			sources, err := f.storedSources()
			if err != nil {
				return err
			}
			if snap := f.svc.Liveness().SourcesSnapshot(); len(snap) != len(sources) {
				f.violate("storm: sweeper tracks %d sources, store holds %d", len(snap), len(sources))
			}
			return nil
		}},
	}}
}

// KillRecoverScript kills the OFMF mid-flight (no graceful shutdown, no
// final snapshot), boots a fresh incarnation that must rebuild the
// whole fleet's state from real WAL replay byte-for-byte — its stored
// webhook subscriptions live on the bus again — then rides out a
// full-fleet re-registration storm from agents that never heard the
// OFMF died.
func KillRecoverScript() Script {
	const hooks = 3
	var preSeq uint64
	var preExport []byte
	var hookIDs []string
	return Script{Name: "killrecover", Persist: true, Steps: []Step{
		{"subscribe", func(f *Fleet) error {
			for i := 0; i < hooks; i++ {
				id, err := f.subscribeWebhook()
				if err != nil {
					return err
				}
				hookIDs = append(hookIDs, id)
			}
			return nil
		}},
		{"traffic", func(f *Fleet) error {
			for i := 0; i < 2; i++ {
				f.beatRound(f.opts.Liveness.Interval)
				f.emitRound(2)
			}
			f.sweep()
			return nil
		}},
		{"kill", func(f *Fleet) error {
			// Settle and snapshot the ledger first: incarnation counters die
			// with the bus.
			f.checkConservationNow()
			preSeq = f.svc.Store().Seq()
			var err error
			if preExport, err = f.svc.Store().Export(); err != nil {
				return err
			}
			f.kill()
			return nil
		}},
		{"recover", func(f *Fleet) error {
			start := time.Now()
			stats, err := f.boot()
			if err != nil {
				return err
			}
			f.res.RecoveryMs = float64(time.Since(start)) / float64(time.Millisecond)
			f.res.RecoveryReplayed = stats.Replayed
			if stats.Replayed < len(f.agents) {
				f.violate("killrecover: only %d WAL records replayed for %d agents", stats.Replayed, len(f.agents))
			}
			if stats.LastSeq != preSeq {
				f.violate("killrecover: WAL sequence diverged: pre-kill %d, recovered %d", preSeq, stats.LastSeq)
			}
			ex, err := f.svc.Store().Export()
			if err != nil {
				return err
			}
			if !bytes.Equal(ex, preExport) {
				f.violate("killrecover: recovered store differs from pre-kill state (%d bytes vs %d)", len(ex), len(preExport))
			}
			onBus := f.svc.Bus().Subscriptions()
			for _, id := range hookIDs {
				if !slices.Contains(onBus, id) {
					f.violate("killrecover: stored subscription %s is not on the recovered bus", id)
				}
			}
			id, err := f.subscribeWebhook()
			if err != nil {
				return err
			}
			if want := strconv.Itoa(hooks + 1); id != want {
				f.violate("killrecover: subscription after recovery got id %s, want %s", id, want)
			}
			return nil
		}},
		{"mass-reregister", func(f *Fleet) error {
			rate, err := f.registerAll(false)
			if err != nil {
				return err
			}
			f.res.ReregistrationPerSec = rate
			return nil
		}},
		{"resume", func(f *Fleet) error {
			f.beatRound(f.opts.Liveness.Interval)
			f.emitRound(2)
			f.recordConvergence()
			return nil
		}},
	}}
}
