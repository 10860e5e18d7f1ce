package resilience

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the base error of failures produced by FaultTransport.
var ErrInjected = errors.New("resilience: injected fault")

// FaultTransport is an http.RoundTripper that injects faults in front
// of a real transport, so tests can drive the whole control plane —
// agents, event delivery, the CLI — through flaky and wedged network
// conditions without touching the code under test.
//
// Modes compose: each request first waits Latency, then (while
// black-holed) blocks until its context is cancelled, then fails with
// probability ErrorRate, and only then reaches Base.
type FaultTransport struct {
	// Base performs the surviving round trips (default: the package's
	// shared base transport).
	Base http.RoundTripper
	// ErrorRate in [0,1] is the probability a request fails with
	// ErrInjected before reaching the wire.
	ErrorRate float64
	// Latency is added to every request before any other behaviour.
	Latency time.Duration
	// Seed makes the fault sequence deterministic when non-zero. When
	// zero the transport seeds itself from the wall clock — fine for
	// one-off tests, but a reproducibility bug in a chaos harness, so
	// fleet mode requires an explicit seed (see EffectiveSeed).
	Seed int64
	// Rules, when set, is consulted per request; a returned rule
	// overrides ErrorRate and Latency and can deny or black-hole the
	// request. Chaos scenarios script partitions and link flap through
	// it (see ScriptedFaults) without racing on the struct fields.
	Rules func(*http.Request) (FaultRule, bool)

	blackhole atomic.Bool
	attempts  atomic.Int64
	injected  atomic.Int64

	once       sync.Once
	seededWith int64
	mu         sync.Mutex
	rng        *rand.Rand
}

// SetBlackHole toggles black-hole mode: requests hang (consuming their
// context budget) instead of failing fast, emulating a wedged server.
func (f *FaultTransport) SetBlackHole(on bool) { f.blackhole.Store(on) }

// Attempts returns the number of round trips seen, including injected
// failures.
func (f *FaultTransport) Attempts() int64 { return f.attempts.Load() }

// Injected returns the number of failures injected so far.
func (f *FaultTransport) Injected() int64 { return f.injected.Load() }

func (f *FaultTransport) seedRNG() {
	f.once.Do(func() {
		seed := f.Seed
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
		f.seededWith = seed
		f.rng = rand.New(rand.NewSource(seed))
	})
}

// EffectiveSeed forces the RNG to seed now and returns the seed in
// effect — the configured Seed, or the wall-clock fallback an unseeded
// transport chose. Harnesses that must be reproducible call it up
// front, reject the fallback, and log the value alongside their run
// parameters.
func (f *FaultTransport) EffectiveSeed() int64 {
	f.seedRNG()
	return f.seededWith
}

func (f *FaultTransport) roll() float64 {
	f.seedRNG()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64()
}

// RoundTrip implements http.RoundTripper.
func (f *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.attempts.Add(1)
	errorRate, latency := f.ErrorRate, f.Latency
	hole := f.blackhole.Load()
	if f.Rules != nil {
		if rule, ok := f.Rules(req); ok {
			errorRate, latency = rule.ErrorRate, rule.Latency
			hole = hole || rule.BlackHole
			if rule.Deny {
				// A partitioned peer refuses immediately, before any
				// latency or probability roll.
				f.injected.Add(1)
				return nil, fmt.Errorf("%w: connection refused (partitioned)", ErrInjected)
			}
		}
	}
	if latency > 0 {
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(latency):
		}
	}
	if hole {
		f.injected.Add(1)
		// A wedged server never answers: burn the caller's deadline.
		<-req.Context().Done()
		return nil, fmt.Errorf("%w: black hole: %v", ErrInjected, req.Context().Err())
	}
	if errorRate > 0 && f.roll() < errorRate {
		f.injected.Add(1)
		return nil, fmt.Errorf("%w: connection reset (rate %.2f)", ErrInjected, errorRate)
	}
	if f.Base != nil {
		return f.Base.RoundTrip(req)
	}
	return baseTransport.RoundTrip(req)
}
