package composer

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
	"ofmf/internal/store/persist"
)

// scaleSource is the i-th agent of a scale run: a remote CXL agent
// claiming its own fabric and appliance, so each one is a pool.
func scaleSource(i int) redfish.AggregationSource {
	return redfish.AggregationSource{
		HostName: fmt.Sprintf("http://agent-%05d.example:9000", i),
		Oem:      redfish.AggSourceOem{OFMF: &redfish.AgentDescriptor{Technology: redfish.ProtocolCXL}},
		Links: redfish.AggSourceLinks{ResourcesAccessed: odata.RefSlice([]odata.ID{
			service.FabricsURI.Append(fmt.Sprintf("S%05d", i)),
			service.ChassisURI.Append(fmt.Sprintf("S%05d", i)),
		})},
	}
}

// scaleService is a node as cmd/ofmf assembles it, the composer built
// before anything is stored, or the bare service.
func scaleService(tb testing.TB, withComposer bool) *service.Service {
	svc := service.New(service.Config{})
	tb.Cleanup(svc.Close)
	if withComposer {
		New(svc, nil)
	}
	return svc
}

// registerSources registers n agents on svc and returns how long that
// took.
func registerSources(tb testing.TB, svc *service.Service, n int) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, created, err := svc.RegisterAggregationSource(context.Background(), scaleSource(i)); err != nil || !created {
			tb.Fatalf("register %d: created=%v err=%v", i, created, err)
		}
	}
	return time.Since(start)
}

// BenchmarkRegisterSources registers 250 and 2 000 remote agents with
// the composer built; us/source is the mean cost of one registration.
func BenchmarkRegisterSources(b *testing.B) {
	for _, n := range []int{250, 2000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				svc := scaleService(b, true)
				b.StartTimer()
				total += registerSources(b, svc, n)
			}
			b.ReportMetric(float64(total.Microseconds())/float64(b.N*n), "us/source")
		})
	}
}

// BenchmarkRecoverSources recovers a data dir holding 250 and 2 000
// registered agents (the snapshot a clean shutdown leaves) into a node
// whose composer is built first, as cmd/ofmf boots.
func BenchmarkRecoverSources(b *testing.B) {
	for _, n := range []int{250, 2000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			dir := b.TempDir()
			svc := scaleService(b, false)
			backend, err := persist.Open(persist.Options{Dir: dir})
			if err != nil {
				b.Fatal(err)
			}
			stats, err := backend.Recover(svc.Store())
			if err != nil {
				b.Fatal(err)
			}
			svc.Store().AttachBackend(backend, stats.LastSeq)
			registerSources(b, svc, n)
			svc.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				svc := scaleService(b, true)
				backend, err := persist.Open(persist.Options{Dir: dir})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				stats, err := backend.Recover(svc.Store())
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if err := backend.Close(); err != nil {
					b.Fatal(err)
				}
				if stats.Installed < n {
					b.Fatalf("recovery installed %d resources for %d sources", stats.Installed, n)
				}
				b.StartTimer()
			}
		})
	}
}

// TestRegistrationIsLinear: registering an agent costs the same however
// many are registered already. The best of five runs at 2 000 agents
// costs at most three times the best of five at 250, per agent, with
// the composer built and without it.
func TestRegistrationIsLinear(t *testing.T) {
	if raceDetector {
		t.Skip("timings under the race detector say nothing of the code's")
	}
	perSource := func(n int, withComposer bool) time.Duration {
		best := time.Duration(1<<63 - 1)
		for run := 0; run < 5; run++ {
			svc := scaleService(t, withComposer)
			best = min(best, registerSources(t, svc, n)/time.Duration(n))
			svc.Close()
		}
		return best
	}
	for _, withComposer := range []bool{false, true} {
		small, large := perSource(250, withComposer), perSource(2000, withComposer)
		t.Logf("composer %v: %v per source at 250, %v at 2 000", withComposer, small, large)
		if large > 3*small {
			t.Errorf("composer %v: a registration among 2 000 costs %v, %.1f× its %v among 250",
				withComposer, large, float64(large)/float64(small), small)
		}
	}
}
