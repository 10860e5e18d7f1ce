package ofmf_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the ablation benches DESIGN.md §4 calls out. Each
// bench regenerates the corresponding result; run
//
//	go test -bench=. -benchmem
//
// or use cmd/expbench for formatted tables.

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ofmf/internal/composer"
	"ofmf/internal/core"
	"ofmf/internal/events"
	"ofmf/internal/exp"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
	"ofmf/internal/sim/des"
	"ofmf/internal/sim/workload"
)

// BenchmarkTable1Profiles regenerates Table I's measured isolation column.
func BenchmarkTable1Profiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range workload.Profiles() {
			_ = p.CoScheduledSlowdown()
			_ = p.Isolation()
		}
	}
	b.ReportMetric(float64(len(workload.Profiles())), "profiles")
}

// BenchmarkTable2HPLParams regenerates Table II from the extrapolation
// rule.
func BenchmarkTable2HPLParams(b *testing.B) {
	rows := workload.HPLTable()
	for i := 0; i < b.N; i++ {
		for _, row := range rows {
			gen := workload.HPLParams(row.Nodes)
			if gen.P != row.P || gen.Q != row.Q {
				b.Fatalf("grid mismatch at n=%d", row.Nodes)
			}
		}
	}
	b.ReportMetric(float64(len(rows)), "rows")
}

// BenchmarkTable3IORParams regenerates Table III.
func BenchmarkTable3IORParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := workload.DefaultIOR().Rows(); len(rows) != 12 {
			b.Fatal("row count")
		}
	}
}

// BenchmarkFig1Stranding regenerates Figure 1's static-vs-composable
// comparison (uses the real Composability Manager).
func BenchmarkFig1Stranding(b *testing.B) {
	cfg := exp.DefaultFig1()
	cfg.Nodes = 8
	cfg.Jobs = 32
	var last exp.Fig1Result
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Composable.JobsPlaced), "composable-jobs")
	b.ReportMetric(float64(last.Static.JobsPlaced), "static-jobs")
	b.ReportMetric(last.Static.StrandedFrac*100, "static-stranded-%")
	b.ReportMetric(last.Composable.StrandedFrac*100, "composable-stranded-%")
}

// BenchmarkFig3Multinode regenerates Figure 3's five experiment classes
// at a reduced sweep; the full sweep is cmd/expbench -exp fig3.
func BenchmarkFig3Multinode(b *testing.B) {
	cfg := exp.DefaultFig3()
	cfg.NodeCounts = []int{2, 128}
	cfg.Reps = 7
	var points []exp.Fig3Point
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(20230515 + i)
		points = exp.RunFig3(cfg)
	}
	for _, p := range points {
		if p.Nodes == 128 && p.Class != exp.HPLOnly {
			name := strings.ReplaceAll(p.Class.String(), " ", "_")
			b.ReportMetric(p.Slowdown()*100, fmt.Sprintf("slowdown-%%@128:%s", name))
		}
	}
}

// BenchmarkFig4IdleDaemons regenerates Figure 4's idle-daemon overhead.
func BenchmarkFig4IdleDaemons(b *testing.B) {
	cfg := exp.DefaultFig3()
	cfg.NodeCounts = []int{64}
	cfg.Reps = 8
	var points []exp.Fig4Point
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(99 + i)
		points = exp.RunFig4(cfg)
	}
	if len(points) > 0 {
		b.ReportMetric(points[0].OverheadFrac*100, "idle-daemon-overhead-%@64")
	}
}

// BenchmarkBeeONDLifecycle regenerates the <3 s assembly / <6 s teardown
// sweep.
func BenchmarkBeeONDLifecycle(b *testing.B) {
	cfg := exp.DefaultLifecycle()
	cfg.NodeCounts = []int{128}
	cfg.Reps = 10
	var points []exp.LifecyclePoint
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(42 + i)
		var err error
		points, err = exp.RunLifecycle(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(points) > 0 {
		b.ReportMetric(points[0].Assemble.Mean, "assemble-s@128")
		b.ReportMetric(points[0].Teardown.Mean, "teardown-s@128")
	}
}

// BenchmarkOFMFScaleGet measures tree read latency at 10k resources on
// the path HTTP GET actually serves from: the zero-copy View (the copy
// contract's cost is tracked separately by BenchmarkAblationStoreRead).
func BenchmarkOFMFScaleGet(b *testing.B) {
	svc := service.New(service.Config{DirectWrites: true})
	defer svc.Close()
	st := svc.Store()
	const size = 10000
	ids := make([]odata.ID, size)
	for i := 0; i < size; i++ {
		id := service.ChassisURI.Append(fmt.Sprintf("c%06d", i))
		ids[i] = id
		if err := st.Put(id, redfish.Chassis{
			Resource:    odata.NewResource(id, redfish.TypeChassis, id.Leaf()),
			ChassisType: "Sled",
			Status:      odata.StatusOK(),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		if err := st.View(ids[i%size], func(raw json.RawMessage, _ string) { n += len(raw) }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOFMFScaleCollectionGet measures serving the 10k-member Chassis
// collection through the memoized CollectionView path (steady state: the
// cache is warm, which is the common case between hardware changes).
func BenchmarkOFMFScaleCollectionGet(b *testing.B) {
	svc := service.New(service.Config{DirectWrites: true})
	defer svc.Close()
	st := svc.Store()
	const size = 10000
	for i := 0; i < size; i++ {
		id := service.ChassisURI.Append(fmt.Sprintf("c%06d", i))
		if err := st.Put(id, redfish.Chassis{
			Resource:    odata.NewResource(id, redfish.TypeChassis, id.Leaf()),
			ChassisType: "Sled",
			Status:      odata.StatusOK(),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		if err := st.CollectionView(service.ChassisURI, func(payload []byte, _ string) { n += len(payload) }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOFMFScalePatch measures tree write latency at 10k resources.
func BenchmarkOFMFScalePatch(b *testing.B) {
	svc := service.New(service.Config{DirectWrites: true})
	defer svc.Close()
	st := svc.Store()
	const size = 10000
	ids := make([]odata.ID, size)
	for i := 0; i < size; i++ {
		id := service.ChassisURI.Append(fmt.Sprintf("c%06d", i))
		ids[i] = id
		if err := st.Put(id, redfish.Chassis{
			Resource:    odata.NewResource(id, redfish.TypeChassis, id.Leaf()),
			ChassisType: "Sled",
			Status:      odata.StatusOK(),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Patch(ids[i%size], map[string]any{"Description": "gen"}, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOFMFScaleCompose measures full composition round-trips
// (provision + connect + publish + teardown) through the live stack, in
// memory, at the shape the compose_cycle workload of bench/ drives over
// a socket: 64 nodes, and per system 4 cores, 1 GiB of fabric memory, a
// 1 GiB volume and one GPU slice. Its allocs/op show what the agents
// publish per handler op.
func BenchmarkOFMFScaleCompose(b *testing.B) {
	f, err := core.New(core.Config{Nodes: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	req := composer.Request{Cores: 4, FabricMemoryMiB: 1024, StorageBytes: 1 << 30, GPUSlices: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp, err := f.Composer.Compose(req)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Composer.Decompose(comp.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorePutSubtree measures the agent-publish primitive: an
// atomic subtree refresh of the given size, the operation every hardware
// state change triggers.
func BenchmarkStorePutSubtree(b *testing.B) {
	for _, size := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("resources-%d", size), func(b *testing.B) {
			svc := service.New(service.Config{})
			defer svc.Close()
			prefix := service.FabricsURI.Append("Bench")
			subtree := make(map[odata.ID]any, size)
			for i := 0; i < size; i++ {
				id := prefix.Append(fmt.Sprintf("Endpoints/e%04d", i))
				subtree[id] = redfish.Endpoint{
					Resource:         odata.NewResource(id, redfish.TypeEndpoint, id.Leaf()),
					EndpointProtocol: redfish.ProtocolCXL,
					Status:           odata.StatusOK(),
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := svc.Store().PutSubtree(prefix, subtree); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// A refresh amid a large unrelated population: the subtree index must
	// keep the cost a function of the subtree, not of the total store, so
	// this should track resources-100, not the 10k crowd.
	b.Run("resources-100-crowded-10k", func(b *testing.B) {
		svc := service.New(service.Config{DirectWrites: true})
		defer svc.Close()
		st := svc.Store()
		for i := 0; i < 10000; i++ {
			id := service.ChassisURI.Append(fmt.Sprintf("c%06d", i))
			if err := st.Put(id, redfish.Chassis{
				Resource:    odata.NewResource(id, redfish.TypeChassis, id.Leaf()),
				ChassisType: "Sled",
				Status:      odata.StatusOK(),
			}); err != nil {
				b.Fatal(err)
			}
		}
		prefix := service.FabricsURI.Append("Bench")
		subtree := make(map[odata.ID]any, 100)
		for i := 0; i < 100; i++ {
			id := prefix.Append(fmt.Sprintf("Endpoints/e%04d", i))
			subtree[id] = redfish.Endpoint{
				Resource:         odata.NewResource(id, redfish.TypeEndpoint, id.Leaf()),
				EndpointProtocol: redfish.ProtocolCXL,
				Status:           odata.StatusOK(),
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.PutSubtree(prefix, subtree); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPlacement compares the composer's placement policies
// under a mixed load (DESIGN.md §4).
func BenchmarkAblationPlacement(b *testing.B) {
	policies := map[string]composer.Policy{
		"FirstFit": composer.FirstFit{},
		"BestFit":  composer.BestFit{},
		"WorstFit": composer.WorstFit{},
	}
	for name, policy := range policies {
		b.Run(name, func(b *testing.B) {
			f, err := core.New(core.Config{Nodes: 16, Policy: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			b.ResetTimer()
			placed := 0
			for i := 0; i < b.N; i++ {
				comp, err := f.Composer.Compose(composer.Request{Cores: 1 + i%8})
				if err != nil {
					continue
				}
				placed++
				if err := f.Composer.Decompose(comp.ID); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(placed), "placed")
		})
	}
}

// BenchmarkAblationEventDelivery compares queued per-subscriber delivery
// against synchronous fan-out (DESIGN.md §4).
func BenchmarkAblationEventDelivery(b *testing.B) {
	for _, mode := range []struct {
		name string
		sync bool
	}{{"Queued", false}, {"Synchronous", true}} {
		b.Run(mode.name, func(b *testing.B) {
			bus := events.NewBus(events.Config{Synchronous: mode.sync, QueueDepth: 1 << 16, RetryAttempts: 1})
			defer bus.Close()
			for s := 0; s < 8; s++ {
				if _, err := bus.Subscribe(nopSink{}, events.Filter{}, ""); err != nil {
					b.Fatal(err)
				}
			}
			rec := events.Record(redfish.EventAlert, "bench", "m", "")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bus.Publish(rec)
			}
		})
	}
}

type nopSink struct{}

func (nopSink) Deliver(context.Context, redfish.Event) error { return nil }

// BenchmarkAblationStoreRead compares the copy-on-read path (Get) with
// the zero-copy locked view (View) on the tree read hot path
// (DESIGN.md §4).
func BenchmarkAblationStoreRead(b *testing.B) {
	svc := service.New(service.Config{})
	defer svc.Close()
	st := svc.Store()
	id := service.ChassisURI.Append("c1")
	if err := st.Put(id, redfish.Chassis{
		Resource:    odata.NewResource(id, redfish.TypeChassis, "c1"),
		ChassisType: "Sled",
		Status:      odata.StatusOK(),
	}); err != nil {
		b.Fatal(err)
	}
	b.Run("CopyOnRead", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := st.Get(id); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ZeroCopyView", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			if err := st.View(id, func(raw json.RawMessage, _ string) { n += len(raw) }); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPhases varies the collective-phase granularity of the
// HPL model. The mean slowdown is set by the node count (the expected
// per-phase maximum of the noise), not by how many sync points divide the
// run — phase count only shrinks run-to-run variance. This justifies the
// model's fixed default of 60 phases.
func BenchmarkAblationPhases(b *testing.B) {
	for _, phases := range []int{15, 60, 240} {
		b.Run(fmt.Sprintf("phases-%d", phases), func(b *testing.B) {
			rng := des.NewRNG(77)
			var sum float64
			for i := 0; i < b.N; i++ {
				m := workload.HPLModel{Nodes: 64, BaseSeconds: 100, BaseJitterFrac: 1e-9, Phases: phases}
				sum += m.Run(rng.Split(uint64(i)), func(_, _ int, r *des.RNG) float64 {
					return r.PosNorm(0.004, 0.004)
				})
			}
			b.ReportMetric(sum/float64(b.N)-100, "slowdown-s")
		})
	}
}

// BenchmarkAblationMetaPlacement compares HPL impact with the metadata
// server co-located versus dedicated (DESIGN.md §4).
func BenchmarkAblationMetaPlacement(b *testing.B) {
	cfg := exp.DefaultFig3()
	cfg.NodeCounts = []int{64}
	cfg.Reps = 7
	var points []exp.Fig3Point
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(5 + i)
		points = exp.RunFig3(cfg)
	}
	for _, p := range points {
		switch p.Class {
		case exp.MatchingBeeOND:
			b.ReportMetric(p.Slowdown()*100, "with-meta-%")
		case exp.MatchingBeeONDNoMeta:
			b.ReportMetric(p.Slowdown()*100, "no-meta-%")
		}
	}
}
