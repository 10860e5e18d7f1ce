package gpuagent

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ofmf/internal/agent"
	"ofmf/internal/agent/agenttest"
	"ofmf/internal/emul/gpusim"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
)

func newEquivAgent(t *testing.T) (*service.Service, *Agent) {
	t.Helper()
	svc := service.New(service.Config{})
	t.Cleanup(svc.Close)
	pool := gpusim.New()
	for _, g := range []string{"gpu0", "gpu1"} {
		if err := pool.AddGPU(g, "A100", 40960, 7); err != nil {
			t.Fatal(err)
		}
	}
	ag := New(&agent.Local{Service: svc}, pool, "PCIe", "GPUPool")
	if err := ag.Start(); err != nil {
		t.Fatal(err)
	}
	return svc, ag
}

// TestHandlerOpsEquivalentToFullPublish: after every handler op of a
// seeded random sequence — carve, attach, detach, delete, with rejected
// requests of each kind mixed in — what the op published (the partition,
// and its fabric endpoint appearing and going) is exactly what a full
// Publish would have.
func TestHandlerOpsEquivalentToFullPublish(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			svc, ag := newEquivAgent(t)
			twinSvc, twinAg := newEquivAgent(t)
			tw := agenttest.NewTwins(t, svc, ag.Publish, twinSvc, twinAg.Publish)

			partsColl := ag.ChassisID().Append("Processors")
			connsColl := ag.FabricID().Append("Connections")
			var parts, conns []odata.ID
			ctx := context.Background()
			for i := 0; i < 120; i++ {
				switch rng.Intn(4) {
				case 0: // carve; oversized and bad-GPU requests are rejected
					payload := fmt.Sprintf(`{"Oem": {"OFMF": {"Slices": %d, "GPU": %q}}}`,
						[]int{1, 2, 3, 9}[rng.Intn(4)], []string{"", "", "gpu1", "ghost"}[rng.Intn(4)])
					if uri, ok := tw.Both("carve", fmt.Sprintf("#%d %s", i, payload), func(s *service.Service) (odata.ID, error) {
						return s.ProvisionResource(ctx, partsColl, []byte(payload))
					}); ok {
						parts = append(parts, uri)
					}
				case 1: // attach; an attached or unknown partition is rejected
					part := agenttest.Pick(rng, parts, partsColl.Append("999"))
					conn := redfish.Connection{Links: redfish.ConnectionLinks{
						InitiatorEndpoints: []odata.Ref{odata.NewRef(service.SystemsURI.Append(fmt.Sprintf("node%d", rng.Intn(3))))},
						TargetEndpoints:    []odata.Ref{odata.NewRef(ag.FabricID().Append("Endpoints", part.Leaf()))},
					}}
					if uri, ok := tw.Both("attach", fmt.Sprintf("#%d %s", i, part), func(s *service.Service) (odata.ID, error) {
						created, err := s.CreateConnection(ctx, connsColl, conn)
						return created.ODataID, err
					}); ok {
						conns = append(conns, uri)
					}
				case 2: // detach
					id := agenttest.Pick(rng, conns, connsColl.Append("999"))
					if _, ok := tw.Both("detach", fmt.Sprintf("#%d %s", i, id), func(s *service.Service) (odata.ID, error) {
						return "", s.DeleteConnection(ctx, id)
					}); ok {
						conns = agenttest.Remove(conns, id)
					}
				case 3: // delete; an attached partition is busy and stays
					id := agenttest.Pick(rng, parts, partsColl.Append("999"))
					if _, ok := tw.Both("delete", fmt.Sprintf("#%d %s", i, id), func(s *service.Service) (odata.ID, error) {
						return "", s.DeprovisionResource(ctx, id)
					}); ok {
						parts = agenttest.Remove(parts, id)
					}
				}
			}
			tw.RequireCoverage("carve", "attach", "detach", "delete")
		})
	}
}
