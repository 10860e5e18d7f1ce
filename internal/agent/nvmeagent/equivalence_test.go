package nvmeagent

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ofmf/internal/agent"
	"ofmf/internal/agent/agenttest"
	"ofmf/internal/emul/nvmesim"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
)

func newEquivAgent(t *testing.T) (*service.Service, *Agent) {
	t.Helper()
	svc := service.New(service.Config{})
	t.Cleanup(svc.Close)
	target := nvmesim.New()
	for _, p := range []string{"pool0", "pool1"} {
		if err := target.AddPool(p, 1<<30); err != nil {
			t.Fatal(err)
		}
	}
	ag := New(&agent.Local{Service: svc}, target, "NVMe", "JBOF")
	for _, h := range []string{"hostA", "hostB", "hostC"} {
		ag.RegisterHost(h)
	}
	if err := ag.Start(); err != nil {
		t.Fatal(err)
	}
	return svc, ag
}

// TestHandlerOpsEquivalentToFullPublish: after every handler op of a
// seeded random sequence — provision, connect, disconnect, delete, with
// rejected requests of each kind mixed in — what the op published is
// exactly what a full Publish would have. A host's first connection
// also creates its subsystem, whose endpoint must appear even when the
// connection itself is then rejected.
func TestHandlerOpsEquivalentToFullPublish(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			svc, ag := newEquivAgent(t)
			twinSvc, twinAg := newEquivAgent(t)
			tw := agenttest.NewTwins(t, svc, ag.Publish, twinSvc, twinAg.Publish)

			volsColl := ag.StorageID().Append("Volumes")
			connsColl := ag.FabricID().Append("Connections")
			hosts := []string{"hostA", "hostB", "hostC", "ghost"}
			var vols, conns []odata.ID
			ctx := context.Background()
			for i := 0; i < 120; i++ {
				switch rng.Intn(4) {
				case 0: // provision; empty, oversized and bad-pool requests are rejected
					payload := fmt.Sprintf(`{"CapacityBytes": %d, "Oem": {"OFMF": {"Pool": %q}}}`,
						[]int64{0, 1 << 20, 1 << 26, 1 << 28, 1 << 31}[rng.Intn(5)], []string{"", "", "pool1", "ghost"}[rng.Intn(4)])
					if uri, ok := tw.Both("provision", fmt.Sprintf("#%d %s", i, payload), func(s *service.Service) (odata.ID, error) {
						return s.ProvisionResource(ctx, volsColl, []byte(payload))
					}); ok {
						vols = append(vols, uri)
					}
				case 1: // connect; an attached volume and an unknown host are rejected
					vol, host := agenttest.Pick(rng, vols, volsColl.Append("999")), hosts[rng.Intn(len(hosts))]
					conn := redfish.Connection{
						VolumeInfo: []redfish.VolumeInfo{{Volume: redfish.Ref(vol)}},
						Links: redfish.ConnectionLinks{InitiatorEndpoints: []odata.Ref{
							odata.NewRef(ag.FabricID().Append("Endpoints", host)),
						}},
					}
					if uri, ok := tw.Both("connect", fmt.Sprintf("#%d %s to %s", i, vol, host), func(s *service.Service) (odata.ID, error) {
						created, err := s.CreateConnection(ctx, connsColl, conn)
						return created.ODataID, err
					}); ok {
						conns = append(conns, uri)
					}
				case 2: // disconnect
					id := agenttest.Pick(rng, conns, connsColl.Append("999"))
					if _, ok := tw.Both("disconnect", fmt.Sprintf("#%d %s", i, id), func(s *service.Service) (odata.ID, error) {
						return "", s.DeleteConnection(ctx, id)
					}); ok {
						conns = agenttest.Remove(conns, id)
					}
				case 3: // delete; an attached volume is busy and stays
					id := agenttest.Pick(rng, vols, volsColl.Append("999"))
					if _, ok := tw.Both("delete", fmt.Sprintf("#%d %s", i, id), func(s *service.Service) (odata.ID, error) {
						return "", s.DeprovisionResource(ctx, id)
					}); ok {
						vols = agenttest.Remove(vols, id)
					}
				}
			}
			tw.RequireCoverage("provision", "connect", "disconnect", "delete")
		})
	}
}
