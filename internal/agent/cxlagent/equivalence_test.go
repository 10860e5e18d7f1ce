package cxlagent

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ofmf/internal/agent"
	"ofmf/internal/agent/agenttest"
	"ofmf/internal/emul/cxlsim"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
)

func newEquivAgent(t *testing.T) (*service.Service, *Agent) {
	t.Helper()
	svc := service.New(service.Config{})
	t.Cleanup(svc.Close)
	app := cxlsim.New(cxlsim.WithoutSleep())
	for _, d := range []string{"dev0", "dev1"} {
		if err := app.AddDevice(d, 4096, "DRAM"); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"hostA", "hostB", "hostC"} {
		if err := app.AddPort(p); err != nil {
			t.Fatal(err)
		}
	}
	ag := New(&agent.Local{Service: svc}, app, "CXL", "MemApp")
	if err := ag.Start(); err != nil {
		t.Fatal(err)
	}
	return svc, ag
}

// TestHandlerOpsEquivalentToFullPublish: after every handler op of a
// seeded random sequence — carve, connect, disconnect, release, with
// rejected requests of each kind mixed in — what the op published is
// exactly what a full Publish would have.
func TestHandlerOpsEquivalentToFullPublish(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			svc, ag := newEquivAgent(t)
			twinSvc, twinAg := newEquivAgent(t)
			tw := agenttest.NewTwins(t, svc, ag.Publish, twinSvc, twinAg.Publish)

			chunksColl := ag.ChassisID().Append("MemoryDomains", "Domain0", "MemoryChunks")
			connsColl := ag.FabricID().Append("Connections")
			hosts := []string{"hostA", "hostB", "hostC", "ghost"}
			var chunks, conns []odata.ID
			ctx := context.Background()
			for i := 0; i < 120; i++ {
				switch rng.Intn(4) {
				case 0: // carve; oversized, bad-device and zero-size requests are rejected
					payload := fmt.Sprintf(`{"MemoryChunkSizeMiB": %d, "Oem": {"OFMF": {"MaxHeads": %d, "Device": %q}}}`,
						[]int{0, 256, 512, 1024, 8192}[rng.Intn(5)], 1+rng.Intn(2), []string{"", "", "dev1", "ghost"}[rng.Intn(4)])
					if uri, ok := tw.Both("carve", fmt.Sprintf("#%d %s", i, payload), func(s *service.Service) (odata.ID, error) {
						return s.ProvisionResource(ctx, chunksColl, []byte(payload))
					}); ok {
						chunks = append(chunks, uri)
					}
				case 1: // connect one chunk to one or two hosts; head limits and double binds are rejected
					chunk := agenttest.Pick(rng, chunks, chunksColl.Append("999"))
					conn := redfish.Connection{MemoryChunkInfo: []redfish.MemoryChunkInfo{{MemoryChunk: redfish.Ref(chunk)}}}
					for n := 1 + rng.Intn(2); n > 0; n-- {
						conn.Links.InitiatorEndpoints = append(conn.Links.InitiatorEndpoints,
							odata.NewRef(ag.FabricID().Append("Endpoints", hosts[rng.Intn(len(hosts))])))
					}
					if uri, ok := tw.Both("connect", fmt.Sprintf("#%d %s to %v", i, chunk, conn.Links.InitiatorEndpoints), func(s *service.Service) (odata.ID, error) {
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
				case 3: // release; a bound chunk is busy and stays
					id := agenttest.Pick(rng, chunks, chunksColl.Append("999"))
					if _, ok := tw.Both("release", fmt.Sprintf("#%d %s", i, id), func(s *service.Service) (odata.ID, error) {
						return "", s.DeprovisionResource(ctx, id)
					}); ok {
						chunks = agenttest.Remove(chunks, id)
					}
				}
			}
			tw.RequireCoverage("carve", "connect", "disconnect", "release")
		})
	}
}
