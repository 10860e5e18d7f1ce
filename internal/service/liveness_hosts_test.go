package service

import (
	"context"
	"fmt"
	"testing"

	"ofmf/internal/redfish"
)

// TestHostIndexChurn: fleets that register and deregister agents in
// steady state (spot instances, maintenance rotation) must leave the
// index empty once every source is gone — the index keeps no record of
// what it dropped — and a fresh registration after the churn must be
// found.
func TestHostIndexChurn(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	st := svc.Store()

	const churn = 5000
	for i := 0; i < churn; i++ {
		src, _, err := svc.RegisterAggregationSource(context.Background(),
			redfish.AggregationSource{HostName: fmt.Sprintf("http://agent-%d.example:9000", i)})
		if err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
		if err := st.Delete(src.ODataID); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}

	svc.liveness.mu.Lock()
	entries, hosts, deadlines := len(svc.liveness.sources), len(svc.liveness.byHost), len(svc.liveness.deadlines)
	svc.liveness.mu.Unlock()
	if entries != 0 || hosts != 0 || deadlines != 0 {
		t.Fatalf("index holds %d sources, %d hosts and %d deadlines after full churn, want none", entries, hosts, deadlines)
	}

	src, created, err := svc.RegisterAggregationSource(context.Background(),
		redfish.AggregationSource{HostName: "http://agent-fresh.example:9000"})
	if err != nil || !created {
		t.Fatalf("fresh registration after churn: created=%v err=%v", created, err)
	}
	if uri, ok := svc.liveness.lookup("http://agent-fresh.example:9000"); !ok || uri != src.ODataID {
		t.Fatalf("host index lookup after churn: ok=%v uri=%s want %s", ok, uri, src.ODataID)
	}
}
