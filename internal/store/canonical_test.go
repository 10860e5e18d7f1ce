package store

import (
	"testing"
)

// BenchmarkIsCanonical walks one read_tree endpoint, the ~340-byte
// payload every replayed record, snapshot entry and pushed resource of
// that workload carries, and PlainString checks its id, as Cut does.
func BenchmarkIsCanonical(b *testing.B) {
	const id = "/redfish/v1/Fabrics/Bench042/Endpoints/E117"
	raw := []byte(`{"@odata.id":"` + id + `","@odata.type":"#Endpoint.v1_8_0.Endpoint","Id":"r117","Name":"bench fabric 42 resource 117",` +
		`"EndpointProtocol":"CXL","ConnectedEntities":[{"EntityType":"Processor","EntityRole":"Initiator"}],` +
		`"Status":{"Health":"OK","State":"Enabled"},"Oem":{"Bench":{"Seq":0,"Fabric":42,"Slot":117}}}`)
	b.Run("payload", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			if !IsCanonical(raw) {
				b.Fatal("not canonical")
			}
		}
	})
	b.Run("id", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !PlainString(id) {
				b.Fatal("not plain")
			}
		}
	})
}
