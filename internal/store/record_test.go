package store_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"ofmf/internal/odata"
	"ofmf/internal/store"
	"ofmf/internal/store/storetest"
)

// FuzzAppendRecord holds the record writer to the encoder it stands in
// for: AppendRecord appends exactly json.Marshal's bytes, and fails
// exactly when json.Marshal does, leaving dst as it was; and what it
// writes, when DecodeRecord accepts it, reads back as the Record
// json.Unmarshal builds from json.Marshal's output.
func FuzzAppendRecord(f *testing.F) {
	for _, rec := range storetest.Records() {
		f.Add(rec.Seq, rec.Epoch, string(rec.Op), string(rec.ID), []byte(rec.Raw))
	}
	f.Fuzz(func(t *testing.T, seq, epoch uint64, op, id string, raw []byte) {
		rec := store.Record{Seq: seq, Epoch: epoch, Op: store.RecordOp(op), ID: odata.ID(id), Raw: raw}
		want, wantErr := json.Marshal(rec)
		prefix := []byte("frame header")
		got, err := store.AppendRecord(prefix, rec)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%+v: AppendRecord error %v, json.Marshal error %v", rec, err, wantErr)
		}
		if !bytes.HasPrefix(got, []byte("frame header")) {
			t.Fatalf("%+v: AppendRecord overwrote dst: %q", rec, got)
		}
		if err != nil {
			if len(got) != len(prefix) {
				t.Fatalf("%+v: AppendRecord failed (%v) but appended %q", rec, err, got[len(prefix):])
			}
			return
		}
		if enc := got[len(prefix):]; !bytes.Equal(enc, want) {
			t.Fatalf("%+v:\nAppendRecord %s\njson.Marshal %s", rec, enc, want)
		}
		if dec, ok := store.DecodeRecord(want); ok {
			var oracle store.Record
			if err := json.Unmarshal(want, &oracle); err != nil {
				t.Fatalf("json.Unmarshal of json.Marshal's %s: %v", want, err)
			}
			if !storetest.SameRecord(dec, oracle) {
				t.Fatalf("DecodeRecord read %s as %+v; json.Unmarshal: %+v", want, dec, oracle)
			}
		}
	})
}

// benchRecord is a put as the benchmark's read_tree workload commits
// one: a ~340-byte canonical endpoint under a replication epoch.
var benchRecord = store.Record{
	Seq: 1234567, Epoch: 3, Op: store.OpPut, ID: "/redfish/v1/Fabrics/Bench042/Endpoints/E117",
	Raw: json.RawMessage(`{"@odata.id":"/redfish/v1/Fabrics/Bench042/Endpoints/E117","@odata.type":"#Endpoint.v1_8_0.Endpoint",` +
		`"Id":"r117","Name":"bench fabric 42 resource 117","EndpointProtocol":"CXL",` +
		`"ConnectedEntities":[{"EntityType":"Processor","EntityRole":"Initiator"}],` +
		`"Status":{"Health":"OK","State":"Enabled"},"Oem":{"Bench":{"Seq":0,"Fabric":42,"Slot":117}}}`),
}

var sinkBytes []byte

// BenchmarkAppendRecord prices one record's encoding: the by-hand
// envelope into a reused buffer against json.Marshal, the oracle it
// replaces. Run with -benchmem.
func BenchmarkAppendRecord(b *testing.B) {
	b.Run("hand", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = store.AppendRecord(buf[:0], benchRecord)
		}
		sinkBytes = buf
	})
	b.Run("json.Marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkBytes, _ = json.Marshal(benchRecord)
		}
	})
}
