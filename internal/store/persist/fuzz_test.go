package persist

import (
	"bytes"
	"encoding/json"
	"testing"

	"ofmf/internal/store"
	"ofmf/internal/store/storetest"
)

// frames encodes records through the production writer, for seeding.
func frames(t interface{ Fatal(...any) }, recs ...store.Record) []byte {
	var buf []byte
	for _, rec := range recs {
		var err error
		if buf, err = appendFrame(buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// FuzzWALDecode hammers the record decoder with arbitrary bytes. The
// decoder must never panic, must never claim more good bytes than it was
// given, must end a clean scan only where nothing but zeros follows (the
// space a segment allocates past its frames), and re-scanning the good
// prefix must be clean: the same records with no tear — the invariant
// recovery's truncation step relies on.
func FuzzWALDecode(f *testing.F) {
	valid := frames(f,
		store.Record{Seq: 1, Op: store.OpPut, ID: "/redfish/v1/S/1", Raw: json.RawMessage(`{"Name":"s1"}`)},
		store.Record{Seq: 2, Op: store.OpDelete, ID: "/redfish/v1/S/1"},
	)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                       // torn tail
	f.Add(append(append([]byte{}, valid...), 0xde))   // trailing garbage
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length
	zeroTail := append(append([]byte{}, valid...), make([]byte, allocBlock)...)
	f.Add(zeroTail)                                         // allocated past the frames
	f.Add(append(append([]byte{}, zeroTail...), 0xde))      // zeros, then garbage: torn
	f.Add(append(append([]byte{}, valid...), 0, 0, 0))      // zeros shorter than a header
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0}) // zero length, nonzero CRC: torn
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good, torn := decodeAll(bytes.NewReader(data))
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d outside [0,%d]", good, len(data))
		}
		if !torn && !allZero(data[good:]) {
			t.Fatalf("clean scan stopped at %d of %d bytes, before nonzero ones", good, len(data))
		}
		again, goodAgain, tornAgain := decodeAll(bytes.NewReader(data[:good]))
		if tornAgain {
			t.Fatal("re-scan of good prefix reported a tear")
		}
		if goodAgain != good || len(again) != len(recs) {
			t.Fatalf("re-scan diverged: %d/%d bytes, %d/%d records",
				goodAgain, good, len(again), len(recs))
		}
	})
}

// FuzzRecordDecode holds the by-hand envelope reader to the decoder it
// stands in for: a payload store.DecodeRecord accepts is one json.Unmarshal
// accepts, into the same Record — so a frame's torn/not-torn verdict is
// still encoding/json's, whichever of the two reads it — and a stream
// holding that payload as a frame scans to the same records, good offset
// and tear as commit 347f903's decoder found (parentDecodeAll). Seeds:
// what the writer produces, and near misses of it one rule at a time.
func FuzzRecordDecode(f *testing.F) {
	for _, rec := range compatHistory() {
		payload, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	for _, seed := range []string{
		`{"s":1,"o":"p","i":"/a","r":{"N":1}}`, `{"s":1,"e":0,"o":"d","i":"/a"}`,
		`{"s":01,"o":"d","i":"/a"}`, `{"s":-1,"o":"d","i":"/a"}`, `{"s":1.0,"o":"d","i":"/a"}`, `{"s":1e2,"o":"d","i":"/a"}`,
		`{"s":18446744073709551615,"o":"d","i":"/a"}`, `{"s":18446744073709551616,"o":"d","i":"/a"}`, `{"s":9999999999999999999,"o":"d","i":"/a"}`,
		`{"S":1,"O":"d","I":"/a"}`, `{"s":1,"o":"d","i":"/a","s":2}`, `{"o":"d","s":1,"i":"/a"}`, `{"s":1,"o":"x","i":"/a"}`, `{"s":1,"o":"d","i":"/a","x":1}`,
		`{"s":1,"o":"d","i":"/a"}`, `{"s":1,"o":"d","i":"/a\"}`, "{\"s\":1,\"o\":\"d\",\"i\":\"/\xff\"}", "{\"s\":1,\"o\":\"d\",\"i\":\"/é\"}", "{\"s\":1,\"o\":\"d\",\"i\":\"/\t\"}",
		`{"s":1,"o":"p","i":"/a","r":null}`, `{"s":1,"o":"p","i":"/a","r":[1]}`, `{"s":1,"o":"p","i":"/a","r":{"N": 1}}`, `{"s":1,"o":"p","i":"/a","r":{"N":"<"}}`,
		`{"s":1,"o":"p","i":"/a","r":{"N":1}}}`, `{"s":1,"o":"p","i":"/a","r":{"N":1}} `, `{"s":1,"o":"p","i":"/a","r":{"N":1},"r":{"N":2}}`, `{"s":1,"o":"p","i":"/a","r":{"N":1}`,
		`{"s":1,"o":"d","i":"/a"`, `{"s":`, `{}`, ``, `null`, `[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var want store.Record
		err := json.Unmarshal(payload, &want)
		if got, ok := store.DecodeRecord(payload); ok {
			got.Raw = bytes.Clone(got.Raw)
			if err != nil || !storetest.SameRecord(got, want) {
				t.Fatalf("DecodeRecord read %q as %+v; json.Unmarshal: %+v, %v", payload, got, want, err)
			}
		}
		if len(payload) == 0 {
			return
		}
		stream := append(frame(payload), frames(t, store.Record{Seq: 7, Op: store.OpDelete, ID: "/after"})...)
		recs, good, torn := decodeAll(bytes.NewReader(stream))
		wantRecs, wantGood, wantTorn := parentDecodeAll(bytes.NewReader(stream))
		if !storetest.SameRecords(recs, wantRecs) || good != wantGood || torn != wantTorn {
			t.Fatalf("payload %q: scanned %d records, %d good bytes, torn=%v; commit 347f903: %d, %d, %v",
				payload, len(recs), good, torn, len(wantRecs), wantGood, wantTorn)
		}
	})
}
