// Package storetest holds what the store's tests and its users' share:
// the records of the record codec (the store fuzzes store.AppendRecord
// against json.Marshal from them, and the replication stream checks its
// rec lines against json.Encoder's on them), and RunProjection, the
// conformance check of every registry that follows the tree.
package storetest

import (
	"bytes"
	"encoding/json"

	"ofmf/internal/odata"
	"ofmf/internal/store"
)

// SameRecord reports whether a and b are the record reflect.DeepEqual
// would call equal — every exported field, Raw's nil-ness included —
// leaving out only the mark store.DecodeRecord puts on what it verified,
// which a record json.Unmarshal builds never carries.
func SameRecord(a, b store.Record) bool {
	return a.Seq == b.Seq && a.Epoch == b.Epoch && a.Op == b.Op && a.ID == b.ID &&
		(a.Raw == nil) == (b.Raw == nil) && bytes.Equal(a.Raw, b.Raw)
}

// SameRecords is SameRecord over two slices, position by position.
func SameRecords(a, b []store.Record) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if !SameRecord(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Records takes every branch of the record writer: the by-hand envelope
// (puts and deletes, with and without an epoch) and each reason it hands
// a record to json.Marshal instead — an id or op the encoder escapes or
// that is not ASCII, a resource that is not compact, that holds bytes
// the encoder escapes, that is not an object, or that is not JSON.
func Records() []store.Record {
	put := func(seq, epoch uint64, id, raw string) store.Record {
		return store.Record{Seq: seq, Epoch: epoch, Op: store.OpPut, ID: odata.ID(id), Raw: json.RawMessage(raw)}
	}
	return []store.Record{
		put(1, 0, "/redfish/v1/Systems/a", `{"@odata.id":"/redfish/v1/Systems/a","Name":"a","N":1}`),
		put(2, 7, "/redfish/v1/Systems/b", `{"Oem":{"k":[1,2.50,-0,1e9,"x",true,null,{}]},"Name":"b é"}`),
		{Seq: 3, Op: store.OpDelete, ID: "/redfish/v1/Systems/a"},
		{Seq: 18446744073709551615, Epoch: 18446744073709551615, Op: store.OpDelete, ID: ""},
		put(5, 0, "/redfish/v1/Systems/<c>&", `{"Name":"c"}`),
		put(6, 0, `/redfish/v1/Systems/"q"\`, `{"Name":"q"}`),
		put(7, 1, "/redfish/v1/Systems/é日本", `{"Name":"é"}`),
		put(8, 1, "/redfish/v1/Systems/\u2028", `{"Name":"line separator"}`),
		put(9, 1, "/redfish/v1/Systems/\t\xff", `{"Name":"control and invalid UTF-8"}`),
		put(10, 0, "/redfish/v1/Systems/ws", `{ "Name" : "spaced" }`),
		put(11, 0, "/redfish/v1/Systems/lt", `{"Name":"<b>"}`),
		put(12, 0, "/redfish/v1/Systems/amp", "{\"Name\":\"a & b\",\"Sep\":\"\u2028\"}"),
		put(13, 0, "/redfish/v1/Systems/arr", `[1,2]`),
		put(14, 0, "/redfish/v1/Systems/null", `null`),
		put(15, 0, "/redfish/v1/Systems/bad", `{"Name":`),
		{Seq: 16, Op: "x", ID: "/redfish/v1/Systems/op"},
		{Seq: 17, Op: "<", ID: "/redfish/v1/Systems/op"},
		{Seq: 18, Epoch: 2, Op: store.OpPut, ID: "/redfish/v1/Systems/empty", Raw: json.RawMessage{}},
	}
}
