package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ofmf/internal/composer"
	"ofmf/internal/core"
	"ofmf/internal/odata"
	"ofmf/internal/store"
	"ofmf/internal/store/persist"
)

// encoderReply is the snapshot reply every leader wrote before the hand-
// written frame: writeJSON of a snapshotDoc.
func encoderReply(seq, epoch uint64, marks map[odata.ID]int, resources []byte) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, snapshotDoc{Seq: seq, Epoch: epoch, HiWater: marks, Resources: resources})
	return rec.Body.Bytes()
}

// handReply is the reply writeSnapshot writes.
func handReply(t testing.TB, seq, epoch uint64, marks map[odata.ID]int, resources []byte) []byte {
	rec := httptest.NewRecorder()
	writeSnapshot(rec, seq, epoch, marks, resources)
	if got, want := rec.Header().Get("Content-Length"), fmt.Sprint(rec.Body.Len()); got != want {
		t.Fatalf("Content-Length %s for a %s-byte reply", got, want)
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Fatalf("Content-Type %q", got)
	}
	return rec.Body.Bytes()
}

// decoderInstall is the bootstrap every follower ran before the hand-
// written frame: json.Decoder reads the whole reply, PutSubtreeDoc
// installs its Resources and the marks are folded in after.
func decoderInstall(st *store.Store, body []byte) (seq, epoch uint64, err error) {
	var doc snapshotDoc
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&doc); err != nil {
		return 0, 0, err
	}
	if err := st.PutSubtreeDoc(context.Background(), treeRoot, doc.Resources); err != nil {
		return 0, 0, err
	}
	marks := st.Replay()
	marks.HiWater(doc.HiWater)
	marks.Finish()
	return doc.Seq, doc.Epoch, nil
}

// memberDoc reads a reply laid out as json.Encoder writes a snapshotDoc
// — its keys spelled as the fields are and in their order, HiWater
// optional, nothing after it but white space — with json.Decoder
// reading one member at a time, so that nesting counts from each member
// and not from the reply.
func memberDoc(body []byte) (doc snapshotDoc, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return doc, fmt.Errorf("reply opens with %v, %v", tok, err)
	}
	tok, err := dec.Token()
	for _, m := range []struct {
		key      string
		dst      any
		optional bool
	}{{"Seq", &doc.Seq, false}, {"Epoch", &doc.Epoch, false}, {"HiWater", &doc.HiWater, true}, {"Resources", &doc.Resources, false}} {
		if err != nil {
			return doc, err
		}
		if tok != m.key {
			if m.optional {
				continue
			}
			return doc, fmt.Errorf("key %v where %s belongs", tok, m.key)
		}
		if err := dec.Decode(m.dst); err != nil {
			return doc, fmt.Errorf("%s: %w", m.key, err)
		}
		tok, err = dec.Token()
	}
	if err != nil || tok != json.Delim('}') {
		return doc, fmt.Errorf("%v, %v after Resources", tok, err)
	}
	if tok, err := dec.Token(); err != io.EOF {
		return doc, fmt.Errorf("%v, %v after the reply", tok, err)
	}
	return doc, nil
}

// memberInstall installs what memberDoc reads: the document by
// PutSubtreeCut, which reads it on its own, then the marks.
func memberInstall(st *store.Store, body []byte) (doc snapshotDoc, err error) {
	if doc, err = memberDoc(body); err != nil {
		return doc, err
	}
	if err := st.PutSubtreeCut(context.Background(), treeRoot, doc.Resources); err != nil {
		return doc, err
	}
	marks := st.Replay()
	marks.HiWater(doc.HiWater)
	marks.Finish()
	return doc, nil
}

// snapshotTree is a tree with what the encoder escapes inside a payload,
// an id it escapes and a mark the document does not imply.
func snapshotTree(t testing.TB) *store.Store {
	st := store.New()
	for _, put := range []struct {
		id  odata.ID
		raw string
	}{
		{"/redfish/v1/Chassis/1", `{"Name":"one"}`},
		{"/redfish/v1/Chassis/2", `{"Name":"<a> & b  ","N":[1,2.5,-3e2,true,null]}`},
		{"/redfish/v1/Chassis/3", `{"Name":"three"}`},
		{"/redfish/v1/Chassis/<x>&", `{"Name":"escaped id"}`},
		{"/redfish/v1/Fabrics/F", `{"Name":"F","Links":{"Endpoints":[{"@odata.id":"/redfish/v1/Fabrics/F/Endpoints/1"}]}}`},
	} {
		if err := st.Put(put.id, json.RawMessage(put.raw)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Delete("/redfish/v1/Chassis/3"); err != nil {
		t.Fatal(err)
	}
	return st
}

// priorTree gives st resources a snapshot must remove, keep and update.
func priorTree(t testing.TB, st *store.Store) {
	for id, raw := range map[odata.ID]string{
		"/redfish/v1/Chassis/1":     `{"Name":"one"}`,
		"/redfish/v1/Chassis/2":     `{"Name":"stale"}`,
		"/redfish/v1/Chassis/gone":  `{"Name":"gone"}`,
		"/redfish/v1/Managers/Mgr1": `{"Name":"manager"}`,
	} {
		if err := st.Put(id, json.RawMessage(raw)); err != nil {
			t.Fatal(err)
		}
	}
}

// sameTree fails unless a and b hold the same document, entity tags and
// NextID marks.
func sameTree(t *testing.T, a, b *store.Store) {
	t.Helper()
	ca, err := a.Cut()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Cut()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Resources, cb.Resources) {
		t.Fatalf("documents differ:\n%.300s\n%.300s", ca.Resources, cb.Resources)
	}
	if fmt.Sprint(ca.HiWater) != fmt.Sprint(cb.HiWater) {
		t.Fatalf("marks differ: %v, %v", ca.HiWater, cb.HiWater)
	}
	for _, id := range a.IDs() {
		ea, _ := a.Etag(id)
		eb, _ := b.Etag(id)
		if ea != eb {
			t.Fatalf("%s: entity tags %s, %s", id, ea, eb)
		}
	}
}

// snapshotSeeds are replies of this build, of older leaders and of no
// leader at all, each with a declared length off by delta.
func snapshotSeeds(t testing.TB) (bodies [][]byte, deltas []int8) {
	c, err := snapshotTree(t).Cut()
	if err != nil {
		t.Fatal(err)
	}
	doc := c.Resources
	reply := encoderReply(7, 2, c.HiWater, doc)
	indented, _ := json.MarshalIndent(snapshotDoc{Seq: 7, Epoch: 2, HiWater: c.HiWater, Resources: doc}, " ", "\t")
	deep := strings.Repeat(`{"a":`, 9999) + "1" + strings.Repeat("}", 9999)
	deepDoc := []byte(`{"/redfish/v1/Chassis/deep":` + deep + `}`)
	escaped := map[odata.ID]int{"/redfish/v1/Chassis/<x>&/Things": 5, "/redfish/v1/Chassis/\u00e9/Things": 2, "/redfish/v1/Systems": 3}
	for _, s := range []string{
		string(reply),
		string(bytes.TrimSuffix(reply, []byte("\n"))),
		string(reply) + "\n",
		string(indented),
		string(encoderReply(7, 2, nil, doc)), // HiWater absent
		`{"Seq":7,"Epoch":2,"HiWater":{},"Resources":` + string(doc) + "}\n",
		`{"Seq":7,"Epoch":2,"HiWater":null,"Resources":` + string(doc) + "}\n",
		`{"Seq":7,"Epoch":2,"HiWater":{"/redfish/v1/Chassis":3,"/redfish/v1/Chassis":9},"Resources":{}}`,
		`{"Seq":7,"Epoch":2,"HiWater":{"/redfish/v1/<x>":4,"/redfish/v1/Systems":-1},"Resources":{}}` + "\n",
		`{"Seq":7,"Epoch":2,"HiWater":{"/redfish/v1/Systems":9223372036854775808},"Resources":{}}`,
		`{"Epoch":2,"Seq":7,"Resources":` + string(doc) + "}\n",
		`{"Seq":7,"Epoch":2,"Resources":` + string(doc) + `,"HiWater":{"/redfish/v1/Chassis":3}}` + "\n",
		`{"seq":7,"EPOCH":2,"resources":` + string(doc) + "}\n",
		`{"Seq":7,"Epoch":2,"Resources":{"/redfish/v1/Chassis/1":{}},"Resources":{"/redfish/v1/Chassis/2":{}}}`,
		`{"Seq":7,"Epoch":2,"Resources":{"/redfish/v1/Chassis/1":{}}}}`,
		`{"Seq":7,"Epoch":2,"Resources":{"/redfish/v1/Chassis/1":{}} }` + "\n",
		`{"Seq":07,"Epoch":2,"Resources":{}}`,
		`{"Seq":18446744073709551615,"Epoch":18446744073709551615,"Resources":{}}`,
		`{"Seq":7,"Epoch":2,"Resources":{"/elsewhere/1":{}}}`,
		`{"Seq":7,"Epoch":2,"Resources":{"/redfish/v1/Chassis/1":1}}`,
		`{"Seq":7,"Epoch":2,"Resources":null}`,
		`{"Seq":7,"Epoch":2,"Resources":{"/redfish/v1/Chassis/deep":` + deep + `}}` + "\n",
		string(encoderReply(7, 2, escaped, deepDoc)),
		string(encoderReply(7, 2, c.HiWater, deepDoc)),
		`{"Seq":7,"Epoch":2,"HiWater":{"/redfish/v1/Systems":3 },"Resources":` + string(deepDoc) + "}\n",
		`{"Seq":7,"Resources":` + string(deepDoc) + `,"Epoch":2}` + "\n",
		`{ "Seq":7,"Epoch":2,"Resources":` + string(deepDoc) + "}\n",
		string(reply[:len(reply)-2]),
		string(reply[:len(reply)/2]),
		string(reply[:10]),
		"",
	} {
		bodies = append(bodies, []byte(s))
		deltas = append(deltas, 0)
	}
	for _, d := range []int8{-1, -100, 1, 127, -128} {
		bodies = append(bodies, reply)
		deltas = append(deltas, d)
	}
	return bodies, deltas
}

// FuzzSnapshotFrame holds the hand-written snapshot reply to the one
// json.Encoder wrote, and the follower's walk to json.Decoder:
//
//   - the reply is read to its end, whatever length it declares;
//   - a reply the follower installs is laid out as the encoder writes
//     it (memberDoc), and leaves the tree, its entity tags and NextID
//     marks, the position and the term that reading it member by member
//     leaves, and that json.Decoder reading it whole leaves, save where
//     that refuses the reply only for its depth;
//   - a reply the follower refuses leaves the tree as it was, and is not
//     the encoder's reply of what memberDoc reads from it;
//   - for any tree a reply installs, the hand-written reply of it, from
//     a live Cut and from the snapshot file a persist backend wrote of
//     it, is the encoder's byte for byte, and installs that tree.
func FuzzSnapshotFrame(f *testing.F) {
	bodies, deltas := snapshotSeeds(f)
	for i := range bodies {
		f.Add(bodies[i], deltas[i])
	}
	f.Fuzz(func(t *testing.T, body []byte, delta int8) {
		got, err := readSnapshotBody(bytes.NewReader(body), int64(len(body))+int64(delta))
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("declared %+d: read %d of %d bytes, %v", delta, len(got), len(body), err)
		}

		walked, members, decoded := store.New(), store.New(), store.New()
		for _, st := range []*store.Store{walked, members, decoded} {
			priorTree(t, st)
		}
		seq, epoch, err := installSnapshot(walked, body)
		doc, memberErr := memberInstall(members, body)
		wantSeq, wantEpoch, wantErr := decoderInstall(decoded, body)
		if err != nil {
			prior := store.New()
			priorTree(t, prior)
			sameTree(t, walked, prior)
			if memberErr == nil {
				enc := encoderReply(doc.Seq, doc.Epoch, doc.HiWater, doc.Resources)
				if bytes.Equal(body, enc) || bytes.Equal(body, bytes.TrimSuffix(enc, []byte("\n"))) {
					t.Fatalf("%.200q: installSnapshot refused the encoder's reply: %v", body, err)
				}
			}
			return
		}
		if memberErr != nil {
			t.Fatalf("%.200q: installSnapshot took a reply not laid out as the encoder's: %v", body, memberErr)
		}
		if seq != doc.Seq || epoch != doc.Epoch {
			t.Fatalf("%.200q: position %d/%d, the reply's %d/%d", body, seq, epoch, doc.Seq, doc.Epoch)
		}
		sameTree(t, walked, members)
		switch {
		case wantErr == nil:
			sameTree(t, walked, decoded)
			if seq != wantSeq || epoch != wantEpoch {
				t.Fatalf("%.200q: position %d/%d, json.Decoder %d/%d", body, seq, epoch, wantSeq, wantEpoch)
			}
		case !strings.Contains(wantErr.Error(), "exceeded max depth"):
			t.Fatalf("%.200q: installSnapshot took what json.Decoder refuses: %v", body, wantErr)
		}
		c, err := members.Cut()
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		b, err := persist.Open(persist.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if err := b.Bootstrap(members, seq); err != nil {
			t.Fatal(err)
		}
		disk, _, ok, err := b.LatestSnapshot()
		if err != nil || !ok {
			t.Fatalf("no disk snapshot: %v", err)
		}
		for _, src := range []struct {
			name      string
			marks     map[odata.ID]int
			resources []byte
		}{{"live", c.HiWater, c.Resources}, {"disk", c.HiWater, disk}, {"reply marks", doc.HiWater, c.Resources}} {
			hand := handReply(t, seq, epoch, src.marks, src.resources)
			if want := encoderReply(seq, epoch, src.marks, src.resources); !bytes.Equal(hand, want) {
				t.Fatalf("%s: hand-written reply\n%.300q\njson.Encoder\n%.300q", src.name, hand, want)
			}
		}
		again := store.New()
		if _, _, err := installSnapshot(again, handReply(t, seq, epoch, c.HiWater, c.Resources)); err != nil {
			t.Fatal(err)
		}
		sameTree(t, again, members)
	})
}

// TestColdWait pins the cold replica's schedule: every coldPoll for its
// first coldFast, then doubling from coldBackoff to the election's pace.
func TestColdWait(t *testing.T) {
	const retry = time.Second
	var got []time.Duration
	var last time.Duration
	for _, cold := range []time.Duration{0, time.Millisecond, 999 * time.Millisecond, time.Second, 1100 * time.Millisecond,
		1200 * time.Millisecond, 1400 * time.Millisecond, 2 * time.Second, 3 * time.Second, 5 * time.Second, time.Minute} {
		last = coldWait(cold, last, retry)
		got = append(got, last)
	}
	ms := time.Millisecond
	want := []time.Duration{2 * ms, 2 * ms, 2 * ms, 50 * ms, 100 * ms, 200 * ms, 400 * ms, 800 * ms, retry, retry, retry}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cold schedule %v, want %v", got, want)
	}
	// The election's pace caps the back-off from its first step.
	if got := coldWait(time.Hour, 0, 20*ms); got != 20*ms {
		t.Fatalf("back-off past a 20ms retry: %v", got)
	}
}

// benchTree is read_tree's 20 000-resource tree: 100 fabrics of 200
// endpoints.
func benchTree(b *testing.B) *store.Store {
	st := store.New()
	for f := 0; f < 100; f++ {
		prefix := odata.ID(fmt.Sprintf("/redfish/v1/Fabrics/Bench%03d", f))
		resources := make(map[odata.ID]any, 200)
		for j := 0; j < 200; j++ {
			id := prefix
			if j > 0 {
				id = prefix.Append("Endpoints", fmt.Sprintf("E%03d", j))
			}
			resources[id] = json.RawMessage(fmt.Sprintf(
				`{"@odata.id":%q,"@odata.type":"#Endpoint.v1_8_0.Endpoint","Id":"r%d","Name":"bench fabric %d resource %d",`+
					`"EndpointProtocol":"CXL","ConnectedEntities":[{"EntityType":"Processor","EntityRole":"Initiator"}],`+
					`"Status":{"Health":"OK","State":"Enabled"},"Oem":{"Bench":{"Seq":0,"Fabric":%d,"Slot":%d}}}`,
				id, j, f, j, f, j))
		}
		if err := st.PutSubtree(prefix, resources); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

// BenchmarkBootstrap is a replica's bootstrap from a leader holding the
// 20 000-resource tree, into an empty store: "frame" is the leader's
// handler and the follower's fetch, read and install over loopback
// HTTP; "decode" is the same with the reply encoded by json.Encoder and
// read by json.Decoder, as before the hand-written frame; "install" is
// PutSubtreeDoc of the document alone, the one walk a bootstrap needs.
func BenchmarkBootstrap(b *testing.B) {
	src := benchTree(b)
	leader, err := NewNode(Config{Store: src, Self: "http://leader.test", Leader: true, Logger: quietLogger()})
	if err != nil {
		b.Fatal(err)
	}
	leader.Start()
	defer leader.Stop()
	frame := httptest.NewServer(leader.Handler())
	defer frame.Close()
	decode := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := src.Cut()
		if err != nil {
			b.Error(err)
			return
		}
		writeJSON(w, http.StatusOK, snapshotDoc{Seq: c.Seq, Epoch: 1, HiWater: c.HiWater, Resources: c.Resources})
	}))
	defer decode.Close()
	c, err := src.Cut()
	if err != nil {
		b.Fatal(err)
	}
	get := func(b *testing.B, url string) *http.Response {
		resp, err := http.Get(url + "/repl/v1/snapshot")
		if err != nil {
			b.Fatal(err)
		}
		return resp
	}
	for _, bc := range []struct {
		name string
		run  func(*testing.B, *store.Store) error
	}{
		{"frame", func(b *testing.B, dst *store.Store) error {
			resp := get(b, frame.URL)
			defer resp.Body.Close()
			body, err := readSnapshotBody(resp.Body, resp.ContentLength)
			if err == nil {
				_, _, err = installSnapshot(dst, body)
			}
			return err
		}},
		{"decode", func(b *testing.B, dst *store.Store) error {
			resp := get(b, decode.URL)
			defer resp.Body.Close()
			var doc snapshotDoc
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			return dst.PutSubtreeDoc(context.Background(), treeRoot, doc.Resources)
		}},
		{"install", func(b *testing.B, dst *store.Store) error {
			return dst.PutSubtreeDoc(context.Background(), treeRoot, c.Resources)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dst := store.New()
				b.StartTimer()
				if err := bc.run(b, dst); err != nil {
					b.Fatal(err)
				}
				if i == 0 && dst.Len() != src.Len() {
					b.Fatalf("installed %d resources of %d", dst.Len(), src.Len())
				}
			}
		})
	}
}

// BenchmarkReplicaApply streams the records of 500 compose/decompose
// cycles on a 64-node testbed to a follower that is itself such a
// testbed, so the composer's projections watch every change it applies:
// one op is a follower started cold until it acknowledges the last
// record, its bootstrap from the snapshot before the cycles included.
// The leader writes every rec frame at once, as a backlog is shipped.
func BenchmarkReplicaApply(b *testing.B) {
	const cycles, nodes = 500, 64
	lf, err := core.New(core.Config{Nodes: nodes})
	if err != nil {
		b.Fatal(err)
	}
	src := lf.Service.Store()
	history := &captured{}
	src.AttachBackend(history, src.Seq())
	cut, err := src.Cut() // a record it already holds is a duplicate the follower skips
	if err != nil {
		b.Fatal(err)
	}
	req := composer.Request{Cores: 4, FabricMemoryMiB: 1024, StorageBytes: 1 << 30, GPUSlices: 1}
	for i := 0; i < cycles; i++ {
		comp, err := lf.Composer.Compose(req)
		if err != nil {
			b.Fatal(err)
		}
		if err := lf.Composer.Decompose(comp.ID); err != nil {
			b.Fatal(err)
		}
	}
	recs := history.recs
	last := recs[len(recs)-1].Seq
	lf.Close()
	stream, _ := encoderLine(frame{T: frameHello, E: 1, S: last})
	for i := range recs {
		line, err := encoderLine(frame{T: frameRec, Rec: &recs[i]})
		if err != nil {
			b.Fatal(err)
		}
		stream = append(stream, line...)
	}

	var acked chan struct{}
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case PathPrefix + "status":
			writeJSON(w, http.StatusOK, Status{Self: "http://leader.test", Role: RoleLeader, Epoch: 1, LastSeq: last})
		case PathPrefix + "snapshot":
			writeJSON(w, http.StatusOK, snapshotDoc{Seq: cut.Seq, Epoch: 1, HiWater: cut.HiWater, Resources: cut.Resources})
		case PathPrefix + "stream":
			rc := http.NewResponseController(w)
			if err := rc.EnableFullDuplex(); err != nil {
				b.Error(err)
				return
			}
			w.WriteHeader(http.StatusContinue)
			w.WriteHeader(http.StatusOK)
			w.Write(stream)
			rc.Flush()
			for dec := json.NewDecoder(r.Body); ; {
				var a ackLine
				if dec.Decode(&a) != nil {
					return
				}
				if a.Seq == last {
					select {
					case <-acked:
					default:
						close(acked)
					}
				}
			}
		default:
			http.NotFound(w, r)
		}
	}))
	defer leader.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ff, err := core.New(core.Config{Nodes: nodes})
		if err != nil {
			b.Fatal(err)
		}
		node, err := NewNode(Config{Store: ff.Service.Store(), Self: "http://replica.test", Peers: []string{leader.URL},
			LeaseTimeout: time.Minute, Logger: quietLogger()})
		if err != nil {
			b.Fatal(err)
		}
		acked = make(chan struct{})
		b.StartTimer()
		node.Start()
		select {
		case <-acked:
		case <-time.After(time.Minute):
			b.Fatalf("the follower never acknowledged seq %d; applied %d", last, node.Status().LastSeq)
		}
		b.StopTimer()
		node.Stop()
		leader.CloseClientConnections()
		ff.Close()
	}
	b.ReportMetric(float64(len(recs)), "records")
}
