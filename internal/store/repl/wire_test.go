package repl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ofmf/internal/odata"
	"ofmf/internal/store"
	"ofmf/internal/store/storetest"
)

// encoderLine is the line json.Encoder writes for v, as every stream
// writer did before rec frames and acks were written by hand.
func encoderLine(v any) ([]byte, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(v)
	return b.Bytes(), err
}

// TestReplWireLinesMatchEncoder: the hand-written rec and ack lines are
// json.Encoder's, byte for byte, and a rec line fails where it fails.
func TestReplWireLinesMatchEncoder(t *testing.T) {
	for _, rec := range storetest.Records() {
		want, wantErr := encoderLine(frame{T: frameRec, Rec: &rec})
		got, err := appendRecFrame([]byte("previous line\n"), rec)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%+v: appendRecFrame error %v, json.Encoder error %v", rec, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, append([]byte("previous line\n"), want...)) {
			t.Fatalf("%+v:\nappendRecFrame %q\njson.Encoder   %q", rec, got, want)
		}
	}
	for _, a := range []ackLine{{}, {Epoch: 1}, {Epoch: 3, Seq: 12345}, {Epoch: 1<<64 - 1, Seq: 1<<64 - 1}} {
		want, _ := encoderLine(a)
		if got := appendAck([]byte("x"), a); !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Fatalf("%+v: appendAck %q, json.Encoder %q", a, got, want)
		}
	}
}

// streamLines is one of every kind of line a stream carries, as
// json.Encoder writes them: every frame type, a rec frame of each record
// the codec takes, one whose resource outgrows the follower's read
// buffer, and ack lines.
func streamLines(t testing.TB) [][]byte {
	big := store.Record{Seq: 9, Op: store.OpPut, ID: "/redfish/v1/Chassis/big",
		Raw: json.RawMessage(`{"Name":"` + strings.Repeat("x", streamReadBuffer+100) + `"}`)}
	frames := []frame{
		{T: frameHello, E: 2, S: 40}, {T: frameKA, E: 2, S: 41}, {T: frameEnd, E: 2, Reason: endSnapshot},
		{T: frameRec, Rec: &big},
	}
	for _, rec := range storetest.Records() {
		frames = append(frames, frame{T: frameRec, Rec: &rec})
	}
	var lines [][]byte
	for _, f := range frames {
		if line, err := encoderLine(f); err == nil {
			lines = append(lines, line)
		}
	}
	for _, a := range []ackLine{{Epoch: 1, Seq: 7}, {Epoch: 1<<64 - 1, Seq: 0}} {
		line, err := encoderLine(a)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	return lines
}

// sameFrame is reflect.DeepEqual on two frames, with their records
// compared by storetest.SameRecord.
func sameFrame(a, b frame) bool {
	if (a.Rec == nil) != (b.Rec == nil) || (a.Rec != nil && !storetest.SameRecord(*a.Rec, *b.Rec)) {
		return false
	}
	a.Rec, b.Rec = nil, nil
	return a == b
}

// TestReplFrameReaderMatchesUnmarshal reads a stream of every kind of
// line with the follower's reader: each frame is the one json.Unmarshal
// makes of its line, and the rec line longer than the read buffer is
// still read by hand.
func TestReplFrameReaderMatchesUnmarshal(t *testing.T) {
	lines := streamLines(t)
	lr := newLineReader(bytes.NewReader(bytes.Join(lines, nil)), streamReadBuffer)
	var rec store.Record
	for _, want := range lines {
		line, err := lr.next()
		if err != nil || !bytes.Equal(line, want) {
			t.Fatalf("line reader: %q, %v; want %q", line, err, want)
		}
		var oracle frame
		oracleErr := json.Unmarshal(line, &oracle)
		got, err := decodeFrame(line, &rec)
		if (err != nil) != (oracleErr != nil) || !sameFrame(got, oracle) {
			t.Fatalf("%q: decodeFrame %+v, %v; json.Unmarshal %+v, %v", line, got, err, oracle, oracleErr)
		}
		if got.T == frameRec && got.Rec.ID == "/redfish/v1/Chassis/big" && got.Rec != &rec {
			t.Errorf("the rec line longer than the read buffer went to json.Unmarshal")
		}
	}
	if line, err := lr.next(); err != io.EOF {
		t.Fatalf("after the last line: %q, %v; want io.EOF", line, err)
	}
}

// FuzzStreamLine holds the stream's by-hand readers to json.Unmarshal:
// on any line, decodeFrame and decodeAck fail exactly when it fails and
// otherwise return what it decodes. A line json.Unmarshal refuses only
// for its depth is held to the record between a rec line's head and its
// closing brace, as json.Unmarshal reads that on its own
// (TestReplBootstrapAtDepthLimit streams one).
func FuzzStreamLine(f *testing.F) {
	for _, line := range streamLines(f) {
		f.Add(line)
	}
	for _, seed := range []string{
		`{"Epoch":1,"Seq":2}`, `{"Epoch":01,"Seq":2}` + "\n", `{"Epoch":1,"Seq":18446744073709551616}` + "\n",
		`{"Seq":2,"Epoch":1}` + "\n", `{"Epoch":1,"Seq":2}}` + "\n", `{"Epoch":1,"Seq":2} ` + "\n", `{"epoch":1,"seq":2}` + "\n",
		`{"t":"rec","r":{"s":1,"o":"d","i":"/a"}}`, `{"t":"rec","r":{"s":1,"o":"d","i":"/a"}}}` + "\n",
		`{"t":"rec","r":{"s":1,"o":"d","i":"/a"},"t":"ka"}` + "\n", `{"t":"rec","r":{"s":1,"o":"p","i":"/a","r":{"N":1}},"r":null}` + "\n",
		`{"t":"rec","r":{"s":1,"o":"d","i":"/a"}` + "\r\n", `{"t":"rec","r":null}` + "\n", "\n", "",
		`{"t":"rec","r":{"s":1,"o":"p","i":"/a","r":` + strings.Repeat(`{"a":`, 9999) + "1" + strings.Repeat("}", 9999) + "}}\n",
		`{"t":"rec","r": {"s":1,"o":"p","i":"/a","r":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + "} }\n",
		`{"t":"rec","r":{"s":1,"o":"p","i":"/a","r":{}}, "t":"ka"}` + "\n", `{"t":"rec","r":{"s":1,"s":2,"O":"d","i":"/a"} }` + "\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var wantFrame frame
		wantErr := json.Unmarshal(line, &wantFrame)
		var rec store.Record
		got, err := decodeFrame(line, &rec)
		if wantErr != nil && strings.Contains(wantErr.Error(), "exceeded max depth") {
			wantFrame, wantErr = frame{}, errors.New("too deep, and no rec line")
			if env, ok := bytes.CutPrefix(line, []byte(`{"t":"rec","r":`)); ok {
				env = bytes.TrimSuffix(env, []byte("\n"))
				var want store.Record
				if n := len(env) - 1; n > 0 && env[n] == '}' && json.Unmarshal(env[:n], &want) == nil {
					wantFrame, wantErr = frame{T: frameRec, Rec: &want}, nil
				}
			}
		}
		if (err != nil) != (wantErr != nil) || (err == nil && !sameFrame(got, wantFrame)) {
			t.Fatalf("%.200q: decodeFrame %+v, %v; json.Unmarshal %+v, %v", line, got, err, wantFrame, wantErr)
		}
		var wantAck ackLine
		wantErr = json.Unmarshal(line, &wantAck)
		a, err := decodeAck(line)
		if (err != nil) != (wantErr != nil) || (err == nil && a != wantAck) {
			t.Fatalf("%q: decodeAck %+v, %v; json.Unmarshal %+v, %v", line, a, err, wantAck, wantErr)
		}
	})
}

// captured is a store backend that keeps a copy of every record.
type captured struct{ recs []store.Record }

func (c *captured) Append(batch []store.Record) func() error {
	for _, rec := range batch {
		rec.Raw = bytes.Clone(rec.Raw)
		c.recs = append(c.recs, rec)
	}
	return nil
}

func (c *captured) Close() error { return nil }

// writeHistory commits puts, a patch, a delete and a subtree swap to st:
// resources the encoder escapes inside, ids it escapes (whose records go
// to json.Marshal), and one resource longer than the stream's read
// buffer.
func writeHistory(t *testing.T, st *store.Store) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		must(st.Put(odata.ID(fmt.Sprintf("/redfish/v1/Chassis/c%d", i)),
			map[string]any{"Name": fmt.Sprintf("c%d", i), "Oem": map[string]any{"Note": "<a> & b \u2028", "N": i}}))
	}
	must(st.Put("/redfish/v1/Chassis/é日本", map[string]any{"Name": "é"}))
	must(st.Put("/redfish/v1/Chassis/<x>&", map[string]any{"Name": "escaped id"}))
	must(st.Put("/redfish/v1/Chassis/big", map[string]any{"Name": strings.Repeat("y", streamReadBuffer+1)}))
	must(st.Patch("/redfish/v1/Chassis/c3", map[string]any{"Name": "patched", "Oem": nil}, ""))
	must(st.Delete("/redfish/v1/Chassis/c4"))
	must(st.PutSubtree("/redfish/v1/Fabrics/F", map[odata.ID]any{
		"/redfish/v1/Fabrics/F":             map[string]any{"Name": "F"},
		"/redfish/v1/Fabrics/F/Endpoints/1": map[string]any{"Name": "e1"},
	}))
}

// TestReplHeadFollowerOfEncoderLeader: a follower of this build streams
// from a leader that writes every frame with json.Encoder and reads acks
// with json.Decoder, as builds before the hand-written lines did, and
// ends with the leader's tree byte for byte.
func TestReplHeadFollowerOfEncoderLeader(t *testing.T) {
	src := store.New()
	history := &captured{}
	src.AttachBackend(history, 0)
	writeHistory(t, src)
	recs := history.recs
	last := recs[len(recs)-1].Seq

	acked := make(chan struct{})
	var ackedOnce atomic.Bool
	var leader *httptest.Server
	leader = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case PathPrefix + "status":
			writeJSON(w, http.StatusOK, Status{Self: leader.URL, Role: RoleLeader, Epoch: 1, LastSeq: last})
		case PathPrefix + "snapshot":
			writeJSON(w, http.StatusOK, snapshotDoc{Epoch: 1, Resources: json.RawMessage(`{}`)})
		case PathPrefix + "stream":
			rc := http.NewResponseController(w)
			if err := rc.EnableFullDuplex(); err != nil {
				t.Error(err)
				return
			}
			w.WriteHeader(http.StatusContinue)
			w.WriteHeader(http.StatusOK)
			enc := json.NewEncoder(w)
			enc.Encode(frame{T: frameHello, E: 1, S: last})
			for i := range recs {
				enc.Encode(frame{T: frameRec, Rec: &recs[i]})
			}
			rc.Flush()
			for dec := json.NewDecoder(r.Body); ; {
				var a ackLine
				if dec.Decode(&a) != nil {
					return
				}
				if a.Epoch == 1 && a.Seq == last && ackedOnce.CompareAndSwap(false, true) {
					close(acked)
				}
			}
		default:
			http.NotFound(w, r)
		}
	}))
	defer leader.Close()

	dst := store.New()
	node, err := NewNode(Config{Store: dst, Self: "http://replica.test", Peers: []string{leader.URL},
		LeaseTimeout: time.Minute, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	defer leader.CloseClientConnections()
	defer node.Stop()
	select {
	case <-acked:
	case <-time.After(10 * time.Second):
		t.Fatalf("the follower never acknowledged seq %d; applied %d", last, node.Status().LastSeq)
	}
	assertSameExport(t, dst, src)
}

// TestReplEncoderFollowerOfHeadLeader: a follower that reads frames with
// json.Decoder and writes acks with json.Encoder, as builds before the
// hand-written lines did, rebuilds this build's leader's tree byte for
// byte, and the leader takes its acks.
func TestReplEncoderFollowerOfHeadLeader(t *testing.T) {
	src := store.New()
	node, err := NewNode(Config{Store: src, Self: "http://leader.test", Leader: true,
		LeaseTimeout: time.Minute, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	defer node.Stop()
	srv := httptest.NewServer(node.Handler())
	defer srv.Close()
	defer srv.CloseClientConnections()

	const peer = "http://old-follower.test"
	s := openRawStream(t, srv.URL, peer)
	writeHistory(t, src)
	last := src.Seq()
	dst := store.New()
	for applied := uint64(0); applied < last; {
		f := s.until(t, frameRec)
		if f.Rec.Seq != applied+1 {
			t.Fatalf("rec seq %d after %d", f.Rec.Seq, applied)
		}
		if err := dst.Apply(*f.Rec); err != nil {
			t.Fatal(err)
		}
		applied = f.Rec.Seq
	}
	if err := json.NewEncoder(s.acks).Encode(ackLine{Epoch: 1, Seq: last}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the leader to take the ack", func() bool {
		return node.Status().Followers[peer].AckSeq == last
	})
	assertSameExport(t, dst, src)
}

func assertSameExport(t *testing.T, got, want *store.Store) {
	t.Helper()
	g, err := got.Export()
	if err != nil {
		t.Fatal(err)
	}
	w, err := want.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("follower's Export differs from the leader's:\n got %.400s\nwant %.400s", g, w)
	}
}

// flushCounter counts the flushes asked of the ResponseWriter it wraps.
type flushCounter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (f flushCounter) Flush() {
	f.n.Add(1)
	f.ResponseWriter.(http.Flusher).Flush()
}

func (f flushCounter) Unwrap() http.ResponseWriter { return f.ResponseWriter }

// TestReplStreamFlushesPerBatch: a stream opened on a backlog of three
// batches flushes once for its hello and once per batch, not once per
// record.
func TestReplStreamFlushesPerBatch(t *testing.T) {
	st := store.New()
	node, err := NewNode(Config{Store: st, Self: "http://leader.test", Leader: true,
		LeaseTimeout: time.Minute, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	defer node.Stop()
	var flushes atomic.Int64
	h := node.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(flushCounter{w, &flushes}, r)
	}))
	defer srv.Close()

	const backlog = 3 * streamBatch
	for i := 0; i < backlog; i++ {
		if err := st.Put(odata.ID(fmt.Sprintf("/redfish/v1/Chassis/c%d", i)), map[string]any{"Name": "c"}); err != nil {
			t.Fatal(err)
		}
	}
	body, acks := io.Pipe()
	defer acks.Close()
	resp, err := http.Post(srv.URL+"/repl/v1/stream?from=0&peer=http://raw.test", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open stream: %s", resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	for recs := 0; recs < backlog; {
		var f frame
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("after %d records: %v", recs, err)
		}
		if f.T == frameRec {
			recs++
		}
	}
	if got := flushes.Load(); got > 1+3 {
		t.Fatalf("%d flushes for a hello and %d records in 3 batches, want at most 4", got, backlog)
	}
}
