// Command ofmfladder is the traced half of the benchmark: it assembles
// the OFMF in-process exactly as cmd/ofmf does and replays the head of a
// workload's seeded op sequence through a ladder of rungs, each adding
// one layer — the store's own functions, the WAL backend, the event bus,
// the observability middleware, the service handler, the composer, then
// loopback HTTP with the lean client, then a semi-synchronous replica.
// Every call into a layer's public function is wrapped in a span from
// this file set; nothing inside the program changes. ofmfbench runs it
// for -trace 1 and merges the metric map it prints last.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ofmf/bench/benchkit"
	"ofmf/internal/store/repl"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ofmfladder: "+format+"\n", args...)
	os.Exit(1)
}

func durations(spans []benchkit.Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e3)
		}
	}
	return out
}

func meanUS(ns []float64) float64 { return benchkit.Mean(ns) / 1e3 }

func main() {
	var (
		workload = flag.String("workload", "", "workload whose op sequence is replayed")
		seed     = flag.Int64("seed", 1, "seed of the op sequence")
		spansOut = flag.String("spans", "", "file the spans are written to, as JSON lines")
		dir      = flag.String("dir", "", "scratch directory for the data dirs")
		smoke    = flag.Bool("smoke", false, "tiny sizes, for the smoke test")
	)
	flag.Parse()
	sz, headOps, budget := benchkit.Full(*workload), 2000, 1500*time.Millisecond
	if *smoke {
		sz, headOps, budget = benchkit.Smoke(*workload), 120, 300*time.Millisecond
	}
	if sz.Batch == 0 || *dir == "" {
		fail("-workload and -dir are required")
	}
	gen := benchkit.NewGen(*workload, *seed, sz)
	var head []benchkit.Op
	for len(head) < headOps {
		head = append(head, gen.Batch()...)
	}
	head = head[:headOps/6*6] // whole compose cycles and whole replicated pairs
	unit := map[string]int{"compose_cycle": 3, "repl_semisync": 2}[*workload]
	if unit == 0 {
		unit = 1
	}
	primary, _, _ := benchkit.Role(*workload)

	out := map[string]float64{}
	rec := benchkit.NewRecorder()
	s, err := newStack(filepath.Join(*dir, "data"), sz.Nodes)
	if err != nil {
		fail("stack: %v", err)
	}
	defer s.close()
	if err := s.attach(); err != nil {
		fail("attach: %v", err)
	}
	s.rec = rec
	if sz.Subs > 0 {
		if _, err := subscribe(s.f.Service.Bus(), sz.Subs); err != nil {
			fail("subscribe: %v", err)
		}
	}

	// Rungs that call one layer directly.
	if err := pushSubtrees(s, rec, sz, out); err != nil {
		fail("%v", err)
	}
	obsvRung(s, out)
	if err := storeRung(s, rec, sz, head, *seed, out); err != nil {
		fail("%v", err)
	}
	if sz.Subs > 0 {
		if err := eventsRung(rec, sz, head, out); err != nil {
			fail("%v", err)
		}
	}
	if *workload == "compose_cycle" {
		if err := composerRung(s, rec, head, budget); err != nil {
			fail("%v", err)
		}
	}

	// The handler rung: the whole service, no socket.
	handler := s.f.Handler()
	if err := replay(benchkit.NewSession(sz, *seed+1), head, unit, budget, handlerCall(rec, handler)); err != nil {
		fail("handler rung: %v", err)
	}
	perCall := func(method, path string, body []byte, n int) float64 {
		do := handlerCall(nil, handler)
		return mallocs(func() {
			for i := 0; i < n; i++ {
				do(benchkit.Get, method, path, "", body)
			}
		}) / float64(n)
	}
	out["service.allocs_per_get"] = perCall("GET", benchkit.SystemURI(0), nil, 200)
	out["service.allocs_per_patch"] = perCall("PATCH", benchkit.SystemURI(0), []byte(`{"Oem":{"Bench":{"Seq":1}}}`), 50)

	// The net rung: the lean client against a handler that does nothing,
	// which is what Go's HTTP stack and loopback cost by themselves.
	out["net.self_us"] = loopbackP50(http.HandlerFunc(benchkit.NullHandler), 2000)

	// The loopback rungs: spans off, then on.
	addr, stop, err := serve(serverSpans(&s.rec, handler))
	if err != nil {
		fail("serve: %v", err)
	}
	conn, err := benchkit.Dial(addr)
	if err != nil {
		fail("dial: %v", err)
	}
	off, on := map[benchkit.Kind][]float64{}, map[benchkit.Kind][]float64{}
	s.rec = nil
	if err := replay(benchkit.NewSession(sz, *seed+2), head, unit, budget, loopbackCall(nil, conn, off)); err != nil {
		fail("loopback rung: %v", err)
	}
	s.rec = rec
	if err := replay(benchkit.NewSession(sz, *seed+3), head, unit, budget, loopbackCall(rec, conn, on)); err != nil {
		fail("traced loopback rung: %v", err)
	}
	conn.Close()
	stop()

	if *workload == "repl_semisync" {
		semi, err := semiSyncRung(filepath.Join(*dir, "leader"), sz, head, *seed+4, budget)
		if err != nil {
			fail("semi-sync rung: %v", err)
		}
		out["repl.sync_wait_us"] = benchkit.Median(semi) - benchkit.Median(off[benchkit.Patch])
	}

	// A compaction of the tree the rungs left behind: what the periodic
	// snapshot costs (none falls inside a run at the default five minutes).
	_, end := rec.Start(0, 0, "persist.snapshot")
	err = s.backend.Compact()
	end()
	if err != nil {
		fail("compact: %v", err)
	}

	spans := rec.Spans()
	self := benchkit.SelfTimes(spans)
	viewUS := out["store.view_ns"] / 1e3
	out["store.patch_us"] = meanUS(self["store.patch"])
	out["store.put_subtree_us"] = meanUS(self["store.put_subtree"])
	out["store.collection_rebuild_us"] = meanUS(self["store.collection_rebuild"])
	out["persist.append_us"] = meanUS(self["persist.append"])
	out["persist.snapshot_s"] = meanUS(self["persist.snapshot"]) / 1e6
	out["composer.compose_self_us"] = meanUS(self["composer.compose"])
	out["composer.decompose_self_us"] = meanUS(self["composer.decompose"])
	// A handler span's self time still holds the layers beneath it that
	// cannot be wrapped from outside — the middleware and the store — so
	// their own rungs are subtracted.
	minus := func(name string, layers float64) float64 {
		if len(self[name]) == 0 {
			return 0
		}
		return meanUS(self[name]) - layers
	}
	out["service.get_self_us"] = minus("service.get", out["obsv.self_us"]+viewUS)
	out["service.expand_self_us"] = minus("service.expand", out["obsv.self_us"]+float64(sz.Nodes)*viewUS)
	out["service.patch_self_us"] = minus("service.patch", out["obsv.self_us"]+out["store.patch_us"]+viewUS)

	e2e := benchkit.Median(off[primary])
	if e2e > 0 {
		inProcess := benchkit.Median(durations(spans, "service."+primary.String()))
		out["ladder.sum_over_e2e"] = (out["net.self_us"] + inProcess) / e2e
		out["trace.overhead_rel"] = benchkit.Median(on[primary]) / e2e
	}

	if *spansOut != "" {
		if err := benchkit.WriteSpans(*spansOut, spans); err != nil {
			fail("spans: %v", err)
		}
	}
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-30s %14.4f\n", n, out[n])
	}
	line, _ := json.Marshal(out)
	fmt.Printf("%s\n", line)
}

// loopbackP50 serves h on loopback and returns the median latency, in
// microseconds, of n lean-client GETs after a tenth of warm-up.
func loopbackP50(h http.Handler, n int) float64 {
	addr, stop, err := serve(h)
	if err != nil {
		fail("serve: %v", err)
	}
	defer stop()
	conn, err := benchkit.Dial(addr)
	if err != nil {
		fail("dial: %v", err)
	}
	defer conn.Close()
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, _, _, err := conn.Do("GET", conn.Request("GET", "/null", "", nil)); err != nil {
			fail("net rung: %v", err)
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return benchkit.SegmentP50(samples)
}

// semiSyncRung is the top rung: a second stack attached as a replication
// leader with one in-process follower and -repl-min-sync 1, PATCHed over
// loopback. It returns the PATCH latencies in microseconds.
func semiSyncRung(dir string, sz benchkit.Sizes, head []benchkit.Op, seed int64, budget time.Duration) ([]float64, error) {
	s, err := newStack(dir, sz.Nodes)
	if err != nil {
		return nil, err
	}
	defer s.close()
	lln, laddr, err := listen()
	if err != nil {
		return nil, err
	}
	rln, raddr, err := listen()
	if err != nil {
		return nil, err
	}
	if err := s.attachLeader("http://"+laddr, "http://"+raddr); err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/", s.f.Handler())
	mux.Handle(repl.PathPrefix, s.node.Handler())
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(lln) }()
	defer srv.Close()
	stopReplica, err := startReplica("http://"+raddr, "http://"+laddr, rln, s.logger)
	if err != nil {
		return nil, err
	}
	defer stopReplica()

	conn, err := benchkit.Dial(laddr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	// A PATCH is refused until the follower streams; wait for the first
	// one the semi-synchronous leader acknowledges.
	deadline := time.Now().Add(20 * time.Second)
	for {
		status, _, _, err := conn.Do("PATCH", conn.Request("PATCH", benchkit.SystemURI(0), "", []byte(`{"Oem":{"Bench":{"Seq":0}}}`)))
		if err == nil && status == 200 {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("follower never acknowledged a write (status %d, err %v)", status, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	lat := map[benchkit.Kind][]float64{}
	var patches []benchkit.Op
	for _, op := range head {
		if op.Kind == benchkit.Patch {
			patches = append(patches, op)
		}
	}
	if err := replay(benchkit.NewSession(sz, seed), patches, 1, budget, loopbackCall(nil, conn, lat)); err != nil {
		return nil, err
	}
	return benchkit.Warm(lat[benchkit.Patch]), nil
}
