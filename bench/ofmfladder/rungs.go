package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ofmf/bench/benchkit"
	"ofmf/internal/composer"
	"ofmf/internal/events"
	"ofmf/internal/obsv"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
)

// call performs one HTTP exchange of a replay, in-process or over
// loopback, and returns what the replay needs to build the next one.
type call func(kind benchkit.Kind, method, path, header string, body []byte) (status int, etag string, reply []byte)

// replay renders ops through the generator's own Session — entity tags
// remembered for conditional GETs, a rising Seq in every PATCH, the
// composition id carried from compose to decompose — and hands each
// request to do. It stops early at a unit boundary once budget is spent.
func replay(sess *benchkit.Session, ops []benchkit.Op, unit int, budget time.Duration, do call) error {
	start := time.Now()
	for i, op := range ops {
		if i%unit == 0 && time.Since(start) > budget {
			return nil
		}
		op, ex := sess.Render(op)
		status, etag, reply := do(op.Kind, ex.Method, ex.Path, ex.Header, ex.Body)
		if status != ex.Want {
			return fmt.Errorf("%s %s: status %d, want %d: %.200s", ex.Method, ex.Path, status, ex.Want, reply)
		}
		switch op.Kind {
		case benchkit.Get, benchkit.Patch:
			sess.ETags[op.Target] = etag
		case benchkit.Compose:
			var comp struct{ Id string }
			if err := json.Unmarshal(reply, &comp); err != nil || comp.Id == "" {
				return fmt.Errorf("compose: no Id in %.200s", reply)
			}
			sess.CompID = comp.Id
		}
	}
	return nil
}

// memWriter is the ResponseWriter of the in-process rungs: a fresh
// header map per request, as net/http allocates one, and the body kept
// for the replay.
type memWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.h }
func (w *memWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *memWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = 200
	}
	return w.body.Write(p)
}

func newRequest(method, path, header string, body []byte) *http.Request {
	var rd io.Reader // stays a nil interface without a body
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, _ := http.NewRequest(method, "http://ladder"+path, rd)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if name, value, ok := strings.Cut(strings.TrimSuffix(header, "\r\n"), ": "); ok {
		req.Header.Set(name, value)
	}
	return req
}

// handlerCall replays through h.ServeHTTP with no socket: the handler
// rung. Each call is one service.<kind> root span.
func handlerCall(rec *benchkit.Recorder, h http.Handler) call {
	trace := uint64(0)
	w := &memWriter{}
	return func(kind benchkit.Kind, method, path, header string, body []byte) (int, string, []byte) {
		req := newRequest(method, path, header, body)
		w.h, w.status = http.Header{}, 0
		w.body.Reset()
		trace++
		curTrace.Store(trace)
		id, end := rec.Start(trace, 0, "service."+kind.String())
		curParent.Store(id)
		h.ServeHTTP(w, req)
		end()
		curParent.Store(0)
		return w.status, w.h.Get("Etag"), w.body.Bytes()
	}
}

// serverSpans wraps the handler a loopback rung serves, so the
// service.<kind> span nests inside the client.<kind> span that is open
// while the request is on the wire.
func serverSpans(rec **benchkit.Recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind, _ := curKind.Load().(string)
		id, end := (*rec).Start(curTrace.Load(), curParent.Load(), "served."+kind)
		prev := curParent.Swap(id)
		next.ServeHTTP(w, r)
		curParent.Store(prev)
		end()
	})
}

// loopbackCall replays over conn with the lean client: the loopback
// rungs. Each call is one client.<kind> root span; latencies (us) are
// appended per kind whether or not spans are on.
func loopbackCall(rec *benchkit.Recorder, conn *benchkit.Conn, lat map[benchkit.Kind][]float64) call {
	trace := uint64(1 << 32)
	return func(kind benchkit.Kind, method, path, header string, body []byte) (int, string, []byte) {
		req := conn.Request(method, path, header, body)
		trace++
		curTrace.Store(trace)
		curKind.Store(kind.String())
		start := time.Now()
		id, end := rec.Start(trace, 0, "client."+kind.String())
		curParent.Store(id)
		status, hdr, reply, err := conn.Do(method, req)
		end()
		lat[kind] = append(lat[kind], float64(time.Since(start).Nanoseconds())/1e3)
		curParent.Store(0)
		if err != nil {
			return 0, "", []byte(err.Error())
		}
		return status, hdr.Get("Etag"), reply
	}
}

// mallocs counts heap allocations of fn.
func mallocs(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// obsvRung times the observability middleware around a handler that does
// nothing against that handler bare, and counts its allocations.
func obsvRung(s *stack, out map[string]float64) {
	noop := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(200) })
	wrapped := obsv.Middleware(noop, s.metrics, s.logger, service.RouteClass, s.tracer)
	const n = 5000
	loop := func(h http.Handler) (micros, allocs float64) {
		w := &memWriter{}
		req := newRequest("GET", benchkit.SystemURI(0), "", nil)
		run := func() {
			for i := 0; i < n; i++ {
				w.h, w.status = http.Header{}, 0
				h.ServeHTTP(w, req)
			}
		}
		run() // warm
		start := time.Now()
		allocs = mallocs(run) / n
		return float64(time.Since(start).Nanoseconds()) / 1e3 / n, allocs
	}
	bareUS, bareAllocs := loop(noop)
	fullUS, fullAllocs := loop(wrapped)
	out["obsv.self_us"] = fullUS - bareUS
	out["obsv.allocs_per_req"] = fullAllocs - bareAllocs
}

// storeRung calls the store's public functions directly for every op of
// the head that maps onto one.
func storeRung(s *stack, rec *benchkit.Recorder, sz benchkit.Sizes, ops []benchkit.Op, seed int64, out map[string]float64) error {
	ctx := context.Background()
	tree := sz.Tree()
	var views, patches []benchkit.Op
	lists := 0
	for _, op := range ops {
		switch op.Kind {
		case benchkit.Get, benchkit.CondGet, benchkit.ReplGet:
			views = append(views, op)
		case benchkit.Patch:
			patches = append(patches, op)
		case benchkit.List:
			lists++
		}
	}
	// View and CollectionView take tens of nanoseconds, less than two
	// clock reads: they are timed as one loop under one span each.
	sinkLen := 0
	loopNS := func(name string, n int, fn func(i int)) float64 {
		if n == 0 {
			return 0
		}
		const reps = 20
		_, end := rec.Start(0, 0, name)
		start := time.Now()
		for r := 0; r < reps; r++ {
			for i := 0; i < n; i++ {
				fn(i)
			}
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(reps*n)
		end()
		return ns
	}
	var viewErr error
	out["store.view_ns"] = loopNS("store.view.loop", len(views), func(i int) {
		if err := s.tree.View(odata.ID(tree[views[i].Target]), func(raw json.RawMessage, _ string) { sinkLen += len(raw) }); err != nil {
			viewErr = err
		}
	})
	if viewErr != nil {
		return fmt.Errorf("store.View: %w", viewErr)
	}
	out["store.collection_view_ns"] = loopNS("store.collection_view.loop", len(views)/10, func(int) {
		_ = s.tree.CollectionView(service.SystemsURI, func(p []byte, _ string) { sinkLen += len(p) })
	})
	_ = sinkLen

	trace := uint64(2 << 32)
	seq := seed * 1_000_000
	for _, op := range patches {
		seq++
		trace++
		curTrace.Store(trace)
		id, end := rec.Start(trace, 0, "store.patch")
		curParent.Store(id)
		err := s.tree.PatchCtx(ctx, odata.ID(tree[op.Target]),
			map[string]any{"Oem": map[string]any{"Bench": map[string]any{"Seq": seq}}}, "")
		end()
		curParent.Store(0)
		if err != nil {
			return fmt.Errorf("store.PatchCtx: %w", err)
		}
	}
	// The collection payload is rebuilt on the first read after its
	// membership changed: what a List right after a compose pays.
	if lists > 40 {
		lists = 40
	}
	for i := 0; i < lists; i++ {
		member := service.SystemsURI.Append(fmt.Sprintf("ladder-member-%d", i))
		if err := s.tree.PutCtx(ctx, member, map[string]any{"@odata.id": string(member), "Id": member.Leaf()}); err != nil {
			return err
		}
		_, end := rec.Start(0, 0, "store.collection_rebuild")
		err := s.tree.CollectionView(service.SystemsURI, func([]byte, string) {})
		end()
		if err != nil {
			return err
		}
		if err := s.tree.DeleteCtx(ctx, member); err != nil {
			return err
		}
	}
	return nil
}

// pushSubtrees seeds read_tree's fabrics through Store.PutSubtreeCtx, one
// span each, and reports what a stored resource costs in heap.
func pushSubtrees(s *stack, rec *benchkit.Recorder, sz benchkit.Sizes, out map[string]float64) error {
	if sz.Subtrees == 0 {
		return nil
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for i := 0; i < sz.Subtrees; i++ {
		prefix, raw := sz.SubtreePush(i)
		resources := make(map[odata.ID]any, len(raw))
		for id, r := range raw {
			resources[odata.ID(id)] = r
		}
		trace := uint64(3<<32) + uint64(i)
		curTrace.Store(trace)
		id, end := rec.Start(trace, 0, "store.put_subtree")
		curParent.Store(id)
		err := s.tree.PutSubtreeCtx(context.Background(), odata.ID(prefix), resources)
		end()
		curParent.Store(0)
		if err != nil {
			return fmt.Errorf("store.PutSubtreeCtx: %w", err)
		}
	}
	out["store.bytes_per_resource"] = float64(heap()-before) / float64(sz.Subtrees*sz.PerSubtree)
	return nil
}

// eventsRung publishes one ResourceUpdated per PATCH of the head on a bus
// of its own with write_events' subscriptions and waits, closed loop,
// until the last matching sink has it.
func eventsRung(rec *benchkit.Recorder, sz benchkit.Sizes, ops []benchkit.Op, out map[string]float64) error {
	bus := events.NewBus(events.DefaultConfig())
	defer bus.Close()
	fan, err := subscribe(bus, sz.Subs)
	if err != nil {
		return err
	}
	tree := sz.Tree()
	var delays []float64
	for i, op := range ops {
		if op.Kind != benchkit.Patch {
			continue
		}
		fan.arm()
		record := events.Record(redfish.EventResourceUpdated, strconv.Itoa(i), "resource updated", odata.ID(tree[op.Target]))
		start := time.Now()
		_, end := rec.Start(uint64(4<<32)+uint64(i), 0, "events.publish")
		bus.PublishCtx(context.Background(), record)
		end()
		<-fan.done
		delays = append(delays, float64(time.Since(start).Nanoseconds())/1e3)
	}
	out["events.deliver_p50_us"] = benchkit.Median(delays)
	return nil
}

// composerRung drives the Composability Manager's Go API for every
// compose/decompose pair of the head.
func composerRung(s *stack, rec *benchkit.Recorder, ops []benchkit.Op, budget time.Duration) error {
	ctx := context.Background()
	start := time.Now()
	trace := uint64(5 << 32)
	for i, op := range ops {
		if op.Kind != benchkit.Compose {
			continue
		}
		if time.Since(start) > budget {
			return nil
		}
		trace++
		curTrace.Store(trace)
		id, end := rec.Start(trace, 0, "composer.compose")
		curParent.Store(id)
		comp, err := s.f.Composer.ComposeCtx(ctx, composer.Request{Name: fmt.Sprintf("direct%d", i),
			Cores: 4, FabricMemoryMiB: 1024, StorageBytes: 1 << 30, GPUSlices: 1})
		end()
		if err != nil {
			return fmt.Errorf("composer.ComposeCtx: %w", err)
		}
		id, end = rec.Start(trace, 0, "composer.decompose")
		curParent.Store(id)
		err = s.f.Composer.DecomposeCtx(ctx, comp.ID)
		end()
		curParent.Store(0)
		if err != nil {
			return fmt.Errorf("composer.DecomposeCtx: %w", err)
		}
	}
	return nil
}
