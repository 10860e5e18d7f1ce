package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"ofmf/bench/benchkit"
	"ofmf/internal/core"
	"ofmf/internal/events"
	"ofmf/internal/obsv"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
	"ofmf/internal/store"
	"ofmf/internal/store/persist"
	"ofmf/internal/store/repl"
)

// One op is in flight at a time, so "the span now open" is process-wide
// state: the backend wrapper and the server-side handler wrapper read it
// to parent their spans without any change inside the program.
var (
	curTrace  atomic.Uint64
	curParent atomic.Uint64
	curKind   atomic.Value // string
)

// spanBackend wraps the file backend the way cmd/ofmf attaches it and
// records one persist.append span per batch, from Append until the
// returned wait reports the batch durable.
type spanBackend struct {
	inner *persist.FileBackend
	rec   **benchkit.Recorder // the recorder of the rung now running; nil pointer target = spans off
}

// spanned opens the span, runs the append, and closes the span when the
// returned wait reports the batch durable.
func (b spanBackend) spanned(appendTo func() func() error) func() error {
	_, end := (*b.rec).Start(curTrace.Load(), curParent.Load(), "persist.append")
	wait := appendTo()
	return func() error {
		var err error
		if wait != nil {
			err = wait()
		}
		end()
		return err
	}
}

func (b spanBackend) Append(batch []store.Record) func() error {
	return b.spanned(func() func() error { return b.inner.Append(batch) })
}

// AppendShard keeps the store on the same per-shard path production
// takes when the shard counts match.
func (b spanBackend) AppendShard(shard int, batch []store.Record) func() error {
	return b.spanned(func() func() error { return b.inner.AppendShard(shard, batch) })
}

func (b spanBackend) Shards() int  { return b.inner.Shards() }
func (b spanBackend) Close() error { return b.inner.Close() }

// stack is the program assembled in-process exactly as cmd/ofmf does it
// with -testbed -data-dir: core.New, persist.Open + Recover +
// AttachBackend, and with a role, repl.NewNode.
type stack struct {
	f       *core.Framework
	tree    *store.Store
	backend *persist.FileBackend
	metrics *obsv.Metrics
	logger  *slog.Logger
	tracer  *obsv.Tracer
	rec     *benchkit.Recorder // swapped per rung; nil turns spans off
	node    *repl.Node
	closers []func()
}

func newStack(dir string, nodes int) (*stack, error) {
	s := &stack{}
	s.metrics = obsv.NewMetrics(obsv.NewRegistry())
	// cmd/ofmf logs at info to a stderr the benchmark discards; the
	// formatting cost stays on the path.
	s.logger = obsv.NewLogger(io.Discard, slog.LevelInfo)
	s.tracer = obsv.NewTracer(s.metrics.Registry(), obsv.TracerOptions{Logger: s.logger})
	f, err := core.New(core.Config{Nodes: nodes, Service: service.Config{
		Logger: s.logger, Metrics: s.metrics, Tracer: s.tracer, StoreShards: 1}})
	if err != nil {
		return nil, err
	}
	s.f, s.tree = f, f.Service.Store()
	s.closers = append(s.closers, f.Close)
	s.backend, err = persist.Open(persist.Options{Dir: dir, Fsync: true, Shards: 1,
		SnapshotInterval: 5 * time.Minute, Logger: s.logger, Metrics: s.metrics, Tracer: s.tracer})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// attach recovers the data dir and starts logging, unreplicated.
func (s *stack) attach() error {
	stats, err := s.backend.Recover(s.tree)
	if err != nil {
		return err
	}
	s.tree.AttachBackend(spanBackend{s.backend, &s.rec}, stats.LastSeq)
	s.backend.StartSnapshots(s.tree)
	return nil
}

// attachLeader recovers the data dir and attaches through the
// replication tee, semi-synchronous with one follower, serving /repl/v1
// on self.
func (s *stack) attachLeader(self, peer string) error {
	stats, err := s.backend.Recover(s.tree)
	if err != nil {
		return err
	}
	s.backend.StartSnapshots(s.tree)
	s.node, err = repl.NewNode(repl.Config{
		Store: s.tree, Self: self, Peers: []string{peer}, Leader: true, BootEpoch: stats.LastEpoch,
		MinSync: 1, SyncTimeout: 5 * time.Second, LeaseTimeout: 3 * time.Second,
		Inner:        spanBackend{s.backend, &s.rec},
		DiskTail:     s.backend.ReadRecords,
		DiskFlush:    s.backend.Flush,
		DiskSnapshot: s.backend.LatestSnapshot,
		Logger:       s.logger, Metrics: s.metrics,
	})
	if err != nil {
		return err
	}
	s.node.Start()
	s.closers = append(s.closers, s.node.Stop)
	return nil
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// serve runs h on a fresh loopback port until the returned stop.
func serve(h http.Handler) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}

// listen reserves a loopback port, for nodes that must know their own
// URL before their handler exists.
func listen() (ln net.Listener, addr string, err error) {
	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, ln.Addr().String(), nil
}

// replica is the follower of the semi-sync rung: a bare store fed by
// repl.Node, serving only /repl/v1.
func startReplica(self, leader string, ln net.Listener, logger *slog.Logger) (stop func(), err error) {
	st := store.New()
	node, err := repl.NewNode(repl.Config{Store: st, Self: self, Peers: []string{leader},
		LeaseTimeout: 3 * time.Second, Logger: logger, Metrics: obsv.NewMetrics(obsv.NewRegistry())})
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle(repl.PathPrefix, node.Handler())
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	node.Start()
	return func() { node.Stop(); _ = srv.Close() }, nil
}

// countSink is an event destination that keeps the wire bytes path
// (BytesSink) and reports each delivery to its fan.
type countSink struct{ fan *fanout }

func (c countSink) Deliver(context.Context, redfish.Event) error { c.fan.got(); return nil }
func (c countSink) DeliverBytes(context.Context, string, []byte) error {
	c.fan.got()
	return nil
}

// fanout times one publish until the last matching subscriber has it.
type fanout struct {
	matching int64
	pending  atomic.Int64
	done     chan struct{}
}

func (f *fanout) arm() { f.pending.Store(f.matching) }
func (f *fanout) got() {
	if f.pending.Add(-1) == 0 {
		f.done <- struct{}{}
	}
}

// subscribe registers subs counting sinks on bus, one in eight matching
// ResourceUpdated and the rest listening for Alert, as write_events does
// over HTTP.
func subscribe(bus *events.Bus, subs int) (*fanout, error) {
	fan := &fanout{done: make(chan struct{}, 1)}
	for i := 0; i < subs; i++ {
		types := []string{redfish.EventAlert}
		if i%8 == 0 {
			types = []string{redfish.EventResourceUpdated}
			fan.matching++
		}
		if _, err := bus.Subscribe(countSink{fan}, events.Filter{EventTypes: types}, fmt.Sprintf("bench-%d", i)); err != nil {
			return nil, err
		}
	}
	return fan, nil
}
