// Command ofmf runs the OpenFabrics Management Framework service: the
// centralized Redfish/Swordfish tree, session/event/task/telemetry
// services, the aggregation endpoint agents register against, and the
// Composability Layer at /composer/v1, composing from the pools those
// agents register; -testbed adds a fully emulated composable testbed.
//
// Observability: every request gets a trace span and one correlation id
// (X-Request-Id); the structured slog logger (-log-level) carries the
// per-request access line at debug and logs a request that fails with a
// 5xx, panics or exceeds -trace-slow at warn; Prometheus-format metrics
// are exposed at /metrics (-metrics), and Go profiling at /debug/pprof
// when enabled (-pprof).
//
// Durability: with -data-dir the resource tree survives restarts — every
// mutation is appended to a write-ahead log (group-committed; -fsync
// selects whether commits wait for stable storage), a compacted snapshot
// is taken whenever the log since the last one outgrows the live tree,
// and boot recovers the newest snapshot plus the log tail, truncating
// records torn by a crash.
// Without -data-dir the store is purely in-memory, as before.
//
// Usage:
//
//	ofmf -addr :8080                      # wait for agents to register pools
//	ofmf -addr :8080 -testbed -nodes 16   # emulated hardware + composer
//	ofmf -addr :8080 -auth admin:secret   # require session tokens
//	ofmf -addr :8080 -data-dir /var/lib/ofmf   # durable resource tree
//	ofmf -addr :8080 -log-level debug -pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"ofmf/internal/core"
	"ofmf/internal/events"
	"ofmf/internal/obsv"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
	"ofmf/internal/sessions"
	"ofmf/internal/store"
	"ofmf/internal/store/persist"
	"ofmf/internal/store/repl"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		auth        = flag.String("auth", "", "require authentication with user:password")
		testbed     = flag.Bool("testbed", false, "assemble the emulated composable testbed")
		nodes       = flag.Int("nodes", 8, "testbed compute node count")
		oomMiB      = flag.Int64("oom-hot-add", 0, "enable the OOM mitigation rule with this hot-add step (MiB)")
		dataDir     = flag.String("data-dir", "", "durable store directory (WAL + snapshots); empty keeps the tree in-memory only")
		fsync       = flag.Bool("fsync", true, "with -data-dir: mutations wait for the WAL fsync (group-committed); false flushes to the OS only")
		logLevel    = flag.String("log-level", "info", "log level: debug (adds a per-request access line), info, warn, error")
		withMetrics = flag.Bool("metrics", true, "expose Prometheus-format metrics at /metrics")
		withPprof   = flag.Bool("pprof", false, "expose Go profiling at /debug/pprof")
		traceSlow   = flag.Duration("trace-slow", 0,
			"log any trace whose entry span exceeds this duration (0 disables slow-trace logging)")

		sweepInterval = flag.Duration("sweep-interval", 10*time.Second,
			"aggregation-source liveness sweep cadence (0 disables the sweeper)")
		heartbeatTimeout = flag.Duration("heartbeat-timeout", 30*time.Second,
			"heartbeat age at which an agent is marked Degraded; 3x marks it Unavailable")
		eventWorkers = flag.Int("event-workers", 0,
			"event delivery worker pool size (0 sizes to the CPU count)")

		role = flag.String("role", "",
			"replication role: leader (read-write, ships its WAL) or replica (read-only, follows the leader; promotes on failover); empty runs unreplicated")
		peers   []string
		selfURL = flag.String("self-url", "",
			"this node's externally reachable base URL, required with -role")
		minSync = flag.Int("repl-min-sync", 0,
			"followers that must acknowledge a write before the client is acknowledged (0 ships asynchronously)")
		syncTimeout = flag.Duration("repl-sync-timeout", 5*time.Second,
			"how long a semi-sync write waits for follower acknowledgements before failing")
		leaseTimeout = flag.Duration("lease-timeout", 3*time.Second,
			"leadership lease: a replica that hears nothing for this long holds an election")
	)
	// Trailing slashes are stripped so peer URLs compare equal to the
	// -self-url other nodes advertise.
	flag.Func("peer", "base URL of another replication node; repeat per peer, or pass one comma-separated list",
		func(v string) error {
			for _, u := range strings.Split(v, ",") {
				if u = strings.TrimSpace(u); u != "" {
					peers = append(peers, strings.TrimRight(u, "/"))
				}
			}
			return nil
		})
	flag.Parse()

	level, err := obsv.ParseLevel(*logLevel)
	if err != nil {
		slog.Error("ofmf: bad -log-level", "err", err)
		os.Exit(1)
	}
	logger := obsv.NewLogger(os.Stderr, level)
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	if *role != "" && *role != "leader" && *role != "replica" {
		fatal("ofmf: -role must be leader or replica", nil)
	}
	if *role != "" && *selfURL == "" {
		fatal("ofmf: -role requires -self-url", nil)
	}
	if *role == "replica" && *testbed {
		fatal("ofmf: a replica cannot assemble the testbed; its tree comes from the leader", nil)
	}

	var creds sessions.Credentials
	if *auth != "" {
		user, pass, ok := strings.Cut(*auth, ":")
		if !ok {
			fatal("ofmf: -auth must be user:password", nil)
		}
		creds = sessions.StaticCredentials(map[string]string{user: pass})
	}

	metrics := obsv.NewMetrics(obsv.NewRegistry())
	// One tracer for the whole process: the HTTP middleware, composer,
	// store, WAL and agent edges all record into the same span ring,
	// dumped at /redfish/v1/Oem/OFMF/Admin/Traces.
	tracer := obsv.NewTracer(metrics.Registry(), obsv.TracerOptions{
		SlowThreshold: *traceSlow,
		Logger:        logger,
	})
	// The liveness sweeper downgrades sources whose heartbeats stop; a
	// replica's sweeps nothing until it is promoted.
	svcCfg := service.Config{Credentials: creds, Logger: logger, Metrics: metrics, Tracer: tracer,
		Liveness: service.LivenessConfig{Interval: *sweepInterval, StaleAfter: *heartbeatTimeout}}
	svcCfg.Events.Workers = *eventWorkers

	f, err := core.Assemble(core.Config{Nodes: *nodes, Service: svcCfg, OOMHotAddMiB: *oomMiB}, *testbed)
	if err != nil {
		fatal("ofmf: assembly failed", err)
	}
	defer f.Close()
	if *testbed {
		logger.Info("ofmf: testbed assembled",
			"nodes", *nodes, "cxl_free_mib", f.CXL.FreeMiB(), "gpu_free_slices", f.GPUs.FreeSlices())
	}
	tree := f.Service.Store()
	var replHandler http.Handler // the replication protocol, with -role

	// Durable store: recover the tree from the data directory before any
	// request is served, then attach the backend so every subsequent
	// mutation is logged. Recovery replays through the store's normal
	// Put/Delete paths, so indexes and id high-water marks are rebuilt
	// exactly; a StatusChange event and log line make the restore visible
	// to operators.
	// pb tracks the live persist backend — boot-recovered here on a
	// leader (or an unreplicated node), installed at promotion time on a
	// replica — so the replication layer's disk-tail and snapshot
	// closures always see the current one.
	var pb atomic.Pointer[persist.FileBackend]
	var bootStats persist.RecoveryStats
	// One data dir, opened at boot or at promotion.
	persistOpts := persist.Options{
		Dir:     *dataDir,
		Fsync:   *fsync,
		Logger:  logger,
		Metrics: metrics,
		Tracer:  tracer,
	}
	if *dataDir != "" && *role == "replica" {
		// A replica's tree comes from the leader; its data directory
		// stays untouched until this node is promoted, at which point it
		// is bootstrapped at the replicated sequence number. It must be
		// empty then — a previous life's history cannot be merged with
		// the replicated one.
		logger.Info("ofmf: replica: data dir deferred until promotion", "data_dir", *dataDir)
	} else if *dataDir != "" {
		backend, err := persist.Open(persistOpts)
		if err != nil {
			fatal("ofmf: data dir", err)
		}
		release := holdGC(*dataDir)
		stats, err := backend.Recover(tree)
		release()
		if err != nil {
			fatal("ofmf: recovery", err)
		}
		// A replicated leader re-attaches through the replication tee
		// below, which continues from the sequence number set here.
		tree.AttachBackend(backend, stats.LastSeq)
		backend.StartSnapshots(tree)
		pb.Store(backend)
		bootStats = stats
		logger.Info("ofmf: store recovered",
			"data_dir", *dataDir, "resources", stats.Resources,
			"replayed", stats.Replayed, "installed", stats.Installed,
			"snapshot_seq", stats.SnapshotSeq, "truncated", stats.Truncated,
			"fsync", *fsync,
			"duration", stats.Duration)
		f.Service.Bus().Publish(events.Record(redfish.EventStatusChange, "recovery",
			fmt.Sprintf("OFMF store recovered: %d resources restored, %d WAL records replayed in %s",
				stats.Resources, stats.Replayed, stats.Duration.Round(time.Millisecond)),
			service.RootURI))
	}

	if *role != "" {
		var node *repl.Node
		var inner store.Backend
		if b := pb.Load(); b != nil {
			inner = b
		}
		cfg := repl.Config{
			Store:        tree,
			Self:         strings.TrimRight(*selfURL, "/"),
			Peers:        peers,
			Leader:       *role == "leader",
			BootEpoch:    bootStats.LastEpoch,
			MinSync:      *minSync,
			SyncTimeout:  *syncTimeout,
			LeaseTimeout: *leaseTimeout,
			Inner:        inner,
			DiskTail: func(from uint64) ([]store.Record, error) {
				if b := pb.Load(); b != nil {
					return b.ReadRecords(from)
				}
				return nil, nil
			},
			DiskFlush: func() error {
				if b := pb.Load(); b != nil {
					return b.Flush()
				}
				return nil
			},
			DiskSnapshot: func() ([]byte, uint64, bool, error) {
				if b := pb.Load(); b != nil {
					return b.LatestSnapshot()
				}
				return nil, 0, false, nil
			},
			OnLeader: func(uint64) { f.Service.ClearReplicaMode() },
			OnFollower: func(string) {
				f.Service.SetReplicaMode(func() string { return node.LeaderURL() })
			},
			Logger:  logger,
			Metrics: metrics,
		}
		if *dataDir != "" {
			cfg.PromoteBackend = func(st *store.Store, seq uint64) (store.Backend, error) {
				b, err := persist.Open(persistOpts)
				if err != nil {
					return nil, err
				}
				if err := b.Bootstrap(st, seq); err != nil {
					b.Close()
					return nil, err
				}
				b.StartSnapshots(st)
				pb.Store(b)
				return b, nil
			}
		}
		node, err = repl.NewNode(cfg)
		if err != nil {
			fatal("ofmf: replication", err)
		}
		replHandler = node.Handler()
		node.Start()
		defer node.Stop()
		logger.Info("ofmf: replication enabled",
			"role", *role, "self", *selfURL, "peers", peers,
			"min_sync", *minSync, "lease", *leaseTimeout)
	}

	var metricsHandler, pprofHandler http.Handler
	if *withMetrics {
		metricsHandler = metrics.Registry().Handler()
	}
	if *withPprof {
		pprofHandler = http.DefaultServeMux // where net/http/pprof registers
	}

	// Graceful shutdown: stop accepting requests, then let the deferred
	// closes flush and close the durable backend.
	srv := obsv.NewServer(*addr, rootHandler(f.Handler(), metricsHandler, replHandler, pprofHandler))
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		logger.Info("ofmf: shutting down", "signal", s.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("ofmf: shutdown", "err", err)
		}
	}()

	logger.Info("ofmf: serving", "addr", *addr, "root", "/redfish/v1",
		"metrics", *withMetrics, "pprof", *withPprof,
		"durable", *dataDir != "")
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal("ofmf: server failed", err)
	}
	logger.Info("ofmf: stopped")
}

// rootHandler is the process's one routing step in front of the
// service: /metrics, the replication protocol and pprof are served
// beside the app, outside its observability middleware (a scrape or a
// WAL stream must not count as a Redfish request); everything else is
// the app's, which routes and instruments it. A nil handler means the
// endpoint is off and its path falls through to the app's 404. A prefix
// switch rather than a ServeMux: the app's paths are not a mux's to
// clean, redirect or match.
func rootHandler(app, metrics, replication, profiling http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := r.URL.Path
		switch {
		case metrics != nil && path == "/metrics":
			metrics.ServeHTTP(w, r)
		case replication != nil && strings.HasPrefix(path, repl.PathPrefix):
			replication.ServeHTTP(w, r)
		case profiling != nil && strings.HasPrefix(path, "/debug/pprof/"):
			profiling.ServeHTTP(w, r)
		default:
			app.ServeHTTP(w, r)
		}
	})
}
