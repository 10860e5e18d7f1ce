// Command ofmf-agent runs a standalone OFMF Agent: it registers with a
// remote OFMF over HTTP, publishes the resource subtree of its emulated
// hardware, serves the ops endpoint the OFMF forwards fabric mutations
// to, and pushes hardware events upward — the right-hand column of the
// paper's architecture, as its own process.
//
// The ops server is instrumented like the OFMF itself: structured slog
// logging (-log-level), /metrics exposition (-metrics), /debug/pprof
// profiling (-pprof), and per-request X-Request-Id tracing.
//
// Usage:
//
//	ofmf-agent -ofmf http://localhost:8080 -kind cxl   -listen :9001
//	ofmf-agent -ofmf http://localhost:8080 -kind nvme  -listen :9002
//	ofmf-agent -ofmf http://localhost:8080 -kind fabric -listen :9003
//	ofmf-agent -ofmf http://localhost:8080 -kind gpu   -listen :9004
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"ofmf/internal/agent"
	"ofmf/internal/agent/cxlagent"
	"ofmf/internal/agent/fabagent"
	"ofmf/internal/agent/gpuagent"
	"ofmf/internal/agent/nvmeagent"
	"ofmf/internal/emul/cxlsim"
	"ofmf/internal/emul/fabsim"
	"ofmf/internal/emul/gpusim"
	"ofmf/internal/emul/nvmesim"
	"ofmf/internal/obsv"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
)

func main() {
	var (
		ofmfURL     = flag.String("ofmf", "http://localhost:8080", "OFMF base URL")
		kind        = flag.String("kind", "cxl", "agent kind: cxl, nvme, fabric, gpu")
		listen      = flag.String("listen", ":9001", "ops server listen address")
		name        = flag.String("name", "", "fabric name (defaults per kind)")
		nodes       = flag.Int("nodes", 8, "emulated host attach points")
		capacity    = flag.Int64("capacity", 0, "emulated capacity (MiB for cxl, bytes for nvme)")
		token       = flag.String("token", "", "X-Auth-Token for an authenticated OFMF")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
		withMetrics = flag.Bool("metrics", true, "expose Prometheus-format metrics at /metrics")
		withPprof   = flag.Bool("pprof", false, "expose Go profiling at /debug/pprof")
	)
	flag.Parse()

	level, err := obsv.ParseLevel(*logLevel)
	if err != nil {
		slog.Error("ofmf-agent: bad -log-level", "err", err)
		os.Exit(1)
	}
	logger := obsv.NewLogger(os.Stderr, level)
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}
	must := func(err error) {
		if err != nil {
			fatal("ofmf-agent: setup failed", err)
		}
	}

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal("ofmf-agent: listen failed", err)
	}
	callback := "http://" + lis.Addr().String()
	remote := &agent.Remote{BaseURL: *ofmfURL, CallbackURL: callback, Token: *token}

	var start func() error
	var sourceURI func() odata.ID
	switch *kind {
	case "cxl":
		app := cxlsim.New()
		capMiB := *capacity
		if capMiB <= 0 {
			capMiB = 256 * 1024
		}
		for i := 0; i < 4; i++ {
			must(app.AddDevice(fmt.Sprintf("dev%d", i), capMiB/4, "DRAM"))
		}
		for i := 0; i < *nodes; i++ {
			must(app.AddPort(fmt.Sprintf("node%03d", i+1)))
		}
		fab := pick(*name, "CXL")
		ag := cxlagent.New(remote, app, fab, fab+"MemoryAppliance")
		start = ag.Start
		sourceURI = ag.SourceURI
	case "nvme":
		target := nvmesim.New()
		capBytes := *capacity
		if capBytes <= 0 {
			capBytes = 16 << 40
		}
		must(target.AddPool("pool0", capBytes))
		fab := pick(*name, "NVMe")
		ag := nvmeagent.New(remote, target, fab, "JBOF1")
		for i := 0; i < *nodes; i++ {
			ag.RegisterHost(fmt.Sprintf("node%03d", i+1))
		}
		start = ag.Start
		sourceURI = ag.SourceURI
	case "fabric":
		fabric := fabsim.New()
		if _, err := fabsim.BuildFatTree(fabric, "port-", 2, 2, (*nodes+1)/2, 100, 400); err != nil {
			fatal("ofmf-agent: topology build failed", err)
		}
		fab := pick(*name, "HPC")
		ag := fabagent.New(remote, fabric, fab, redfish.ProtocolInfiniBand)
		start = ag.Start
		sourceURI = ag.SourceURI
	case "gpu":
		pool := gpusim.New()
		for i := 0; i < 8; i++ {
			must(pool.AddGPU(fmt.Sprintf("gpu%d", i), "A100", 40960, 7))
		}
		fab := pick(*name, "PCIe")
		ag := gpuagent.New(remote, pool, fab, "GPUPool")
		start = ag.Start
		sourceURI = ag.SourceURI
	default:
		fatal("ofmf-agent: unknown -kind "+*kind, nil)
	}

	// Instrument the ops server with the same middleware stack as the
	// OFMF, so forwarded fabric mutations are traced end to end: the
	// request id minted by the OFMF's middleware propagates here through
	// the X-Request-Id header.
	metrics := obsv.NewMetrics(obsv.NewRegistry())
	// Self-telemetry for the management-path edge: how many events are
	// waiting for the OFMF to come back, and how many fell off the spool.
	metrics.Registry().GaugeFunc("ofmf_agent_event_backlog",
		"Events spooled awaiting delivery to the OFMF.",
		func() float64 { return float64(remote.EventBacklog()) })
	metrics.Registry().CounterFunc("ofmf_agent_events_dropped_total",
		"Events evicted from the full delivery spool.",
		func() float64 { return float64(remote.EventsDropped()) })
	// The agent keeps its own tracer: spans adopted from the OFMF's
	// traceparent header land in this ring, inspectable via the span dump
	// rendered by /metrics consumers or a debugger.
	tracer := obsv.NewTracer(metrics.Registry(), obsv.TracerOptions{Logger: logger})
	mux := http.NewServeMux()
	mux.Handle("/agent/ops", obsv.Middleware(remote.Handler(), metrics, logger,
		func(string) string { return "AgentOps" }, tracer))
	if *withMetrics {
		mux.Handle("/metrics", metrics.Registry().Handler())
	}
	if *withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	// Serve the ops endpoint before registering so forwarded operations
	// never race the registration.
	srv := obsv.NewServer("", mux)
	go func() {
		if err := srv.Serve(lis); err != http.ErrServerClosed {
			fatal("ofmf-agent: ops server failed", err)
		}
	}()
	if err := start(); err != nil {
		fatal("ofmf-agent: agent start failed", err)
	}
	stopHeartbeat := agent.StartHeartbeat(remote, sourceURI(), 10*time.Second,
		agent.WithHeartbeatReport(func(consecutive int, err error) {
			if err != nil {
				logger.Warn("ofmf-agent: heartbeat failed", "consecutive", consecutive, "err", err)
			} else if consecutive == 0 {
				logger.Debug("ofmf-agent: heartbeat ok", "backlog", remote.EventBacklog())
			}
		}))
	defer stopHeartbeat()
	logger.Info("ofmf-agent: registered", "kind", *kind, "ofmf", *ofmfURL, "ops", callback)
	select {}
}

func pick(override, def string) string {
	if override != "" {
		return override
	}
	return def
}
