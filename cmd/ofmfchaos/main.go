// Command ofmfchaos drives the fleet chaos harness: a seeded,
// deterministic fleet of emulated agents churning against one
// in-process OFMF, with end-state invariant checking (no ghost or
// duplicate aggregation sources, event-count conservation, liveness
// converged to ground truth, WAL sequence integrity).
//
//	ofmfchaos -agents 10000 -seed 42 -scenario partition
//	ofmfchaos -agents 100 -seed 42 -scenario all   # CI gate shape
//
// The exit status is the gate: 0 when every scenario converges clean,
// 1 when any invariant is violated. The per-scenario table it prints is
// the only output; nothing is written to disk.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"ofmf/internal/fleet"
)

func main() {
	agents := flag.Int("agents", 10000, "fleet size")
	seed := flag.Int64("seed", 0, "deterministic seed (required, non-zero)")
	scenario := flag.String("scenario", "all", "scenario to run: crash|partition|storm|killrecover|all")
	verbose := flag.Bool("v", false, "log harness progress")
	flag.Parse()

	if *seed == 0 {
		fmt.Fprintln(os.Stderr, "ofmfchaos: -seed is required: an unseeded chaos run cannot be replayed")
		os.Exit(2)
	}
	names := fleet.ScenarioNames()
	if *scenario != "all" {
		if _, err := fleet.Scenario(*scenario); err != nil {
			fmt.Fprintf(os.Stderr, "ofmfchaos: %v\n", err)
			os.Exit(2)
		}
		names = []string{*scenario}
	}

	// Silent by default: at fleet scale the service logs a WARN line per
	// liveness transition, which is the scenario's whole point.
	var logger *slog.Logger
	if *verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
	}

	fmt.Printf("ofmfchaos: %d agents, seed %d, scenarios %v\n", *agents, *seed, names)
	failed := false
	for _, name := range names {
		res, err := runOne(name, *agents, *seed, logger)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ofmfchaos: %s: harness error: %v\n", name, err)
			os.Exit(1)
		}
		status := "ok"
		if res.Failed() {
			status = fmt.Sprintf("FAILED (%d violations)", len(res.Violations))
			failed = true
		}
		fmt.Printf("  %-12s reg %8.0f/s  rereg %8.0f/s  sweep p99 %7.2fms  converge %4.0fvs/%6.0fms  events %7d  %s\n",
			name, res.RegistrationPerSec, res.ReregistrationPerSec, res.SweepP99Ms,
			res.ConvergenceVirtualS, res.ConvergenceWallMs, res.EventsPublished, status)
		if name == "killrecover" {
			fmt.Printf("  %-12s WAL replayed %d records in %.0fms\n", "", res.RecoveryReplayed, res.RecoveryMs)
		}
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "  %s: VIOLATION: %s\n", name, v)
		}
	}

	if failed {
		os.Exit(1)
	}
}

// runOne builds a fresh fleet (scenarios must not share agent or sink
// state) and runs one scenario.
func runOne(name string, agents int, seed int64, logger *slog.Logger) (fleet.Result, error) {
	opts := fleet.Options{Agents: agents, Seed: seed, Logger: logger}
	if name == "killrecover" {
		dir, err := os.MkdirTemp("", "ofmfchaos-wal-*")
		if err != nil {
			return fleet.Result{}, err
		}
		defer os.RemoveAll(dir)
		opts.PersistDir = dir
	}
	f, err := fleet.New(opts)
	if err != nil {
		return fleet.Result{}, err
	}
	sc, err := fleet.Scenario(name)
	if err != nil {
		return fleet.Result{}, err
	}
	return f.Run(sc)
}
