package fleet

// Result is one scenario run's outcome.
type Result struct {
	Scenario string
	Agents   int
	Seed     int64

	// RegistrationPerSec is the initial cold-registration throughput;
	// ReregistrationPerSec the mass re-registration (revive) throughput
	// where the scenario exercises one (storm, killrecover).
	RegistrationPerSec   float64
	ReregistrationPerSec float64

	// SweepP99Ms is the 99th-percentile liveness sweep duration.
	SweepP99Ms float64

	// Convergence measures the scenario's final heal: virtual seconds of
	// simulated clock and wall milliseconds of real time until the
	// sweeper's verdicts matched ground truth.
	ConvergenceVirtualS float64
	ConvergenceWallMs   float64

	// EventsPublished counts bus publishes over the final incarnation.
	EventsPublished int64

	// Recovery stats (killrecover only): WAL records replayed and the
	// wall time of the recover-and-reattach boot.
	RecoveryReplayed int
	RecoveryMs       float64

	// Violations lists every end-state invariant breach; empty means the
	// run converged clean.
	Violations []string
}

// Failed reports whether the run breached any invariant.
func (r Result) Failed() bool { return len(r.Violations) > 0 }
