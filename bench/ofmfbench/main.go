// Command ofmfbench is the repository's benchmark: it runs cmd/ofmf out
// of process with its default flags, drives it over loopback TCP from
// one closed-loop connection, checks every reply, and reports each cost
// as a multiple of a null HTTP server measured in the same batches.
//
//	bash bench/run.sh --workload read_tree --seed 1 --seconds 10 --trace 0
//
// See bench/README.md for the metrics, the workloads and the caveats.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"

	"ofmf/bench/benchkit"
)

var verbose bool

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	root       string // checkout root; temp dirs and bench/out live under it
	ofmfBin    string // built cmd/ofmf
	ladderBin  string // built ofmfladder, needed with -trace 1
	smoke      bool   // smoke test: tiny sizes, two batches, no repetitions
	setups     int    // most set-up repetitions; setup_s is their median
	recoveries int    // most recoveries from the same crashed state; recovery_s is their lower quartile
	cpu        int    // the CPU everything is pinned to, -1 when pinning was refused
}

func main() {
	var (
		o         options
		nullMode  = flag.Bool("null", false, "serve the null baseline on -addr (internal)")
		addr      = flag.String("addr", "", "listen address of -null")
		nullFile  = flag.String("file", "", "with -null: append a record to this file and fsync it before every reply")
		selfcheck = flag.Int("selfcheck", 0, "run two sets of N runs of every workload and print their agreement")
	)
	flag.StringVar(&o.workload, "workload", "", "read_tree, write_events, compose_cycle or repl_semisync")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the op sequence")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&o.trace, "trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.root, "root", ".", "checkout root")
	flag.StringVar(&o.ofmfBin, "ofmf", "", "path of the built cmd/ofmf")
	flag.StringVar(&o.ladderBin, "ladder", "", "path of the built ofmfladder")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes, two batches and no repetitions, for the smoke test")
	flag.BoolVar(&verbose, "v", false, "log phases to standard error")
	flag.Parse()

	if *nullMode {
		serveNull(*addr, *nullFile)
		return
	}
	root, err := filepath.Abs(o.root)
	if err != nil {
		fatalf("-root: %v", err)
	}
	o.root = root
	if *selfcheck > 0 {
		os.Exit(runSelfcheck(o, *selfcheck))
	}
	if !validWorkload(o.workload) {
		fatalf("-workload must be one of read_tree, write_events, compose_cycle, repl_semisync")
	}
	if o.ofmfBin == "" {
		fatalf("-ofmf is required (bench/run.sh builds cmd/ofmf and passes it)")
	}
	if o.trace == 1 && o.ladderBin == "" {
		fatalf("-trace 1 needs -ladder (bench/run.sh builds ofmfladder and passes it)")
	}
	// At least 3 set-ups and 5 recoveries, then more until setupBudget and
	// recoveryBudget are spent. A traced run reports neither setup_s nor
	// recovery_s.
	o.setups, o.recoveries = 15, 40
	if o.trace == 1 || o.smoke {
		o.setups, o.recoveries = 1, 1
	}
	// The generator allocates a few KiB per reply; a roomier heap target
	// keeps its collector out of the timed segments.
	debug.SetGCPercent(400)
	o.cpu = pinToOneCPU()
	onSignals()
	go dog.run()

	b := newBench(o)
	res := b.run()
	cleanup()
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "ofmfbench: %d of %d checks failed\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}

func validWorkload(w string) bool {
	switch w {
	case "read_tree", "write_events", "compose_cycle", "repl_semisync":
		return true
	}
	return false
}

// serveNull is the baseline every latency and CPU figure is divided by:
// a bare net/http handler in its own warm process. It shares the host's
// drift with the server under test and none of its code. With a file it
// is the durable baseline: every request appends a WAL-record-sized
// write and fsyncs it, the one thing an acknowledged mutation cannot
// avoid, so that a write's latency is divided by something that waits
// for the same disk.
func serveNull(addr, file string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ofmfbench -null: %v\n", err)
		os.Exit(1)
	}
	handler := http.HandlerFunc(benchkit.NullHandler)
	if file != "" {
		f, err := os.OpenFile(file, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ofmfbench -null: %v\n", err)
			os.Exit(1)
		}
		record := make([]byte, 440) // what one PATCH of a system appends to the WAL
		handler = func(w http.ResponseWriter, r *http.Request) {
			if _, err := f.Write(record); err == nil {
				err = f.Sync()
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			benchkit.NullHandler(w, r)
		}
	}
	_ = (&http.Server{Handler: handler}).Serve(ln)
}
