package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"ofmf/bench/benchkit"
)

// setupBudget is how long set-up keeps repeating beyond its third
// repetition (up to options.setups): a 20 ms set-up needs more
// repetitions than a 600 ms one for its median to hold still.
const setupBudget = 1500 * time.Millisecond

// recoveryBudget is how long recovery keeps repeating beyond its fifth
// repetition (up to options.recoveries). A recovery is one CPU-bound
// burst of 0.1-0.6 s; the host stretches single ones by up to a half
// (twelve in a row of read_tree: 0.50 ... 0.97 s) and has slow stretches
// of 5-15 s, so the repetitions must outlast those to find it quiet. The
// fastest of three spread 26 and 34 % between the driver's runs.
const recoveryBudget = 12 * time.Second

// tally counts one class of checked operations.
type tally struct{ attempted, failed int }

// bench is one run of one workload.
type bench struct {
	o       options
	sz      benchkit.Sizes
	gen     *benchkit.Gen
	rng     *rand.Rand // picks the PATCHes that are read back
	runDir  string
	dataDir string

	sess    *benchkit.Session
	needles [][]byte // `"@odata.id":"<uri>"`, what a GET of tree[i] must contain

	srv, replica, null, dnull *child
	pc, rc, nc, dc            *benchkit.Conn // to the server, the replica, the null and the durable null server
	sink                      *sink
	sse                       *sseDrain

	tallies  map[string]*tally
	failures []string

	primary, secondary benchkit.Kind
	secondaryDelivery  bool
}

func newBench(o options) *bench {
	b := &bench{o: o, sz: benchkit.Full(o.workload), tallies: map[string]*tally{}}
	if o.smoke {
		b.sz = benchkit.Smoke(o.workload)
	}
	b.gen = benchkit.NewGen(o.workload, o.seed, b.sz)
	b.rng = rand.New(rand.NewSource(o.seed ^ 0x5eed))
	b.sess = benchkit.NewSession(b.sz, o.seed)
	b.needles = make([][]byte, len(b.sess.Tree))
	for i, uri := range b.sess.Tree {
		b.needles[i] = []byte(`"@odata.id":"` + uri + `"`)
	}
	b.primary, b.secondary, b.secondaryDelivery = benchkit.Role(o.workload)
	return b
}

// check records one checked outcome; a failed check fails the run.
func (b *bench) check(class string, ok bool, format string, args ...any) bool {
	t := b.tallies[class]
	if t == nil {
		t = &tally{}
		b.tallies[class] = t
	}
	t.attempted++
	if !ok {
		t.failed++
		if len(b.failures) < 10 {
			b.failures = append(b.failures, class+": "+fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// serverArgs are the flags of the server under test: cmd/ofmf's defaults
// (-fsync=true, -shards 1) plus what a deployment must say — where to
// listen, where the data lives, how big the testbed is, and, replicated,
// its role and its peer.
func (b *bench) serverArgs(addr, replicaAddr string) []string {
	args := []string{"-testbed", "-nodes", strconv.Itoa(b.sz.Nodes), "-addr", addr, "-data-dir", b.dataDir}
	if b.replicated() {
		args = append(args, "-role", "leader", "-repl-min-sync", "1",
			"-self-url", "http://"+addr, "-peer", "http://"+replicaAddr)
	}
	return args
}

func (b *bench) replicated() bool { return b.o.workload == "repl_semisync" }

// startServers spawns the server (and, replicated, its replica) on the
// current data dir and returns once the server answers.
func (b *bench) startServers(withReplica bool) {
	addr, err := freeAddr()
	if err != nil {
		fatalf("port: %v", err)
	}
	raddr, err := freeAddr()
	if err != nil {
		fatalf("port: %v", err)
	}
	if b.srv, err = spawn("ofmf", addr, b.o.ofmfBin, b.serverArgs(addr, raddr)...); err != nil {
		fatalf("%v", err)
	}
	if b.replicated() && withReplica {
		b.replica, err = spawn("ofmf-replica", raddr, b.o.ofmfBin,
			"-role", "replica", "-addr", raddr, "-self-url", "http://"+raddr, "-peer", "http://"+addr)
		if err != nil {
			fatalf("%v", err)
		}
	}
	if b.pc, err = b.srv.waitReady("/redfish/v1"); err != nil {
		fatalf("%v", err)
	}
}

// stopServers kills the servers and drops their connections.
func (b *bench) stopServers() {
	if b.sse != nil {
		b.sse.close()
		b.sse = nil
	}
	for _, c := range []**benchkit.Conn{&b.pc, &b.rc} {
		if *c != nil {
			(*c).Close()
			*c = nil
		}
	}
	for _, c := range []**child{&b.srv, &b.replica} {
		if *c != nil {
			(*c).kill()
			*c = nil
		}
	}
}

// setup brings the system to "ready and seeded": server(s) spawned on an
// empty data dir, tree pushed, subscriptions registered, replica caught
// up. It is what setup_s times.
func (b *bench) setup() {
	if err := os.RemoveAll(b.dataDir); err != nil {
		fatalf("data dir: %v", err)
	}
	b.startServers(true)
	switch b.o.workload {
	case "read_tree":
		for i := 0; i < b.sz.Subtrees; i++ {
			prefix, resources := b.sz.SubtreePush(i)
			body, _ := json.Marshal(map[string]any{"Prefix": prefix, "Resources": resources})
			status, _, _, err := b.pc.Do("POST", b.pc.Request("POST", "/redfish/v1/Oem/OFMF/Subtree", "", body))
			if err != nil || status != 204 {
				fatalf("setup: subtree push %d: status %d err %v", i, status, err)
			}
		}
	case "write_events":
		matching := 0
		for i := 0; i < b.sz.Subs; i++ {
			types := "Alert"
			if i%8 == 0 {
				types = "ResourceUpdated"
				matching++
			}
			body := []byte(fmt.Sprintf(`{"Destination":%q,"Protocol":"Redfish","Context":"bench-%d","EventTypes":[%q]}`,
				b.sink.url, i, types))
			status, _, _, err := b.pc.Do("POST", b.pc.Request("POST", "/redfish/v1/EventService/Subscriptions", "", body))
			if err != nil || status != 201 {
				fatalf("setup: subscription %d: status %d err %v", i, status, err)
			}
		}
		b.sink.reset(matching)
		var err error
		if b.sse, err = openSSE(b.srv.addr); err != nil {
			fatalf("setup: %v", err)
		}
	case "repl_semisync":
		var err error
		if b.rc, err = b.replica.waitReady(benchkit.SystemURI(b.sz.Nodes - 1)); err != nil {
			fatalf("%v", err)
		}
		// Caught up means a write acknowledged by the leader (which, semi-
		// synchronous, waited for the replica) is readable at the replica.
		for try := 0; ; try++ {
			if _, ok := b.do(benchkit.Op{Kind: benchkit.Patch}, false); ok {
				if _, ok := b.do(benchkit.Op{Kind: benchkit.ReplGet}, false); ok {
					break
				}
			}
			if try == 200 {
				fatalf("setup: replica never caught up")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	clear(b.sess.ETags)
}

var (
	seqKey = []byte(`"Seq":`)
	idKey  = []byte(`"Id":"`)
)

// do performs one op on its connection, times it from the first byte
// written to the last byte read, and checks the reply. A failed op has no
// latency sample. count=false (set-up probing) keeps it out of the
// tallies.
func (b *bench) do(op benchkit.Op, count bool) (micros float64, ok bool) {
	op, ex := b.sess.Render(op)
	class, method, path, want := op.Kind.String(), ex.Method, ex.Path, ex.Want
	conn := b.pc
	if op.Kind == benchkit.ReplGet {
		conn = b.rc
	}
	if op.Kind == benchkit.Patch && b.sink != nil {
		b.sink.sent(path)
	}
	req := conn.Request(method, path, ex.Header, ex.Body)
	start := time.Now()
	status, hdr, reply, err := conn.Do(method, req)
	micros = float64(time.Since(start).Nanoseconds()) / 1e3

	if err != nil {
		// The connection is gone; nothing after this would be measured.
		fatalf("%s %s: %v", method, path, err)
	}
	problem := fmt.Sprintf("status %d, want %d", status, want)
	if status == want {
		problem = b.checkReply(op, hdr.Get("Etag"), reply)
	}
	if count {
		b.check(class, problem == "", "%s %s: %s", method, path, problem)
	}
	if problem != "" {
		return 0, false
	}
	// Read back one PATCH in a hundred with a plain GET: the reply of a
	// PATCH echoes the merge, the GET proves the store holds it.
	if op.Kind == benchkit.Patch && count && b.rng.Intn(100) == 0 {
		_, _, reply, err := b.pc.Do("GET", b.pc.Request("GET", path, "", nil))
		b.check("readback", err == nil && hasSeq(reply, b.sess.Seq), "GET %s after PATCH: Seq %d not stored", path, b.sess.Seq)
	}
	return micros, true
}

// checkReply is the content check of a reply whose status was right.
func (b *bench) checkReply(op benchkit.Op, etag string, reply []byte) string {
	switch op.Kind {
	case benchkit.Get, benchkit.Patch, benchkit.ReplGet:
		if !bytes.Contains(reply, b.needles[op.Target]) {
			return "@odata.id is not the request URI"
		}
		if etag == "" {
			return "no ETag"
		}
		if op.Kind != benchkit.Get && !hasSeq(reply, b.sess.Seq) {
			return fmt.Sprintf("Seq %d not in the reply", b.sess.Seq)
		}
		if op.Kind != benchkit.ReplGet {
			b.sess.ETags[op.Target] = etag
		}
	case benchkit.Expand:
		if !bytes.Contains(reply, []byte(`"Members@odata.count":`+strconv.Itoa(b.sz.Nodes))) {
			return "expanded collection does not hold every system"
		}
	case benchkit.Compose:
		id, ok := between(reply, idKey)
		if !ok || len(id) == 0 {
			return "composition has no Id"
		}
		b.sess.CompID = string(id)
	case benchkit.List:
		if !bytes.Contains(reply, []byte(`"/redfish/v1/Systems/`+b.sess.CompName+`"`)) {
			return "composed system is not a member of the collection"
		}
	}
	return ""
}

func hasSeq(reply []byte, seq int64) bool {
	return bytes.Contains(reply, strconv.AppendInt(append([]byte(nil), seqKey...), seq, 10))
}

// segments holds one batch's latency samples in microseconds.
type segments struct {
	byKind   map[benchkit.Kind][]float64
	delivery []float64
	null     []float64
	nullDisk []float64 // durable null writes
	ops      int
	writes   int // ops that mutate the tree
	composes int
}

// batch runs one op segment followed by one null segment.
func (b *bench) batch() segments {
	s := segments{byKind: map[benchkit.Kind][]float64{}}
	ops := b.gen.Batch()
	limit := time.Now().Add(phaseAllowance)
	for _, c := range []*benchkit.Conn{b.pc, b.rc, b.nc, b.dc} {
		if c != nil {
			c.SetDeadline(limit)
		}
	}
	for _, op := range ops {
		if us, ok := b.do(op, true); ok {
			s.byKind[op.Kind] = append(s.byKind[op.Kind], us)
		}
		switch op.Kind {
		case benchkit.Compose:
			s.composes++
			s.writes++
		case benchkit.Patch, benchkit.Decompose:
			s.writes++
		}
		if b.sink != nil {
			if us, ok := b.awaitDelivery(); ok {
				s.delivery = append(s.delivery, us)
			}
		}
	}
	s.ops = len(ops)
	s.null = b.nullSegment("null", b.nc, "GET", b.sz.Null)
	s.nullDisk = b.nullSegment("null_write", b.dc, "PATCH", b.sz.NullWrites)
	return s
}

// nullSegment times n requests of a null server.
func (b *bench) nullSegment(class string, conn *benchkit.Conn, method string, n int) []float64 {
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		status, _, _, err := conn.Do(method, conn.Request(method, "/null", "", nil))
		us := float64(time.Since(start).Nanoseconds()) / 1e3
		if b.check(class, err == nil && status == 200, "%s /null: status %d err %v", method, status, err) {
			samples = append(samples, us)
		}
	}
	return samples
}

// awaitDelivery is write_events' lock step: the next PATCH is not sent
// until this one has reached all matching subscriptions and the SSE
// stream. A caller that waits for its reply and a subscriber that waits
// for its event see an unloaded pipeline, so the PATCH latency is the
// write path's and the delivery delay is the event plane's; PATCHes
// racing ahead of their own fan-out on one CPU measured the backlog
// instead, and spread twice as wide between runs.
func (b *bench) awaitDelivery() (micros float64, ok bool) {
	micros, ok = b.sink.waitLast(30 * time.Second)
	b.check("delivery", ok, "a PATCH did not reach all %d matching subscriptions", b.sink.matching)
	b.check("sse", b.sse.waitFrames(b.sink.count(), 30*time.Second),
		"SSE stream delivered %d frames for %d PATCHes", b.sse.frames.Load(), b.sink.count())
	return micros, ok
}

// measured is what the measured phase yields.
type measured struct {
	primaryP50, secondaryP50 []float64 // per batch, microseconds
	nullP50, nullDiskP50     []float64 // per batch, microseconds
	primary, secondary       []float64 // every sample, for the tails
	ops, writes, nulls       int
	composes                 int
	batches                  int
	elapsed                  time.Duration
	srvCPU, nullCPU          int64 // nanoseconds
	diskGrowth               int64
	rssMiB                   float64
	before, after            promSample
}

func (b *bench) serverPIDs() []int {
	pids := []int{b.srv.pid()}
	if b.replica != nil {
		pids = append(pids, b.replica.pid())
	}
	return pids
}

func (b *bench) serverCPU() int64 {
	var total int64
	for _, pid := range b.serverPIDs() {
		ns, err := cpuNanos(pid)
		if err != nil {
			fatalf("cpu: %v", err)
		}
		total += ns
	}
	return total
}

// measureBatches is how many batches the measured phase runs: the
// workload's frozen rate times -seconds, so a run does the same work on
// a fast and on a slow minute of the host. A traced run does half: it
// needs a steady phase's counts, not its timings, and has the ladder
// still to climb.
func (b *bench) measureBatches() int {
	if b.o.smoke {
		return 2
	}
	n := b.sz.PerSecond * float64(b.o.seconds)
	if b.o.trace == 1 {
		n /= 2
	}
	return int(n + 0.5)
}

func (b *bench) measure() measured {
	var m measured
	if b.o.trace == 1 {
		m.before = scrape(b.pc)
	}
	disk0, err := dirBytes(b.dataDir)
	if err != nil {
		fatalf("disk: %v", err)
	}
	cpu0 := b.serverCPU()
	null0, err := cpuNanos(b.null.pid())
	if err != nil {
		fatalf("cpu: %v", err)
	}
	// On a host a quarter slower than the rate was frozen for, the clock
	// ends the phase instead: the driver budgets a run by -seconds.
	target, limit := b.measureBatches(), time.Duration(b.o.seconds)*time.Second*5/4
	start := time.Now()
	for m.batches < target && (m.batches < min(5, target) || time.Since(start) < limit) {
		s := b.batch()
		m.batches++
		m.ops += s.ops
		m.writes += s.writes
		m.composes += s.composes
		m.nulls += len(s.null)
		prim, sec := s.byKind[b.primary], s.byKind[b.secondary]
		if b.secondaryDelivery {
			sec = s.delivery
		}
		if len(prim) == 0 || len(sec) == 0 || len(s.null) == 0 || len(s.nullDisk) < b.sz.NullWrites {
			continue // every op of a class failed; the failed checks already fail the run
		}
		m.nullP50 = append(m.nullP50, benchkit.SegmentP50(s.null))
		m.primaryP50 = append(m.primaryP50, benchkit.SegmentP50(prim))
		m.secondaryP50 = append(m.secondaryP50, benchkit.SegmentP50(sec))
		if b.sz.NullWrites > 0 {
			m.nullDiskP50 = append(m.nullDiskP50, benchkit.SegmentP50(s.nullDisk))
		}
		logf("batch %d null %.1f primary %.1f secondary %.1f null_write %.1f us", m.batches,
			m.nullP50[len(m.nullP50)-1], m.primaryP50[len(m.primaryP50)-1], m.secondaryP50[len(m.secondaryP50)-1],
			benchkit.SegmentP50(s.nullDisk))
		m.primary = append(m.primary, benchkit.Warm(prim)...)
		m.secondary = append(m.secondary, benchkit.Warm(sec)...)
	}
	m.elapsed = time.Since(start)
	m.srvCPU = b.serverCPU() - cpu0
	null1, _ := cpuNanos(b.null.pid())
	m.nullCPU = null1 - null0
	disk1, err := dirBytes(b.dataDir)
	if err != nil {
		fatalf("disk: %v", err)
	}
	m.diskGrowth = disk1 - disk0
	for _, pid := range b.serverPIDs() {
		mib, err := rssPeakMiB(pid)
		if err != nil {
			fatalf("rss: %v", err)
		}
		m.rssMiB += mib
	}
	if b.o.trace == 1 {
		m.after = scrape(b.pc)
	}
	return m
}

// recover measures recovery_s: the server is SIGKILLed right after it
// acknowledged a marker write, a new one is spawned on the same data dir,
// and the clock stops at the first GET that returns the marker. The
// crashed data dir is kept aside and put back before every repetition,
// because the first boot compacts the log it replayed. Every repetition
// replays the same bytes, and their lower quartile is reported, like the
// quiet p50 of the latencies: the host mostly adds time, which moves the
// median (over ten runs it spread up to 12 %), but one boot in eight
// lands 10-15 % under all the others, which moves the minimum (up to
// 12 %); the lower quartile spread 3-9 %.
func (b *bench) recover() (quiet float64, recovered promSample) {
	marker := benchkit.Op{Kind: benchkit.Patch, Target: 0}
	if _, ok := b.do(marker, true); !ok {
		fatalf("recovery: the marker write failed: %v", b.failures)
	}
	if b.sink != nil {
		b.awaitDelivery()
	}
	if b.replica != nil {
		b.rc.Close()
		b.rc = nil
		b.replica.stop()
		b.replica = nil
	}
	b.stopServers()
	crashed := filepath.Join(b.runDir, "crashed")
	if err := copyDir(b.dataDir, crashed); err != nil {
		fatalf("recovery: keep crashed state: %v", err)
	}
	var times []float64
	began := time.Now()
	for i := 0; i < b.o.recoveries && (i < 5 || time.Since(began) < recoveryBudget); i++ {
		if i > 0 {
			b.stopServers()
			if err := os.RemoveAll(b.dataDir); err != nil {
				fatalf("recovery: %v", err)
			}
			if err := copyDir(crashed, b.dataDir); err != nil {
				fatalf("recovery: restore crashed state: %v", err)
			}
		}
		start := time.Now()
		b.startServers(false)
		status, _, reply, err := b.pc.Do("GET", b.pc.Request("GET", b.sess.Tree[0], "", nil))
		took := time.Since(start).Seconds()
		if b.check("recovery", err == nil && status == 200 && hasSeq(reply, b.sess.Seq),
			"after SIGKILL, GET %s does not return the last acknowledged Seq %d", b.sess.Tree[0], b.sess.Seq) {
			times = append(times, took)
		}
	}
	logf("recoveries %v", times)
	if len(times) == 0 {
		return 0, nil
	}
	if b.o.trace == 1 {
		recovered = scrape(b.pc)
	}
	return benchkit.Quiet(times), recovered
}

// verify checks, on the recovered server, that what the run wrote is
// what the tree holds: every resource still answers with its own
// @odata.id, and no composition outlived its decompose.
func (b *bench) verify() {
	step := len(b.sess.Tree)/500 + 1
	for i := 0; i < len(b.sess.Tree); i += step {
		status, _, reply, err := b.pc.Do("GET", b.pc.Request("GET", b.sess.Tree[i], "", nil))
		b.check("verify", err == nil && status == 200 && bytes.Contains(reply, b.needles[i]),
			"after recovery, GET %s: status %d", b.sess.Tree[i], status)
	}
	if b.o.workload == "compose_cycle" {
		status, _, reply, err := b.pc.Do("GET", b.pc.Request("GET", "/redfish/v1/Systems", "", nil))
		b.check("verify", err == nil && status == 200 &&
			bytes.Contains(reply, []byte(`"Members@odata.count":`+strconv.Itoa(b.sz.Nodes)+`,`)),
			"after recovery, decomposed systems are back in the collection")
	}
	if b.sink != nil {
		for _, problem := range b.sink.audit() {
			b.check("delivery", false, "%s", problem)
		}
	}
}

// run is the whole protocol: set-up (repeated), warm-up, measured
// batches, crash and recovery, verification.
func (b *bench) run() benchkit.Result {
	enter("prepare", 0)
	scratch := filepath.Join(b.o.root, ".bench_build")
	err := os.MkdirAll(scratch, 0o755)
	if err == nil {
		b.runDir, err = os.MkdirTemp(scratch, "run-")
	}
	if err != nil {
		fatalf("run dir: %v", err)
	}
	addTemp(b.runDir)
	b.dataDir = filepath.Join(b.runDir, "data")
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	nullAddr, err := freeAddr()
	if err != nil {
		fatalf("port: %v", err)
	}
	if b.null, err = spawn("null", nullAddr, self, "-null", "-addr", nullAddr); err != nil {
		fatalf("%v", err)
	}
	if b.nc, err = b.null.waitReady("/null"); err != nil {
		fatalf("%v", err)
	}
	if b.sz.NullWrites > 0 {
		addr, err := freeAddr()
		if err != nil {
			fatalf("port: %v", err)
		}
		b.dnull, err = spawn("null-disk", addr, self, "-null", "-addr", addr, "-file", filepath.Join(b.runDir, "null.log"))
		if err != nil {
			fatalf("%v", err)
		}
		if b.dc, err = b.dnull.waitReady("/null"); err != nil {
			fatalf("%v", err)
		}
	}
	if b.o.workload == "write_events" {
		if b.sink, err = startSink(); err != nil {
			fatalf("sink: %v", err)
		}
		defer b.sink.close()
	}

	var setups []float64
	began := time.Now()
	for i := 0; i < b.o.setups && (i < 3 || time.Since(began) < setupBudget); i++ {
		enter("setup", 0)
		b.stopServers()
		start := time.Now()
		b.setup()
		setups = append(setups, time.Since(start).Seconds())
	}

	logf("set-ups %v", setups)
	enter("warmup", 0)
	for i := 0; i < 2; i++ {
		b.batch()
	}
	enter("measure", time.Duration(b.o.seconds)*time.Second)
	m := b.measure()
	enter("recovery", 0)
	recoveryS, recovered := b.recover()
	enter("verify", 0)
	b.verify()
	enter("teardown", 0)
	b.stopServers()
	b.nc.Close()
	b.null.kill()
	if b.dnull != nil {
		b.dc.Close()
		b.dnull.kill()
	}

	values := map[string]float64{}
	if b.o.trace == 1 {
		b.layerValues(values, m, recoveryS, recovered)
	} else {
		values["setup_s"] = benchkit.Median(setups)
		values["primary_p50_rel"] = b.rel(m.primaryP50, b.primary.Writes(), m)
		values["secondary_p50_rel"] = b.rel(m.secondaryP50, b.secondaryDelivery || b.secondary.Writes(), m)
		if m.ops > 0 && m.nulls > 0 && m.nullCPU > 0 {
			values["server_cpu_rel"] = (float64(m.srvCPU) / float64(m.ops)) / (float64(m.nullCPU) / float64(m.nulls))
		}
		values["server_rss_peak_mib"] = m.rssMiB
		values["recovery_s"] = recoveryS
		if m.ops > 0 {
			values["disk_bytes_per_req"] = float64(m.diskGrowth) / float64(m.ops)
		}
	}
	return b.report(values, m, setups)
}

// rel divides an op's quiet p50 by its baseline's: the null request for
// a read, the durable null write for anything that waits for the disk (a
// mutation, or the delivery delay that starts with one).
func (b *bench) rel(opP50 []float64, waitsForDisk bool, m measured) float64 {
	base := m.nullP50
	if waitsForDisk {
		base = m.nullDiskP50
	}
	if len(opP50) == 0 || len(base) == 0 {
		return 0
	}
	return benchkit.Quiet(opP50) / benchkit.Quiet(base)
}

// report prints the provenance, the per-class accounting and every
// metric, then the result line.
func (b *bench) report(values map[string]float64, m measured, setups []float64) benchkit.Result {
	defs := benchkit.EndToEnd
	if b.o.trace == 1 {
		defs = benchkit.PerLayer
	}
	res := benchkit.Result{Metrics: benchkit.Fill(defs, values)}
	classes := make([]string, 0, len(b.tallies))
	for class, t := range b.tallies {
		classes = append(classes, class)
		res.Attempted += t.attempted
		res.Failed += t.failed
	}
	sort.Strings(classes)
	res.Correct = res.Failed == 0 && res.Attempted > 0

	prov, _ := json.Marshal(map[string]any{
		"host": benchkit.Fingerprint(b.o.root), "workload": b.o.workload, "seed": b.o.seed,
		"seconds": b.o.seconds, "trace": b.o.trace, "sizes": b.sz,
		"server_flags":       b.serverArgs("<addr>", "<replica>"),
		"setups":             b.o.setups,
		"recoveries":         b.o.recoveries,
		"pinned_cpu":         b.o.cpu,
		"client.null_p50_us": benchkit.Quiet(m.nullP50),
	})
	fmt.Printf("provenance %s\n", prov)
	fmt.Printf("measured %d batches, %d ops, %d null requests in %.2fs; %d set-ups; server %.2f us CPU/op, null %.2f us CPU/request\n",
		m.batches, m.ops, m.nulls, m.elapsed.Seconds(), len(setups),
		ratio(float64(m.srvCPU)/1e3, float64(m.ops)), ratio(float64(m.nullCPU)/1e3, float64(m.nulls)))
	fmt.Printf("primary %s p50 over %d samples, secondary over %d; quiet p50s over %d batches: primary %.1f, secondary %.1f, null %.1f, null write %.1f us\n",
		b.primary, len(m.primary), len(m.secondary), len(m.nullP50),
		benchkit.Quiet(m.primaryP50), benchkit.Quiet(m.secondaryP50), benchkit.Quiet(m.nullP50), benchkit.Quiet(m.nullDiskP50))
	for _, class := range classes {
		fmt.Printf("  %-10s attempted %8d failed %d\n", class, b.tallies[class].attempted, b.tallies[class].failed)
	}
	for _, f := range b.failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	benchkit.PrintTable(os.Stdout, res.Metrics)
	if err := benchkit.Emit(os.Stdout, res); err != nil {
		fatalf("result: %v", err)
	}
	return res
}
