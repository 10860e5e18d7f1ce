package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"ofmf/bench/benchkit"
)

// promSample is one scrape of /metrics: series (name plus label set, as
// exposed) to value.
type promSample map[string]float64

// scrape reads the server's /metrics. A server without the endpoint
// yields an empty sample, and the counts derived from it read 0.
func scrape(c *benchkit.Conn) promSample {
	status, _, body, err := c.Do("GET", c.Request("GET", "/metrics", "", nil))
	s := promSample{}
	if err != nil || status != 200 {
		return s
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			s[line[:i]] = v
		}
	}
	return s
}

// sum adds every series of family whose label set contains all of want
// (substrings such as `op="patch"`).
func (s promSample) sum(family string, want ...string) float64 {
	total := 0.0
next:
	for series, v := range s {
		if series != family && !strings.HasPrefix(series, family+"{") {
			continue
		}
		for _, w := range want {
			if !strings.Contains(series, w) {
				continue next
			}
		}
		total += v
	}
	return total
}

// delta is sum over the measured phase.
func delta(before, after promSample, family string, want ...string) float64 {
	return after.sum(family, want...) - before.sum(family, want...)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// histP50 interpolates the median of a histogram family from the growth
// of its cumulative buckets, as Prometheus' histogram_quantile does.
func histP50(before, after promSample, family string) float64 {
	type bucket struct{ le, n float64 }
	var buckets []bucket
	prefix := family + `_bucket{le="`
	for series, v := range after {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		le := strings.TrimSuffix(strings.TrimPrefix(series, prefix), `"}`)
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue // +Inf
		}
		buckets = append(buckets, bucket{bound, v - before[series]})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := delta(before, after, family+"_count")
	if total == 0 {
		return 0
	}
	prevLE, prevN := 0.0, 0.0
	for _, b := range buckets {
		if b.n >= total/2 {
			if b.n == prevN {
				return b.le
			}
			return prevLE + (b.le-prevLE)*(total/2-prevN)/(b.n-prevN)
		}
		prevLE, prevN = b.le, b.n
	}
	return prevLE
}

var storeWrites = []string{`op="put"`, `op="create"`, `op="patch"`, `op="delete"`, `op="put_subtree"`, `op="delete_subtree"`}

// layerValues fills the per-layer metrics: counts from the /metrics
// deltas of the out-of-process server over the measured phase, client
// figures from the generator's own samples, and the in-process ladder's
// self times from ofmfladder.
func (b *bench) layerValues(values map[string]float64, m measured, recoveryS float64, recovered promSample) {
	d := func(family string, want ...string) float64 { return delta(m.before, m.after, family, want...) }
	writes := float64(m.writes)
	cycles := float64(m.composes)

	values["persist.fsync_mean_us"] = 1e6 * ratio(d("ofmf_wal_fsync_seconds_sum"), d("ofmf_wal_fsync_seconds_count"))
	values["persist.fsyncs_per_op"] = ratio(d("ofmf_wal_fsync_seconds_count"), writes)
	values["persist.commits_per_op"] = ratio(d("ofmf_wal_appends_total"), writes)
	values["persist.wal_bytes_per_op"] = ratio(float64(m.diskGrowth), writes)
	values["persist.recover_records_per_s"] = ratio(recovered.sum("ofmf_recovery_replayed_total"), recoveryS)

	published := d("ofmf_events_published_total")
	values["events.publish_us"] = 1e6 * ratio(d("ofmf_event_publish_seconds_sum"), d("ofmf_event_publish_seconds_count"))
	values["events.encodes_per_publish"] = ratio(d("ofmf_event_encodes_total"), published)
	values["events.deliveries_per_publish"] = ratio(d("ofmf_events_delivered_total"), published)
	values["events.dropped"] = d("ofmf_events_dropped_total") + d("ofmf_sse_dropped_events_total")

	storeOps := 0.0
	for _, op := range storeWrites {
		storeOps += d("ofmf_store_ops_total", op)
	}
	values["composer.store_ops_per_compose"] = ratio(storeOps, cycles)
	values["agent.ops_per_compose"] = ratio(d("ofmf_agent_ops_total"), cycles)
	values["agent.op_mean_us"] = 1e6 * ratio(d("ofmf_agent_op_duration_seconds_sum"), d("ofmf_agent_op_duration_seconds_count"))

	values["repl.acks_per_op"] = ratio(d("ofmf_repl_ack_lag_seconds_count"), writes)
	values["repl.ship_lag_p50_us"] = 1e6 * histP50(m.before, m.after, "ofmf_repl_ack_lag_seconds")

	sorted := func(v []float64) []float64 {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		return s
	}
	values["client.primary_p99_us"] = benchkit.Percentile(sorted(m.primary), 0.99)
	values["client.secondary_p99_us"] = benchkit.Percentile(sorted(m.secondary), 0.99)
	values["client.ops_per_s"] = ratio(float64(m.ops), m.elapsed.Seconds())
	values["client.null_p50_us"] = benchkit.Quiet(m.nullP50)
	values["client.null_cpu_us"] = ratio(float64(m.nullCPU)/1e3, float64(m.nulls))

	if b.replicated() {
		enter("failover", 0)
		values["repl.failover_s"] = b.failover()
	}
	enter("ladder", 0)
	for name, v := range b.ladder() {
		values[name] = v
	}
}

// ladder runs the in-process layer ladder on the same seeded op
// sequence and returns its metrics. It is a separate program because it
// calls the layers' Go APIs; the generator itself only speaks HTTP.
func (b *bench) ladder() map[string]float64 {
	out := filepath.Join(b.o.root, "bench", "out", "trace-"+b.o.workload+".jsonl")
	args := []string{"-workload", b.o.workload, "-seed", strconv.FormatInt(b.o.seed, 10),
		"-spans", out, "-dir", filepath.Join(b.runDir, "ladder")}
	if b.o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(b.o.ladderBin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		fatalf("ladder: %v", err)
	}
	var got map[string]float64
	if err := json.Unmarshal(benchkit.LastLine(stdout), &got); err != nil {
		fatalf("ladder: last line is not a metric map: %v", err)
	}
	return got
}

// failover is a diagnostic, measured once: a leader and a replica with a
// one-second lease, the leader SIGKILLed, and the time until the replica
// accepts a write. It cannot repeat within a tenth on this host
// (lease expiry and election are timer-driven), so it is not gated.
func (b *bench) failover() float64 {
	laddr, err1 := freeAddr()
	raddr, err2 := freeAddr()
	if err1 != nil || err2 != nil {
		fatalf("port: %v %v", err1, err2)
	}
	common := []string{"-lease-timeout", "1s"}
	leader, err := spawn("failover-leader", laddr, b.o.ofmfBin, append([]string{"-testbed", "-nodes", strconv.Itoa(b.sz.Nodes),
		"-addr", laddr, "-role", "leader", "-self-url", "http://" + laddr, "-peer", "http://" + raddr}, common...)...)
	if err != nil {
		fatalf("%v", err)
	}
	replica, err := spawn("failover-replica", raddr, b.o.ofmfBin, append([]string{
		"-addr", raddr, "-role", "replica", "-self-url", "http://" + raddr, "-peer", "http://" + laddr}, common...)...)
	if err != nil {
		fatalf("%v", err)
	}
	defer replica.kill()
	if _, err := leader.waitReady("/redfish/v1"); err != nil {
		fatalf("%v", err)
	}
	rc, err := replica.waitReady(benchkit.SystemURI(0))
	if err != nil {
		fatalf("%v", err)
	}
	defer rc.Close()
	leader.kill()
	start := time.Now()
	// The replica runs the bare service, which lets a client create a
	// subscription but not PATCH a system: before promotion the POST is
	// redirected to the dead leader, after it the POST is a local write.
	body := []byte(`{"Destination":"http://127.0.0.1:9/none","Protocol":"Redfish","EventTypes":["Alert"]}`)
	for {
		status, _, _, err := rc.Do("POST", rc.Request("POST", "/redfish/v1/EventService/Subscriptions", "", body))
		if err != nil {
			fatalf("failover: %v", err)
		}
		if status == 201 {
			return time.Since(start).Seconds()
		}
		time.Sleep(5 * time.Millisecond)
	}
}
