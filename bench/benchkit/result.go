package benchkit

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Def names one metric and its unit. BENCHMARK.json lists the same names
// and units; the smoke test fails when the two drift apart.
type Def struct{ Name, Unit string }

// Workloads are the four traffic mixes, in the order selfcheck alternates
// them.
var Workloads = []string{"read_tree", "write_events", "compose_cycle", "repl_semisync"}

// EndToEnd is what a client or operator of the service sees. Latency and
// CPU are reported as multiples of a null HTTP server measured in the
// same batches, because absolute times on a shared 2-vCPU host drift by
// a quarter within minutes.
var EndToEnd = []Def{
	{"setup_s", "s"},
	{"primary_p50_rel", "x"},
	{"secondary_p50_rel", "x"},
	{"server_cpu_rel", "x"},
	{"server_rss_peak_mib", "MiB"},
	{"recovery_s", "s"},
	{"disk_bytes_per_req", "B"},
}

// PerLayer are the diagnostics of single layers, named after the repo's
// packages; net is Go's HTTP stack plus loopback, client the generator.
var PerLayer = []Def{
	{"net.self_us", "us"},
	{"obsv.self_us", "us"},
	{"obsv.allocs_per_req", "count"},
	{"service.get_self_us", "us"},
	{"service.expand_self_us", "us"},
	{"service.patch_self_us", "us"},
	{"service.allocs_per_get", "count"},
	{"service.allocs_per_patch", "count"},
	{"store.view_ns", "ns"},
	{"store.collection_view_ns", "ns"},
	{"store.collection_rebuild_us", "us"},
	{"store.patch_us", "us"},
	{"store.put_subtree_us", "us"},
	{"store.bytes_per_resource", "B"},
	{"persist.append_us", "us"},
	{"persist.fsync_mean_us", "us"},
	{"persist.fsyncs_per_op", "count"},
	{"persist.commits_per_op", "count"},
	{"persist.wal_bytes_per_op", "B"},
	{"persist.recover_records_per_s", "1/s"},
	{"persist.snapshot_s", "s"},
	{"events.publish_us", "us"},
	{"events.encodes_per_publish", "count"},
	{"events.deliveries_per_publish", "count"},
	{"events.deliver_p50_us", "us"},
	{"events.dropped", "count"},
	{"composer.compose_self_us", "us"},
	{"composer.decompose_self_us", "us"},
	{"composer.store_ops_per_compose", "count"},
	{"agent.ops_per_compose", "count"},
	{"agent.op_mean_us", "us"},
	{"repl.sync_wait_us", "us"},
	{"repl.ship_lag_p50_us", "us"},
	{"repl.acks_per_op", "count"},
	{"repl.failover_s", "s"},
	{"client.primary_p99_us", "us"},
	{"client.secondary_p99_us", "us"},
	{"client.ops_per_s", "1/s"},
	{"client.null_p50_us", "us"},
	{"client.null_cpu_us", "us"},
	{"ladder.sum_over_e2e", "x"},
	{"trace.overhead_rel", "x"},
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of a run's standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Fill builds the metric map for defs from values; a metric no layer of
// this workload produced reads 0.
func Fill(defs []Def, values map[string]float64) map[string]Metric {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		out[d.Name] = Metric{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// PrintTable writes every metric by name and unit, one per line.
func PrintTable(w io.Writer, metrics map[string]Metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}

// Emit writes r as one JSON line.
func Emit(w io.Writer, r Result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
