package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"ofmf/bench/benchkit"
)

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func build(t *testing.T, out, pkg string) {
	t.Helper()
	cmd := exec.Command("go", "build", "-o", out, pkg)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, msg)
	}
}

// TestSmoke runs every workload, end to end and traced, at a size that
// takes a second or two, and holds the output to BENCHMARK.json: every
// metric printed under its name with its unit, no failed check, spans
// that form a tree. It asserts no timing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers")
	}
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	sameDefs := func(kind string, want []benchkit.Def, got []specMetric) {
		if len(want) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, benchkit %d", kind, len(got), len(want))
		}
		for i := range want {
			if want[i].Name != got[i].Name || want[i].Unit != got[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, benchkit %v", kind, i, got[i], want[i])
			}
		}
	}
	sameDefs("end_to_end", benchkit.EndToEnd, sp.EndToEnd)
	sameDefs("per_layer", benchkit.PerLayer, sp.PerLayer)
	if len(sp.Workloads) != len(benchkit.Workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, benchkit %d", len(sp.Workloads), len(benchkit.Workloads))
	}

	root := t.TempDir()
	bin := filepath.Join(root, "bin")
	build(t, filepath.Join(bin, "ofmf"), "ofmf/cmd/ofmf")
	build(t, filepath.Join(bin, "ofmfbench"), "ofmf/bench/ofmfbench")
	build(t, filepath.Join(bin, "ofmfladder"), "ofmf/bench/ofmfladder")

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, w := range sp.Workloads {
		for trace, defs := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
			cmd := exec.Command(filepath.Join(bin, "ofmfbench"), "-root", root,
				"-ofmf", filepath.Join(bin, "ofmf"), "-ladder", filepath.Join(bin, "ofmfladder"),
				"-workload", w.Name, "-seed", "7", "-smoke",
				"-trace", []string{"0", "1"}[trace])
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace=%d: %v\n%s\n%s", w.Name, trace, err, out, stderr.Bytes())
			}
			var res benchkit.Result
			if err := json.Unmarshal(benchkit.LastLine(out), &res); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics printed, want %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !name.MatchString(d.Name):
					t.Errorf("metric name %q", d.Name)
				case !ok:
					t.Errorf("%s trace=%d: %s not printed", w.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%d: %s printed in %q, want %q", w.Name, trace, d.Name, m.Unit, d.Unit)
				}
			}
		}
		checkSpanTree(t, filepath.Join(root, "bench", "out", "trace-"+w.Name+".jsonl"))
	}
	if left, _ := filepath.Glob(filepath.Join(root, ".bench_build", "run-*")); len(left) != 0 {
		t.Errorf("run directories left behind: %v", left)
	}
}

// checkSpanTree holds every span to: a unique id, an end not before its
// start, and a parent that exists, belongs to the same trace and was
// open when the child started.
func checkSpanTree(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[uint64]benchkit.Span{}
	var spans []benchkit.Span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s benchkit.Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, dup := byID[s.SpanID]; dup || s.SpanID == 0 {
			t.Fatalf("%s: span id %d reused or zero", path, s.SpanID)
		}
		byID[s.SpanID] = s
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for _, s := range spans {
		if s.EndNS < s.StartNS || s.Name == "" {
			t.Errorf("%s: malformed span %+v", path, s)
		}
		if s.ParentID == 0 {
			continue
		}
		p, ok := byID[s.ParentID]
		if !ok || p.TraceID != s.TraceID || s.StartNS < p.StartNS || s.StartNS > p.EndNS {
			t.Errorf("%s: span %+v does not hang under its parent %+v", path, s, p)
		}
	}
}
