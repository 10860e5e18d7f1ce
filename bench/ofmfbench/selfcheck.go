package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"

	"ofmf/bench/benchkit"
)

// quartileSpread is (Q3-Q1)/median with the quartiles of Python's
// statistics.quantiles(values, n=4), which is how the driver judges
// whether a metric is steady enough to gate on.
func quartileSpread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) < 2 {
		return 0
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		d := i*m - j*4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return (q(3) - q(1)) / benchkit.Median(s)
}

// runSelfcheck runs two sets of n end-to-end runs of every workload,
// alternating workloads so that both sets see the same host drift, and
// prints per metric the two medians, how far the second is worse than
// the first, each set's quartile spread, and the bound. It is the
// evidence that the same code measures the same twice.
func runSelfcheck(o options, n int) int {
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		EndToEnd   []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	raw, err := os.ReadFile(filepath.Join(o.root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ofmfbench: BENCHMARK.json: %v\n", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ofmfbench: %v\n", err)
		return 1
	}
	// values[set][workload][metric] holds one number per run.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for i := 0; i < n; i++ {
			for _, w := range benchkit.Workloads {
				seed := 1000*set + i + 1
				cmd := exec.Command(self, "-root", o.root, "-ofmf", o.ofmfBin, "-workload", w,
					"-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(spec.RunSeconds), "-trace", "0",
					"-v="+strconv.FormatBool(verbose))
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(os.Stderr, "ofmfbench: selfcheck: %s seed %d: %v\n", w, seed, err)
					return 1
				}
				var res benchkit.Result
				if err := json.Unmarshal(benchkit.LastLine(out), &res); err != nil {
					fmt.Fprintf(os.Stderr, "ofmfbench: selfcheck: %s seed %d: %v\n", w, seed, err)
					return 1
				}
				if values[set][w] == nil {
					values[set][w] = map[string][]float64{}
				}
				for name, m := range res.Metrics {
					values[set][w][name] = append(values[set][w][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck set %d run %d %s done\n", set+1, i+1, w)
			}
		}
	}
	host, _ := json.Marshal(benchkit.Fingerprint(o.root))
	fmt.Printf("selfcheck: 2 sets of %d runs, %d s each, host %s\n\n", n, spec.RunSeconds, host)
	fmt.Println("| workload | metric | median A | median B | B worse by | spread A | spread B | bound |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	status := 0
	for _, w := range benchkit.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := values[0][w][m.Name], values[1][w][m.Name]
			ma, mb := benchkit.Median(a), benchkit.Median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := quartileSpread(a), quartileSpread(b)
			// The driver rejects a benchmark whose second median is worse
			// by more than the bound or whose spread (setup_s excepted)
			// exceeds it; the issue asks to act already at half the bound.
			flag := ""
			switch {
			case worse > m.Bound || (m.Name != "setup_s" && math.Max(sa, sb) > m.Bound):
				flag = " **over**"
				status = 1
			case math.Abs(worse) > m.Bound/2:
				flag = " *half*"
			}
			fmt.Printf("| %s | %s | %.5g | %.5g | %+.1f %% | %.1f %% | %.1f %% | %.0f %%%s |\n",
				w, m.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, flag)
		}
	}
	return status
}
