// Package benchkit holds what the out-of-process generator (ofmfbench)
// and the in-process layer ladder (ofmfladder) share: the metric
// catalogue, the seeded op sequences, percentile helpers, the span
// recorder and the host fingerprint. It imports nothing from module
// ofmf, so the generator keeps building when internal APIs move.
package benchkit

import "sort"

// Percentile returns the p-quantile (0..1) of sorted by nearest rank; 0
// for an empty slice.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1)+0.5)]
}

// Median sorts a copy of v and returns its median.
func Median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return Percentile(s, 0.5)
}

// Mean returns the arithmetic mean of v; 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// Warm drops the first tenth of a segment's samples: both processes
// are cold at a segment boundary because the other one just ran.
func Warm(samples []float64) []float64 {
	return samples[len(samples)/10:]
}

// SegmentP50 is the median of a segment after Warm.
func SegmentP50(samples []float64) float64 { return Median(Warm(samples)) }

// Quiet is the lower quartile of per-batch medians: the host disturbs a
// run in bursts shorter than a batch, so a quarter of the batches read
// the system under test with the host quiet, on either side of a ratio.
func Quiet(perBatch []float64) float64 {
	s := append([]float64(nil), perBatch...)
	sort.Float64s(s)
	return Percentile(s, 0.25)
}
