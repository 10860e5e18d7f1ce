package obsv

import (
	"math"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(10)
	g.Dec()
	g.Add(-2)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %v, want 7", got)
	}
}

func TestCounterRejectsDecrease(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestVecLabelPartitioning(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("reqs_total", "requests", "method", "code")
	v.With("GET", "200").Inc()
	v.With("GET", "200").Inc()
	v.With("POST", "500").Inc()
	if got := v.With("GET", "200").Value(); got != 2 {
		t.Errorf(`GET/200 = %v, want 2`, got)
	}
	if got := v.With("POST", "500").Value(); got != 1 {
		t.Errorf(`POST/500 = %v, want 1`, got)
	}
	v.Delete("GET", "200")
	if got := v.With("GET", "200").Value(); got != 0 {
		t.Errorf(`GET/200 after Delete = %v, want a fresh 0`, got)
	}
	if got := v.With("POST", "500").Value(); got != 1 {
		t.Errorf(`POST/500 after deleting GET/200 = %v, want 1`, got)
	}
}

func TestVecLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("reqs_total", "requests", "method", "code")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.With("GET")
}

func TestRegistrationIdempotentButConflictPanics(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	a.Inc()
	if b.Value() != 1 {
		t.Error("re-registration did not return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type conflict did not panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Errorf("sum = %v, want 56.05", h.Sum())
	}

	fams := r.Gather()
	if len(fams) != 1 {
		t.Fatalf("families = %d, want 1", len(fams))
	}
	s := fams[0].Samples[0]
	wantCum := []uint64{1, 3, 4, 5} // le=0.1, le=1, le=10, le=+Inf
	if len(s.Buckets) != len(wantCum) {
		t.Fatalf("buckets = %d, want %d", len(s.Buckets), len(wantCum))
	}
	for i, b := range s.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %d (le=%v) = %d, want %d", i, b.UpperBound, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(s.Buckets[len(s.Buckets)-1].UpperBound, 1) {
		t.Error("last bucket bound is not +Inf")
	}
}

func TestFuncMetricsReadAtGatherTime(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.CounterFunc("ticks_total", "ticks", func() float64 { return v })
	v = 42
	fams := r.Gather()
	if len(fams) != 1 || fams[0].Samples[0].Value != 42 {
		t.Errorf("gather = %+v, want single sample of 42", fams)
	}

	// Re-registration replaces the closure (fresh service, shared registry).
	r.CounterFunc("ticks_total", "ticks", func() float64 { return 7 })
	if got := r.Gather()[0].Samples[0].Value; got != 7 {
		t.Errorf("after replace = %v, want 7", got)
	}
}

func TestGatherOrdering(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "z")
	r.Counter("aa_total", "a")
	v := r.GaugeVec("mm", "m", "l")
	v.With("b").Set(1)
	v.With("a").Set(2)

	fams := r.Gather()
	if fams[0].Name != "aa_total" || fams[1].Name != "mm" || fams[2].Name != "zz_total" {
		t.Errorf("family order = %s, %s, %s", fams[0].Name, fams[1].Name, fams[2].Name)
	}
	mm := fams[1]
	if mm.Samples[0].LabelValues[0] != "a" || mm.Samples[1].LabelValues[0] != "b" {
		t.Errorf("sample order = %v", mm.Samples)
	}
}
