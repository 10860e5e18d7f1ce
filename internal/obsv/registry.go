package obsv

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric family types as rendered in exposition output.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// DefBuckets are the default histogram bucket upper bounds, in seconds,
// spanning sub-millisecond store hits to multi-second compose operations.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// atomicFloat is a float64 updated atomically through its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(d float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

func (f *atomicFloat) Set(v float64)  { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct{ v atomicFloat }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d, which must not be negative.
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic("obsv: counter decrease")
	}
	c.v.Add(d)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Value() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.Set(v) }

// Add adds d (negative d decreases).
func (g *Gauge) Add(d float64) { g.v.Add(d) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Value() }

// Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	bounds []float64       // sorted upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	sum    atomicFloat
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// series is one labelled instrument inside a family.
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// family groups all series of one metric name.
type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64 // histograms only

	mu     sync.RWMutex
	series map[string]*series
}

const labelSep = "\xff"

func (f *family) get(labelValues []string) *series {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("obsv: metric %s expects %d label values, got %d",
			f.name, len(f.labels), len(labelValues)))
	}
	key := strings.Join(labelValues, labelSep)
	f.mu.RLock()
	sr, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return sr
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if sr, ok = f.series[key]; ok {
		return sr
	}
	sr = &series{labelValues: append([]string(nil), labelValues...)}
	switch f.typ {
	case TypeCounter:
		sr.counter = &Counter{}
	case TypeGauge:
		sr.gauge = &Gauge{}
	case TypeHistogram:
		sr.hist = newHistogram(f.buckets)
	}
	f.series[key] = sr
	return sr
}

// delete drops the series with the given label values, if any.
func (f *family) delete(labelValues []string) {
	f.mu.Lock()
	delete(f.series, strings.Join(labelValues, labelSep))
	f.mu.Unlock()
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(labelValues ...string) *Counter { return v.fam.get(labelValues).counter }

// Delete removes the counter for the given label values from exposition.
func (v *CounterVec) Delete(labelValues ...string) { v.fam.delete(labelValues) }

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge { return v.fam.get(labelValues).gauge }

// Delete removes the gauge for the given label values from exposition.
func (v *GaugeVec) Delete(labelValues ...string) { v.fam.delete(labelValues) }

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram { return v.fam.get(labelValues).hist }

// funcMetric is an unlabelled counter or gauge whose value is computed
// at gather time from a closure — used to surface numbers maintained
// elsewhere (e.g. the event bus's delivery statistics, the store's
// resource count) without double bookkeeping. Immutable once registered:
// re-registration replaces the map entry.
type funcMetric struct {
	name string
	help string
	typ  string
	fn   func() float64
}

// Registry is a concurrency-safe collection of metric families.
type Registry struct {
	mu    sync.RWMutex
	fams  map[string]*family
	funcs map[string]*funcMetric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family), funcs: make(map[string]*funcMetric)}
}

func (r *Registry) register(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obsv: metric %s re-registered with different type or labels", name))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		typ:     typ,
		labels:  append([]string(nil), labels...),
		buckets: buckets,
		series:  make(map[string]*series),
	}
	r.fams[name] = f
	return f
}

// Counter registers (or returns) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, TypeCounter, nil, nil).get(nil).counter
}

// CounterVec registers (or returns) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, TypeCounter, labels, nil)}
}

// Gauge registers (or returns) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, TypeGauge, nil, nil).get(nil).gauge
}

// GaugeVec registers (or returns) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, TypeGauge, labels, nil)}
}

// Histogram registers (or returns) an unlabelled histogram with the
// given bucket upper bounds (DefBuckets when nil).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.register(name, help, TypeHistogram, nil, buckets).get(nil).hist
}

// HistogramVec registers (or returns) a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{fam: r.register(name, help, TypeHistogram, labels, buckets)}
}

func (r *Registry) registerFunc(name, help, typ string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if fm, ok := r.funcs[name]; ok && fm.typ != typ {
		panic(fmt.Sprintf("obsv: func metric %s re-registered with different type", name))
	}
	r.funcs[name] = &funcMetric{name: name, help: help, typ: typ, fn: fn}
}

// CounterFunc registers a counter whose value is read from fn at gather
// time. Re-registering the same name replaces the function, so wiring a
// fresh service onto a shared registry stays safe.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.registerFunc(name, help, TypeCounter, fn)
}

// GaugeFunc registers a gauge whose value is read from fn at gather time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.registerFunc(name, help, TypeGauge, fn)
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	UpperBound float64 // +Inf for the last bucket
	Count      uint64  // cumulative
}

// Sample is one series' state in a snapshot.
type Sample struct {
	LabelValues []string
	Value       float64  // counter and gauge
	Buckets     []Bucket // histogram
	Sum         float64  // histogram
	Count       uint64   // histogram
}

// Family is one metric family's state in a snapshot.
type Family struct {
	Name       string
	Help       string
	Type       string
	LabelNames []string
	Samples    []Sample
}

// Gather snapshots every family, sorted by name, with samples sorted by
// label values — the deterministic order exposition and the
// SelfCollector render from.
func (r *Registry) Gather() []Family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	// The closures run after the lock is released.
	funcs := make([]*funcMetric, 0, len(r.funcs))
	for _, fm := range r.funcs {
		funcs = append(funcs, fm)
	}
	r.mu.RUnlock()

	out := make([]Family, 0, len(fams)+len(funcs))
	for _, f := range fams {
		f.mu.RLock()
		fam := Family{
			Name:       f.name,
			Help:       f.help,
			Type:       f.typ,
			LabelNames: f.labels,
			Samples:    make([]Sample, 0, len(f.series)),
		}
		for _, sr := range f.series {
			s := Sample{LabelValues: sr.labelValues}
			switch f.typ {
			case TypeCounter:
				s.Value = sr.counter.Value()
			case TypeGauge:
				s.Value = sr.gauge.Value()
			case TypeHistogram:
				h := sr.hist
				s.Sum = h.Sum()
				s.Count = h.Count()
				var cum uint64
				s.Buckets = make([]Bucket, 0, len(h.bounds)+1)
				for i, b := range h.bounds {
					cum += h.counts[i].Load()
					s.Buckets = append(s.Buckets, Bucket{UpperBound: b, Count: cum})
				}
				cum += h.counts[len(h.bounds)].Load()
				s.Buckets = append(s.Buckets, Bucket{UpperBound: math.Inf(1), Count: cum})
			}
			fam.Samples = append(fam.Samples, s)
		}
		f.mu.RUnlock()
		sort.Slice(fam.Samples, func(i, j int) bool {
			return strings.Join(fam.Samples[i].LabelValues, labelSep) <
				strings.Join(fam.Samples[j].LabelValues, labelSep)
		})
		out = append(out, fam)
	}
	for _, fm := range funcs {
		out = append(out, Family{
			Name:    fm.name,
			Help:    fm.help,
			Type:    fm.typ,
			Samples: []Sample{{Value: fm.fn()}},
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
