package benchkit

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's own
// files. Spans of one replayed op share TraceID; ParentID is 0 at a root.
type Span struct {
	TraceID  uint64 `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, which is how the spans-off rung runs the same code.
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
	next  uint64
}

// NewRecorder starts the clock spans are stamped against.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Start opens a span; call the returned func to close it. The returned
// id parents child spans.
func (r *Recorder) Start(trace, parent uint64, name string) (id uint64, end func()) {
	if r == nil {
		return 0, func() {}
	}
	start := time.Since(r.t0)
	r.mu.Lock()
	r.next++
	id = r.next
	r.mu.Unlock()
	return id, func() {
		stop := time.Since(r.t0)
		r.mu.Lock()
		r.spans = append(r.spans, Span{trace, id, parent, name, start.Nanoseconds(), stop.Nanoseconds()})
		r.mu.Unlock()
	}
}

// Spans returns what was recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns, per span name, each span's duration minus the part
// its direct children cover, in nanoseconds.
func SelfTimes(spans []Span) map[string][]float64 {
	children := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		if s.ParentID != 0 {
			children[s.ParentID] += s.EndNS - s.StartNS
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNS-s.StartNS-children[s.SpanID]))
	}
	return out
}

// WriteSpans writes spans as JSON lines to path, creating its directory.
func WriteSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
