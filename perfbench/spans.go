package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one operation share Op; a
// root span has Parent 0. N > 1 marks a span timing N repetitions of
// the same call (sub-microsecond front-end calls are timed in loops).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so the untraced run pays no tracing cost.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil log).
func (l *spanLog) begin(op int64, parent int, name string) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(l.spans)
}

// end closes span id, which timed n repetitions of its call.
func (l *spanLog) end(id, n int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = now
	if n > 1 {
		l.spans[id-1].N = n
	}
}

// record adds a span that has already ended, for intervals that start
// before the benchmark could open a span (a request's due time).
func (l *spanLog) record(op int64, parent int, name string, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()})
	return len(l.spans)
}

// perCall returns the per-call duration of every closed span named
// name, in microseconds.
func (l *spanLog) perCall(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, us(s.dur())/float64(max(s.N, 1)))
		}
	}
	return out
}

// layerSummary aggregates the spans of one name. Self time is a span's
// duration minus the part of it its child spans cover.
type layerSummary struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	Calls   int     `json:"calls"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
	P50US   float64 `json:"p50_us_per_call"`
}

func (l *spanLog) summary() []layerSummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[int][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 && s.End > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*layerSummary{}
	perCall := map[string][]float64{}
	for _, s := range l.spans {
		if s.End == 0 {
			continue
		}
		ls := byName[s.Name]
		if ls == nil {
			ls = &layerSummary{Name: s.Name}
			byName[s.Name] = ls
		}
		n := max(s.N, 1)
		ls.Spans++
		ls.Calls += n
		ls.TotalUS += us(s.dur())
		ls.SelfUS += us(s.dur() - covered(s, children[s.ID]))
		perCall[s.Name] = append(perCall[s.Name], us(s.dur())/float64(n))
	}
	out := make([]layerSummary, 0, len(byName))
	for name, ls := range byName {
		ls.P50US = median(perCall[name])
		out = append(out, *ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfUS > out[j].SelfUS })
	return out
}

// covered returns how much of parent's interval its children cover,
// counting overlapping children once.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, at int64 = 0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, at), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return time.Duration(total)
}

// write stores the span file and the per-layer summary under dir and
// returns their paths.
func (l *spanLog) write(dir string, h host) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", h.Workload, h.Seed))
	summary := l.summary()
	l.mu.Lock()
	spans := map[string]any{"host": h, "spans": l.spans}
	data, err := json.Marshal(spans)
	l.mu.Unlock()
	if err != nil {
		return nil, err
	}
	files := []string{base + "-spans.json", base + "-layers.json"}
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		return nil, err
	}
	data, err = json.MarshalIndent(map[string]any{"host": h, "layers": summary}, "", "  ")
	if err != nil {
		return nil, err
	}
	return files, os.WriteFile(files[1], data, 0o644)
}
