package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; 0 for an empty input.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// readCounter reads one cumulative runtime/metrics counter.
func readCounter(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func allocBytes() uint64   { return readCounter("/gc/heap/allocs:bytes") }
func allocObjects() uint64 { return readCounter("/gc/heap/allocs:objects") }

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks returns the host's cumulative CPU time and the part of it
// the hypervisor stole for other guests, in clock ticks, from the
// first line of /proc/stat. Both are 0 where that file is missing.
func hostTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// warmup is how long a run exercises the workload before measuring, so
// caches fill and one-time work (the first delta append to a graph
// index, plan caching) happens outside the measured interval. Its
// answers are still checked.
func warmup(seconds float64) float64 { return min(2, seconds/10) }

// maxSteal is the share of the host's CPU time the hypervisor may take
// in a window before the window is left out of the metrics.
const maxSteal = 0.10

// window is one slice of a measured interval (a second at full run
// length): the samples of operations that started in it, and the
// process and host counters over it.
type window struct {
	reads  []float64 // ms; buffered reads (point, batch, relational)
	writes []float64 // ms
	ttfr   []float64 // ms; streams report only their time to first rows
	done   int       // completed operations

	closed bool
	length time.Duration
	allocs uint64
	cpu    time.Duration
	// liveHeap holds the live heap, in bytes, after each GC cycle that
	// ended in the window (at least one reading per window).
	liveHeap []float64
	steal    float64
}

// counters is one reading of everything a window accumulates.
type counters struct {
	at           time.Time
	allocs       uint64
	cpu          time.Duration
	total, steal uint64
}

func readCounters() counters {
	total, steal := hostTicks()
	return counters{time.Now(), allocBytes(), cpuTime(), total, steal}
}

// phase is one measured interval cut into windows. On a shared virtual
// host the hypervisor can take a third of the vCPUs' time for seconds
// or minutes at a stretch, and every wall-clock figure swings with it;
// the metrics therefore come from the windows in which it took at most
// maxSteal, or from the least-stolen half of the windows when fewer
// qualify. Outcome counts (attempted, failed, wrong) cover every
// window.
type phase struct {
	mu        sync.Mutex
	attempted int
	failed    int
	wrong     int
	windows   []*window

	start time.Time
	width time.Duration
	stopc chan struct{}
	done  chan struct{}
}

// beginPhase settles the heap left by set-up and starts the clock for
// an interval of the given length. Until finish, it polls the live heap
// every millisecond, keeping one reading per GC cycle, and reads the
// counters at every window boundary.
func beginPhase(seconds float64) *phase {
	runtime.GC()
	length := time.Duration(seconds * float64(time.Second))
	p := &phase{width: min(time.Second, length/10), stopc: make(chan struct{}), done: make(chan struct{})}
	for range (length + p.width - 1) / p.width {
		p.windows = append(p.windows, &window{})
	}
	last := readCounters()
	p.start = last.at
	go func() {
		defer close(p.done)
		heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
		var cycle uint64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		cur := 0
		for {
			stopping := false
			select {
			case <-p.stopc:
				stopping = true
			case <-tick.C:
			}
			if i := p.index(time.Now()); i != cur || stopping {
				now := readCounters()
				p.close(cur, i, last, now)
				last, cur = now, i
			}
			if stopping {
				return
			}
			metrics.Read(heap)
			p.mu.Lock()
			w := p.windows[cur]
			if c := heap[1].Value.Uint64(); c != cycle || len(w.liveHeap) == 0 {
				cycle = c
				w.liveHeap = append(w.liveHeap, float64(heap[0].Value.Uint64()))
			}
			p.mu.Unlock()
		}
	}()
	return p
}

// index returns the window an instant falls in; the last window also
// takes operations that run past the interval's end.
func (p *phase) index(t time.Time) int {
	return min(max(int(t.Sub(p.start)/p.width), 0), len(p.windows)-1)
}

// close adds the counters read at the start and end of a stretch of
// window i to it. A stretch that ran past the windows before next (the
// sampler was not scheduled in time) closes those with i's steal.
func (p *phase) close(i, next int, from, to counters) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.windows[i]
	w.closed = true
	w.length += to.at.Sub(from.at)
	w.allocs += to.allocs - from.allocs
	w.cpu += to.cpu - from.cpu
	if ticks := to.total - from.total; ticks > 0 {
		w.steal = float64(to.steal-from.steal) / float64(ticks)
	}
	for _, skipped := range p.windows[i+1 : max(next, i+1)] {
		skipped.closed, skipped.steal = true, w.steal
	}
}

// finish stops the clock and the sampler.
func (p *phase) finish() {
	close(p.stopc)
	<-p.done
}

// opKind classifies an operation for the latency metrics.
type opKind int

const (
	opRead opKind = iota
	opWrite
	opStream
)

// record tallies one finished operation that started (or, in the open
// loop, was due) at start. err marks a failed, refused or wrong
// operation; wrong marks an answer the oracle rejected.
func (p *phase) record(kind opKind, start time.Time, latency, ttfr time.Duration, err error, wrong bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err != nil {
		p.failed++
		if wrong {
			p.wrong++
		}
		return
	}
	w := p.windows[p.index(start)]
	w.done++
	switch kind {
	case opWrite:
		w.writes = append(w.writes, ms(latency))
	case opStream:
		w.ttfr = append(w.ttfr, ms(ttfr))
	default:
		w.reads = append(w.reads, ms(latency))
	}
}

// used returns the windows the metrics come from: every closed window
// with at most maxSteal stolen, or the least-stolen half when fewer
// qualify.
func (p *phase) used() []*window {
	p.mu.Lock()
	defer p.mu.Unlock()
	var ws []*window
	for _, w := range p.windows {
		if w.closed {
			ws = append(ws, w)
		}
	}
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].steal < ws[j].steal })
	keep := sort.Search(len(ws), func(i int) bool { return ws[i].steal > maxSteal })
	return ws[:max(keep, (len(ws)+1)/2)]
}

// stealNote says how much time the hypervisor took and which windows
// the metrics use.
func (p *phase) stealNote() string {
	var all, kept []float64
	for _, w := range p.windows {
		all = append(all, w.steal)
	}
	used := p.used()
	for _, w := range used {
		kept = append(kept, w.steal)
	}
	return fmt.Sprintf("steal: median %.1f%%, max %.1f%% over %d windows; metrics use %d windows, worst %.1f%%",
		100*median(all), 100*quantile(all, 1), len(all), len(used), 100*quantile(kept, 1))
}

// endToEnd returns the end-to-end metrics over the used windows.
// Set-up times are in seconds.
func (p *phase) endToEnd(setups []float64) []metric {
	var reads, writes, ttfr []float64
	var done int
	var length, cpu time.Duration
	var allocs uint64
	var live []float64
	for _, w := range p.used() {
		reads = append(reads, w.reads...)
		writes = append(writes, w.writes...)
		ttfr = append(ttfr, w.ttfr...)
		done += w.done
		length += w.length
		cpu += w.cpu
		allocs += w.allocs
		live = append(live, w.liveHeap...)
	}
	perOp := func(x float64) float64 { return x / float64(max(done, 1)) }
	return []metric{
		{"setup_s", median(setups), "s", len(setups)},
		{"ops_per_s", float64(done) / length.Seconds(), "1/s", done},
		{"latency_p50_ms", median(reads), "ms", len(reads)},
		{"latency_p99_ms", quantile(reads, 0.99), "ms", len(reads)},
		{"write_p50_ms", median(writes), "ms", len(writes)},
		{"stream_ttfr_p50_ms", median(ttfr), "ms", len(ttfr)},
		{"peak_heap_mb", quantile(live, 0.95) / (1 << 20), "MB", len(live)},
		{"cpu_ms_per_op", perOp(ms(cpu)), "ms", done},
		{"alloc_kb_per_op", perOp(float64(allocs) / 1024), "KB", done},
	}
}

// add folds the outcome counts of q into the report.
func (r *report) add(q *phase) {
	r.attempted += q.attempted
	r.failed += q.failed
	r.wrong += q.wrong
}
