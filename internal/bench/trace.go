package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"graphsql/internal/engine"
	itrace "graphsql/internal/trace"
	"graphsql/internal/types"
)

// TracePoint is one measurement of the -exp trace experiment: a
// prepared statement executed back-to-back with tracing off (the
// production default) and tracing on (a fresh span recorder per op,
// exactly what EXPLAIN ANALYZE and a traced wire request pay). The
// overhead ratio traced/untraced is approximately host-independent —
// both sides run on the same machine seconds apart — so benchdiff can
// gate it on ANY host, like the parse allocs/op points. The JSON field
// names are stable; downstream tooling tracks them.
type TracePoint struct {
	Workload        string  `json:"workload"`
	SF              int     `json:"sf"`
	Shrink          int     `json:"shrink"`
	Spans           int     `json:"spans"`
	UntracedNsPerOp float64 `json:"untraced_ns_per_op"`
	TracedNsPerOp   float64 `json:"traced_ns_per_op"`
	OverheadRatio   float64 `json:"overhead_ratio"`
}

// traceWorkloads bracket the tracing cost: a cheap selective scan
// (where fixed per-query span cost is most visible) and the paper's
// shortest-path shape (where per-level frontier samples dominate).
// Reps are per round; the cheap statement needs many to rise above
// timer resolution.
var traceWorkloads = []struct {
	name  string
	query string
	reps  int
}{
	{"point_filter", `SELECT src, dst FROM friends WHERE src = ? ORDER BY dst LIMIT 8`, 200},
	{"shortest_path", Q13, 25},
}

// traceRounds repeats each (workload, mode) measurement; the fastest
// round is reported, like the other experiments.
const traceRounds = 5

// countSpans walks a rendered span tree.
func countSpans(n *itrace.Node) int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += countSpans(c)
	}
	return total
}

// Trace runs the tracing-overhead micro-experiment on the smallest
// configured scale factor.
func Trace(o Options) error {
	o.Defaults()
	sf := o.SFs[0]
	e, ds, err := Setup(sf, o.Shrink, o.Seed)
	if err != nil {
		return err
	}
	e.SetParallelism(o.Parallelism)
	src, dst := ds.RandomPairs(1, o.Seed)

	fmt.Fprintf(o.Out, "Tracing overhead: traced vs untraced prepared execution, SF %d shrink=%d\n", sf, o.Shrink)
	fmt.Fprintf(o.Out, "%-16s %8s %16s %16s %10s\n", "workload", "spans", "untraced ns/op", "traced ns/op", "overhead")
	ctx := context.Background()
	var points []TracePoint
	for _, wl := range traceWorkloads {
		params := []types.Value{types.NewInt(src[0])}
		if wl.name == "shortest_path" {
			params = []types.Value{types.NewInt(src[0]), types.NewInt(dst[0])}
		}
		prep, err := e.Prepare(wl.query, params...)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		run := func(tr *itrace.Trace) error {
			opts := engine.DefaultExecOptions()
			opts.Trace = tr
			cur, err := e.ExecPreparedCursor(ctx, prep, &opts, params...)
			if err != nil {
				return err
			}
			defer cur.Close()
			_, err = cur.Next(0)
			return err
		}
		// Warm-up both modes: first-use initialization must not count.
		if err := run(nil); err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		warm := itrace.New()
		if err := run(warm); err != nil {
			return fmt.Errorf("%s traced: %w", wl.name, err)
		}
		spans := countSpans(warm.Tree())

		bestOff := time.Duration(1 << 62)
		bestOn := time.Duration(1 << 62)
		for r := 0; r < traceRounds; r++ {
			start := time.Now()
			for i := 0; i < wl.reps; i++ {
				if err := run(nil); err != nil {
					return err
				}
			}
			if d := time.Since(start); d < bestOff {
				bestOff = d
			}
			start = time.Now()
			for i := 0; i < wl.reps; i++ {
				// A fresh recorder per op is the real client cost.
				if err := run(itrace.New()); err != nil {
					return err
				}
			}
			if d := time.Since(start); d < bestOn {
				bestOn = d
			}
		}
		p := TracePoint{
			Workload:        wl.name,
			SF:              sf,
			Shrink:          o.Shrink,
			Spans:           spans,
			UntracedNsPerOp: float64(bestOff.Nanoseconds()) / float64(wl.reps),
			TracedNsPerOp:   float64(bestOn.Nanoseconds()) / float64(wl.reps),
		}
		if p.UntracedNsPerOp > 0 {
			p.OverheadRatio = p.TracedNsPerOp / p.UntracedNsPerOp
		}
		points = append(points, p)
		fmt.Fprintf(o.Out, "%-16s %8d %16.1f %16.1f %9.3fx\n",
			p.Workload, p.Spans, p.UntracedNsPerOp, p.TracedNsPerOp, p.OverheadRatio)
	}
	if o.JSONOut != nil {
		enc := json.NewEncoder(o.JSONOut)
		enc.SetIndent("", "  ")
		if err := enc.Encode(points); err != nil {
			return err
		}
	}
	return nil
}
