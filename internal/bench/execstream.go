package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"graphsql/internal/engine"
)

// ExecStreamPoint is one measurement of the -exp execstream
// experiment: a prepared SELECT drained through the cursor seam at the
// default batch size ("pull") and with one unbounded batch
// ("materialize"), back-to-back on the same host. The unbounded batch
// is the full-materialization reference: every operator produces its
// whole output before the first window, as a materializing executor
// would. Two properties are recorded per workload:
//
//   - time-to-first-row: the wall time from ExecPreparedCursor to the
//     first window. At the default batch size the first window of a
//     pipeline-only query surfaces after one batch; with one unbounded
//     batch it waits for the whole result. The speedup ratio
//     (materialize TTFR / pull TTFR) is host-comparable — both sides
//     run seconds apart — and is what benchdiff gates.
//   - allocation volume: total bytes allocated per drain, reported per
//     side with the materialize−pull delta. Informational, and it can
//     go either way: bounded batches skip whole-result materialization
//     but pay copy costs re-batching ragged operator output into even
//     windows, and breakers hold their cores' full state either way.
//     What bounded batches bound is peak *live* intermediate size (see
//     TestPullBoundedIntermediates), not allocation volume.
//
// The JSON field names are stable; downstream tooling tracks them.
type ExecStreamPoint struct {
	Workload          string  `json:"workload"`
	SF                int     `json:"sf"`
	Shrink            int     `json:"shrink"`
	Rows              int     `json:"rows"`
	MaterializeTTFRNs float64 `json:"materialize_ttfr_ns"`
	PullTTFRNs        float64 `json:"pull_ttfr_ns"`
	// TTFRSpeedup is materialize TTFR / pull TTFR: > 1 means bounded
	// batches surface the first window earlier.
	TTFRSpeedup        float64 `json:"ttfr_speedup"`
	MaterializeSeconds float64 `json:"materialize_seconds"`
	PullSeconds        float64 `json:"pull_seconds"`
	MaterializeAllocMB float64 `json:"materialize_alloc_mb"`
	PullAllocMB        float64 `json:"pull_alloc_mb"`
	AllocDeltaMB       float64 `json:"alloc_delta_mb"`
}

// execStreamWorkloads bracket the streaming claim: pipeline-only shapes
// (scan, filter) where bounded batches pay off, and a breaker (ORDER
// BY) that materializes at any batch size — its TTFR ratio near 1
// documents the boundary of the claim and falls below benchdiff's
// signal floor, so it never gates.
var execStreamWorkloads = []struct {
	name  string
	query string
}{
	{"scan", `SELECT src, dst, iweight FROM friends`},
	{"filter_scan", `SELECT src, dst FROM friends WHERE dst > src`},
	{"order_by", `SELECT src, dst FROM friends ORDER BY dst, src`},
}

// execStreamRounds repeats each (workload, batch size) measurement;
// the fastest round is reported, like the other experiments.
const execStreamRounds = 5

// execStreamWindow is the drain window; matching the executor's
// default batch keeps one window per operator batch.
const execStreamWindow = 1024

// Operator batch bounds under comparison: the default, and one
// unbounded batch as the full-materialization reference.
const (
	pullBatchRows        = 0
	materializeBatchRows = math.MaxInt32
)

// drainOnce executes the prepared statement at one operator batch
// bound and drains it, returning time-to-first-window, total drain
// time, rows and bytes allocated.
func drainOnce(e *engine.Engine, prep *engine.Prepared, batchRows int) (ttfr, total time.Duration, rows int, allocBytes uint64, err error) {
	opts := engine.DefaultExecOptions()
	opts.BatchRows = batchRows
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	cur, err := e.ExecPreparedCursor(context.Background(), prep, &opts)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer cur.Close()
	first := true
	for {
		win, err := cur.Next(execStreamWindow)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if win == nil {
			break
		}
		if first {
			ttfr = time.Since(start)
			first = false
		}
		rows += win.NumRows()
	}
	total = time.Since(start)
	runtime.ReadMemStats(&msAfter)
	return ttfr, total, rows, msAfter.TotalAlloc - msBefore.TotalAlloc, nil
}

// ExecStream runs the executor-streaming micro-experiment on the
// smallest configured scale factor.
func ExecStream(o Options) error {
	o.Defaults()
	sf := o.SFs[0]
	e, _, err := Setup(sf, o.Shrink, o.Seed)
	if err != nil {
		return err
	}
	e.SetParallelism(o.Parallelism)

	fmt.Fprintf(o.Out, "Executor streaming: time-to-first-row and allocation, default batches (pull) vs one unbounded batch (mat), SF %d shrink=%d\n", sf, o.Shrink)
	fmt.Fprintf(o.Out, "%-12s %10s %14s %14s %8s %12s %12s %10s\n",
		"workload", "rows", "mat ttfr", "pull ttfr", "speedup", "mat alloc", "pull alloc", "delta")
	var points []ExecStreamPoint
	for _, wl := range execStreamWorkloads {
		prep, err := e.Prepare(wl.query)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		// Warm-up both sides: first-use initialization must not count.
		for _, br := range []int{materializeBatchRows, pullBatchRows} {
			if _, _, _, _, err := drainOnce(e, prep, br); err != nil {
				return fmt.Errorf("%s batch=%d: %w", wl.name, br, err)
			}
		}
		p := ExecStreamPoint{Workload: wl.name, SF: sf, Shrink: o.Shrink}
		best := func(batchRows int) (ttfr, total time.Duration, alloc uint64, err error) {
			ttfr, total, alloc = 1<<62, 1<<62, 1<<62
			for r := 0; r < execStreamRounds; r++ {
				tf, tt, rows, ab, err := drainOnce(e, prep, batchRows)
				if err != nil {
					return 0, 0, 0, err
				}
				p.Rows = rows
				if tf < ttfr {
					ttfr = tf
				}
				if tt < total {
					total = tt
				}
				if ab < alloc {
					alloc = ab
				}
			}
			return ttfr, total, alloc, nil
		}
		mtf, mtt, malloc, err := best(materializeBatchRows)
		if err != nil {
			return fmt.Errorf("%s materialize: %w", wl.name, err)
		}
		ptf, ptt, palloc, err := best(pullBatchRows)
		if err != nil {
			return fmt.Errorf("%s pull: %w", wl.name, err)
		}
		p.MaterializeTTFRNs = float64(mtf.Nanoseconds())
		p.PullTTFRNs = float64(ptf.Nanoseconds())
		if p.PullTTFRNs > 0 {
			p.TTFRSpeedup = p.MaterializeTTFRNs / p.PullTTFRNs
		}
		p.MaterializeSeconds = mtt.Seconds()
		p.PullSeconds = ptt.Seconds()
		const mb = 1 << 20
		p.MaterializeAllocMB = float64(malloc) / mb
		p.PullAllocMB = float64(palloc) / mb
		p.AllocDeltaMB = p.MaterializeAllocMB - p.PullAllocMB
		points = append(points, p)
		fmt.Fprintf(o.Out, "%-12s %10d %14s %14s %7.2fx %10.2fMB %10.2fMB %8.2fMB\n",
			p.Workload, p.Rows, mtf, ptf, p.TTFRSpeedup,
			p.MaterializeAllocMB, p.PullAllocMB, p.AllocDeltaMB)
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
