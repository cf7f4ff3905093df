package graphsql

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"graphsql/internal/testutil"
)

// The executor differential extends the determinism guarantee across
// operator batch sizes: every corpus query must render
// byte-identically whether the operators hand each other one row at a
// time, a few rows, the default batch, or one unbounded batch — at
// every differential parallelism setting. The reference is one
// unbounded batch at parallelism 1: every operator then produces its
// whole output before its consumer runs, the fully materialized
// evaluation the paper's prototype performs. Breakers run the same
// materializing cores at any batch size, so a divergence here means a
// pipeline operator (scan, filter, project, unnest, union-all, limit)
// re-batches something wrong.

// unboundedBatch is a batch bound no corpus result reaches.
const unboundedBatch = math.MaxInt32

// diffBatchRows are the batch bounds compared against the reference:
// degenerate, tiny (forcing every window boundary), and the default.
var diffBatchRows = []int{1, 3, 0}

func describeBatch(batchRows int) string {
	switch batchRows {
	case 0:
		return "batch=default"
	case unboundedBatch:
		return "batch=unbounded"
	}
	return fmt.Sprintf("batch=%d", batchRows)
}

func TestExecutorDifferential(t *testing.T) {
	forceParallelOperators(t)
	ctx := context.Background()
	settings := differentialSettings()
	sessions := make([]*Session, len(settings))
	for i, p := range settings {
		sessions[i] = openCorpusDB(t, p).Session()
	}
	for qi, q := range testutil.Queries() {
		ref, err := sessions[0].QueryOpts(ctx, QueryOptions{BatchRows: unboundedBatch}, q)
		if err != nil {
			t.Fatalf("q%02d reference: %v\nquery: %s", qi, err, q)
		}
		want := ref.String()
		for i, p := range settings {
			for _, br := range diffBatchRows {
				got, err := sessions[i].QueryOpts(ctx, QueryOptions{BatchRows: br}, q)
				if err != nil {
					t.Fatalf("parallelism %d q%02d %s: %v\nquery: %s", p, qi, describeBatch(br), err, q)
				}
				if got.String() != want {
					t.Errorf("parallelism %d q%02d: %s renders differently from the reference (parallelism 1, %s)\nquery: %s\n--- reference (%d rows)\n%s--- %s (%d rows)\n%s",
						p, qi, describeBatch(br), describeBatch(unboundedBatch), q,
						ref.Len(), want, describeBatch(br), got.Len(), got.String())
				}
			}
		}
	}
}

// TestExecutorStreamingEquivalence locks the streamed drain to the
// buffered result: reassembling a cursor's windows — tiny operator
// batches, a window size coprime to them, so windows constantly span
// batch boundaries — must reproduce DB.Query exactly, and the frame
// sequence must be the deterministic ceil(n/window) shape the wire
// cache replay depends on.
func TestExecutorStreamingEquivalence(t *testing.T) {
	forceParallelOperators(t)
	ctx := context.Background()
	db := openCorpusDB(t, 2)
	for qi, q := range testutil.Queries() {
		ref, err := db.Query(q)
		if err != nil {
			t.Fatalf("q%02d: %v\nquery: %s", qi, err, q)
		}
		rows, err := db.QueryRows(ctx, QueryOptions{BatchRows: 3}, q)
		if err != nil {
			t.Fatalf("q%02d: QueryRows: %v\nquery: %s", qi, err, q)
		}
		const window = 5
		got := &Result{Columns: rows.Columns}
		frames := 0
		for {
			batch, err := rows.NextBatch(window)
			if err != nil {
				t.Fatalf("q%02d: NextBatch: %v\nquery: %s", qi, err, q)
			}
			if batch == nil {
				break
			}
			frames++
			if len(batch) != window && len(got.Rows)+len(batch) != ref.Len() {
				t.Fatalf("q%02d: short window of %d rows mid-stream (frame %d)\nquery: %s",
					qi, len(batch), frames, q)
			}
			got.Rows = append(got.Rows, batch...)
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("q%02d: Close: %v", qi, err)
		}
		if got.String() != ref.String() {
			t.Errorf("q%02d: streamed drain differs from buffered result\nquery: %s\n--- buffered (%d rows)\n%s--- streamed (%d rows)\n%s",
				qi, q, ref.Len(), ref.String(), len(got.Rows), got.String())
		}
		if wantFrames := (ref.Len() + window - 1) / window; frames != wantFrames {
			t.Errorf("q%02d: %d rows in %d frames of %d, want %d\nquery: %s",
				qi, ref.Len(), frames, window, wantFrames, q)
		}
	}
}

// TestExplainAnalyzeExecutors runs EXPLAIN ANALYZE at each operator
// batch size and checks the contract every run must honor: the
// annotated root reports the true result cardinality and a wall time.
// The per-operator actuals underneath are allowed to differ — a Limit
// stops pulling its child as soon as the quota fills, so with small
// batches upstream operators legitimately report fewer rows than with
// one unbounded batch.
func TestExplainAnalyzeExecutors(t *testing.T) {
	forceParallelOperators(t)
	ctx := context.Background()
	db := openCorpusDB(t, 2)
	sess := db.Session()
	for _, br := range []int{unboundedBatch, 0, 3} {
		qo := QueryOptions{BatchRows: br}
		run := describeBatch(br)
		for qi, q := range testutil.Queries() {
			ref, err := sess.QueryOpts(ctx, qo, q)
			if err != nil {
				t.Fatalf("%s q%02d: %v\nquery: %s", run, qi, err, q)
			}
			plan, err := sess.QueryOpts(ctx, qo, "EXPLAIN ANALYZE "+q)
			if err != nil {
				t.Fatalf("%s q%02d: EXPLAIN ANALYZE: %v\nquery: %s", run, qi, err, q)
			}
			text := planText(t, plan)
			firstLine, _, _ := strings.Cut(text, "\n")
			if !strings.Contains(firstLine, fmt.Sprintf("rows=%d", ref.Len())) {
				t.Fatalf("%s q%02d: annotated root does not report the true cardinality %d:\n%s\nquery: %s",
					run, qi, ref.Len(), text, q)
			}
			if !strings.Contains(firstLine, "time=") {
				t.Fatalf("%s q%02d: no timing on the root line:\n%s", run, qi, text)
			}
		}
	}
}
