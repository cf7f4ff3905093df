package exec

import (
	"context"
	"testing"

	"graphsql/internal/analyze"
	"graphsql/internal/core"
	"graphsql/internal/expr"
	"graphsql/internal/plan"
	"graphsql/internal/sql/ast"
	"graphsql/internal/sql/parser"
	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// Per-operator differential against the test-only reference
// interpreter (reference_test.go): each operator, driven at several
// batch sizes (including batch=1, where every batch boundary is a
// window boundary), must materialize to exactly what the recursive
// interpreter produces. Breakers share the materializing cores, so the
// point of this test is the pipeline operators' re-batching logic and
// GraphMatch's graph acquisition.

// diffBatchSizes are the batch bounds under differential test:
// degenerate, smaller than / coprime to the inputs, and the default.
var diffBatchSizes = []int{1, 2, 3, DefaultBatchRows}

// diffExec runs n under the reference interpreter and under the pull
// executor at every diffBatchSizes entry, requiring render-identical
// results. indexes, when non-nil, gives every run its own fresh set of
// cached graph indexes to serve GraphMatch through.
func diffExec(t *testing.T, name string, n plan.Node, indexes func() map[IndexKey]*core.Graph) {
	t.Helper()
	if indexes == nil {
		indexes = func() map[IndexKey]*core.Graph { return nil }
	}
	ref, err := referenceExecute(n, &Context{GraphIndexes: indexes()})
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if err := ref.Validate(); err != nil {
		t.Fatalf("%s: reference output invalid: %v", name, err)
	}
	want := ref.String()
	for _, br := range diffBatchSizes {
		got, err := Execute(n, &Context{GraphIndexes: indexes(), BatchRows: br})
		if err != nil {
			t.Fatalf("%s: pull batch=%d: %v", name, br, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: pull batch=%d output invalid: %v", name, br, err)
		}
		if got.String() != want {
			t.Errorf("%s: pull batch=%d differs from the reference\n--- reference (%d rows)\n%s\n--- pull (%d rows)\n%s",
				name, br, ref.NumRows(), want, got.NumRows(), got.String())
		}
	}
}

// graphCatalog holds a weighted edge table e — a 1→…→8 chain, whose
// 1-to-8 path is longer than every small batch bound, plus shortcuts
// and a 9↔10 island — and a pair table q with reachable, unreachable
// and self pairs (the last two yield NULL and empty paths).
func graphCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	ints := func(name string, cols ...string) *storage.Table {
		sch := make(storage.Schema, len(cols))
		for i, c := range cols {
			sch[i] = storage.ColMeta{Name: c, Kind: types.KindInt}
		}
		tbl, err := cat.CreateTable(name, sch)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	appendRows := func(tbl *storage.Table, rows ...[]int64) {
		for _, r := range rows {
			vals := make([]types.Value, len(r))
			for i, v := range r {
				vals[i] = types.NewInt(v)
			}
			if err := tbl.AppendRow(vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	e := ints("e", "s", "d", "w")
	for v := int64(1); v < 8; v++ {
		appendRows(e, []int64{v, v + 1, 1})
	}
	appendRows(e, []int64{1, 5, 9}, []int64{3, 7, 5}, []int64{9, 10, 1}, []int64{10, 9, 1})
	q := ints("q", "a", "b")
	appendRows(q, []int64{1, 8}, []int64{2, 6}, []int64{8, 1}, []int64{4, 4}, []int64{9, 10}, []int64{1, 3})
	return cat
}

// bindSQL binds and rewrites one SELECT against cat, as the engine
// does before execution.
func bindSQL(t *testing.T, cat *storage.Catalog, sql string) plan.Node {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	sel, ok := stmt.(*ast.SelectStmt)
	if !ok {
		t.Fatalf("%s: not a SELECT", sql)
	}
	n, err := analyze.BindSelect(cat, sel, nil)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return plan.Rewrite(n)
}

func TestPullOperatorDifferential(t *testing.T) {
	base := mkChunk("t", 7, 1, 5, 3, 9, 2, 8, 4, 6, 0, 5, 3)
	left := twoCol("l", [][2]int64{{1, 10}, {2, 20}, {3, 30}, {2, 25}, {4, 40}}, 3)
	right := twoCol("r", [][2]int64{{2, 200}, {3, 300}, {2, 250}, {9, 900}}, 3)
	gt := func(idx int, v int64) expr.Expr {
		return &expr.Cmp{Op: expr.CmpGt,
			L: &expr.ColRef{Idx: idx, K: types.KindInt},
			R: &expr.Const{Val: types.NewInt(v)}}
	}
	type diffCase struct {
		name string
		n    plan.Node
	}
	cases := []diffCase{
		{"scan", scan(base)},
		{"filter", &plan.Filter{Input: scan(base), Pred: gt(0, 4)}},
		{"filter-none", &plan.Filter{Input: scan(base), Pred: gt(0, 99)}},
		{"project", &plan.Project{Input: scan(base),
			Exprs: []expr.Expr{&expr.Arith{Op: expr.OpAdd, K: types.KindInt,
				L: &expr.ColRef{Idx: 0, K: types.KindInt},
				R: &expr.Const{Val: types.NewInt(100)}}},
			Sch: storage.Schema{{Name: "v100", Kind: types.KindInt}}}},
		{"limit", &plan.Limit{Input: scan(base), Count: &expr.Const{Val: types.NewInt(5)}}},
		{"limit-offset", &plan.Limit{Input: scan(base),
			Count: &expr.Const{Val: types.NewInt(4)},
			Skip:  &expr.Const{Val: types.NewInt(3)}}},
		{"limit-past-end", &plan.Limit{Input: scan(base), Skip: &expr.Const{Val: types.NewInt(99)}}},
		{"union-all", &plan.SetOp{Op: "UNION", All: true, Left: scan(base), Right: scan(mkChunk("t", 40, 41))}},
		{"union", &plan.SetOp{Op: "UNION", Left: scan(base), Right: scan(mkChunk("t", 5, 40, 3))}},
		{"except", &plan.SetOp{Op: "EXCEPT", Left: scan(base), Right: scan(mkChunk("t", 5, 3))}},
		{"intersect", &plan.SetOp{Op: "INTERSECT", Left: scan(base), Right: scan(mkChunk("t", 5, 3, 99))}},
		{"join-inner", &plan.Join{Type: plan.JoinInner, Left: scan(left), Right: scan(right), On: eqCond(0, 2)}},
		{"join-left", &plan.Join{Type: plan.JoinLeft, Left: scan(left), Right: scan(right), On: eqCond(0, 2)}},
		{"join-cross", &plan.Join{Type: plan.JoinCross, Left: scan(left), Right: scan(right)}},
		{"join-semi", &plan.Join{Type: plan.JoinSemi, Left: scan(left), Right: scan(right), On: eqCond(0, 2)}},
		{"join-anti", &plan.Join{Type: plan.JoinAnti, Left: scan(left), Right: scan(right), On: eqCond(0, 2)}},
		{"aggregate", &plan.Aggregate{Input: scan(left),
			GroupBy: []expr.Expr{&expr.ColRef{Idx: 0, K: types.KindInt}},
			Aggs: []plan.AggSpec{{Op: plan.AggSum, Arg: &expr.ColRef{Idx: 1, K: types.KindInt},
				Kind: types.KindInt, Name: "s"}},
			Sch: storage.Schema{{Name: "k", Kind: types.KindInt}, {Name: "s", Kind: types.KindInt}}}},
		{"sort", &plan.Sort{Input: scan(base),
			Keys: []plan.SortKey{{Expr: &expr.ColRef{Idx: 0, K: types.KindInt}}}}},
		{"distinct", &plan.Distinct{Input: scan(base)}},
	}
	sh := &plan.Shared{Input: scan(base), Name: "cte"}
	cases = append(cases, diffCase{"shared", &plan.Join{Type: plan.JoinCross, Left: sh, Right: sh}})
	for _, tc := range cases {
		diffExec(t, tc.name, tc.n, nil)
	}

	// Graph shapes, bound from SQL so the plans carry real GraphMatch,
	// Unnest and Rename nodes.
	cat := graphCatalog(t)
	const paths = `(SELECT q.a, q.b, CHEAPEST SUM(x: w) AS (c, p) FROM q
		WHERE q.a REACHES q.b OVER e x EDGE (s, d)) t`
	graphCases := []struct{ name, sql string }{
		{"rename", `SELECT t.a + t.b FROM (SELECT a, b FROM q) t`},
		{"graphmatch", `SELECT q.a, q.b, CHEAPEST SUM(x: w) AS (c, p) FROM q
			WHERE q.a REACHES q.b OVER e x EDGE (s, d)`},
		{"unnest", `SELECT t.a, t.b, r.s, r.d, r.w FROM ` + paths + `, UNNEST(t.p) AS r`},
		{"unnest-outer", `SELECT t.a, t.b, r.s, r.d FROM ` + paths + ` LEFT JOIN UNNEST(t.p) AS r ON TRUE`},
		{"unnest-ordinality", `SELECT t.a, r.ordinality, r.s FROM ` + paths + `, UNNEST(t.p) WITH ORDINALITY AS r`},
		// The 1→8 path has 7 edges, more than batch bounds 1, 2 and 3,
		// so unnestOp must resume inside one input row's path.
		{"unnest-long-path", `SELECT r.ordinality, r.s, r.d FROM (
			SELECT CHEAPEST SUM(x: w) AS (c, p) WHERE 1 REACHES 8 OVER e x EDGE (s, d)) t,
			UNNEST(t.p) WITH ORDINALITY AS r`},
	}
	for _, gc := range graphCases {
		diffExec(t, gc.name, bindSQL(t, cat, gc.sql), nil)
	}
	// Through a cached graph index whose snapshot predates the last
	// edge, so every run must absorb it into the delta; the 4→8
	// shortcut changes the 1→8 answer, so a stale index would show.
	etbl, _ := cat.Table("e")
	if err := etbl.AppendRow([]types.Value{types.NewInt(4), types.NewInt(8), types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	indexed := func() map[IndexKey]*core.Graph {
		snapshot := etbl.Chunk().Slice(0, etbl.NumRows()-1)
		dg, err := core.BuildGraphCtx(context.Background(), snapshot, 0, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		return map[IndexKey]*core.Graph{GraphIndexKey("e", 0, 1): dg}
	}
	diffExec(t, "graphmatch-indexed", bindSQL(t, cat, graphCases[1].sql), indexed)
	// A deep pipeline: filter → project → limit over a sorted CTE,
	// exercising re-batching across several pipeline stages at once.
	deep := &plan.Limit{
		Count: &expr.Const{Val: types.NewInt(4)},
		Input: &plan.Project{
			Exprs: []expr.Expr{&expr.ColRef{Idx: 0, K: types.KindInt}},
			Sch:   storage.Schema{{Name: "v", Kind: types.KindInt}},
			Input: &plan.Filter{
				Pred:  gt(0, 2),
				Input: &plan.Sort{Input: scan(base), Keys: []plan.SortKey{{Expr: &expr.ColRef{Idx: 0, K: types.KindInt}}}},
			},
		},
	}
	diffExec(t, "deep-pipeline", deep, nil)
}

// TestPullBoundedIntermediates proves the memory claim of the pull
// executor: with a batch bound in force, no pipeline operator ever
// emits a batch above the bound — intermediate state stays O(BatchRows
// × pipeline depth), independent of input size — where the reference
// interpreter flows the full input through every operator.
func TestPullBoundedIntermediates(t *testing.T) {
	const total, bound = 4096, 32
	vals := make([]int64, total)
	for i := range vals {
		vals[i] = int64(i % 97)
	}
	pipeline := &plan.Filter{
		Pred: &expr.Cmp{Op: expr.CmpGt,
			L: &expr.ColRef{Idx: 0, K: types.KindInt},
			R: &expr.Const{Val: types.NewInt(-1)}}, // pass-through: max pressure
		Input: &plan.Project{
			Exprs: []expr.Expr{&expr.ColRef{Idx: 0, K: types.KindInt}},
			Sch:   storage.Schema{{Name: "v", Kind: types.KindInt}},
			Input: scan(mkChunk("t", vals...)),
		},
	}
	maxBatch := 0
	prev := SetBatchObserver(func(op string, rows int) {
		if rows > maxBatch {
			maxBatch = rows
		}
	})
	defer SetBatchObserver(prev)
	out, err := Execute(pipeline, &Context{BatchRows: bound})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != total {
		t.Fatalf("lost rows: %d of %d", out.NumRows(), total)
	}
	if maxBatch == 0 {
		t.Fatal("batch observer saw nothing; pull operators did not run")
	}
	if maxBatch > bound {
		t.Fatalf("pull operator emitted a %d-row batch, above the %d bound", maxBatch, bound)
	}
}

// TestPullLimitStopsPulling proves early termination: once a Limit's
// quota fills, it stops pulling its child, so the operators upstream
// only ever produce the prefix the query needs. The reference
// interpreter runs the same plan's child to completion.
func TestPullLimitStopsPulling(t *testing.T) {
	const total, bound, want = 1000, 10, 25
	vals := make([]int64, total)
	for i := range vals {
		vals[i] = int64(i)
	}
	n := &plan.Limit{
		Input: scan(mkChunk("t", vals...)),
		Count: &expr.Const{Val: types.NewInt(want)},
	}
	seen := 0
	prev := SetBatchObserver(func(op string, rows int) { seen += rows })
	defer SetBatchObserver(prev)
	out, err := Execute(n, &Context{BatchRows: bound})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != want {
		t.Fatalf("limit returned %d rows, want %d", out.NumRows(), want)
	}
	// The observer sees scan batches plus limit batches. The scan must
	// have stopped near the quota (one bound of slack for the in-flight
	// batch), nowhere near the full input.
	if ceiling := 2 * (want + bound); seen > ceiling {
		t.Fatalf("operators emitted %d rows total for a LIMIT %d (ceiling %d): limit did not stop pulling", seen, want, ceiling)
	}
}
