package graphsql

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"graphsql/internal/fault"
)

// TestIndexedSolveUsesQueryBudget: a graph index carries no worker
// budget of its own, so a solve over it runs at the query's budget,
// not at the one the index was built with. The solver.level fault
// point fires only inside the frontier-parallel BFS, which a
// single-source query over this 80k-edge chain enters only with more
// than one worker. With the fault armed, the query must fail at the
// DB's 4-worker default and succeed when one query
// (QueryOptions.Workers) or one session (SET parallelism) asks for a
// single worker.
func TestIndexedSolveUsesQueryBudget(t *testing.T) {
	const n = 80000
	db := Open(WithParallelism(4))
	db.MustExec(`CREATE TABLE chain (s BIGINT, d BIGINT)`)
	var csv strings.Builder
	csv.WriteString("s,d\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&csv, "%d,%d\n", i, i+1)
	}
	if _, err := db.LoadCSV("chain", strings.NewReader(csv.String())); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildGraphIndex("chain", "s", "d"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)
	if err := fault.Set(fault.Rule{Point: fault.PointSolverLevel, Kind: fault.KindError}); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER chain EDGE (s, d)`
	ctx := context.Background()
	checkCost := func(how string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Errorf("%s: %v", how, err)
		} else if len(res.Rows) != 1 || res.Rows[0][0] != int64(n) {
			t.Errorf("%s: got %v, want one row with cost %d", how, res.Rows, n)
		}
	}

	// The control: at the default budget the frontier-parallel BFS runs
	// and trips the armed fault.
	var inj *fault.InjectedError
	if _, err := db.QueryCtx(ctx, q, 0, n); !errors.As(err, &inj) {
		t.Fatalf("default budget: error = %v, want the injected solver.level fault", err)
	}

	s := db.Session()
	res, err := s.QueryOpts(ctx, QueryOptions{Workers: 1}, q, 0, n)
	checkCost("QueryOptions{Workers: 1}", res, err)

	if _, err := s.Query(ctx, `SET parallelism = 1`); err != nil {
		t.Fatal(err)
	}
	res, err = s.Query(ctx, q, 0, n)
	checkCost("SET parallelism = 1", res, err)
}
