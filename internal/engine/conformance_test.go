package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"graphsql/internal/exec"
	"graphsql/internal/trace"
	"graphsql/internal/types"
)

func TestDateFunctions(t *testing.T) {
	e := New()
	res := run(t, e, `SELECT YEAR(CAST('2011-03-24' AS DATE)),
		MONTH(CAST('2011-03-24' AS DATE)),
		DAY(CAST('2011-03-24' AS DATE)),
		DATE_ADD(CAST('2011-03-24' AS DATE), 8)`)
	checkCells(t, res, [][]string{{"2011", "3", "24", "2011-04-01"}})
	res = run(t, e, `SELECT YEAR(NULL)`)
	checkCells(t, res, [][]string{{"NULL"}})
}

func TestDateLiteralSyntaxAndComparisons(t *testing.T) {
	e := New()
	res := run(t, e, `SELECT DATE '2020-02-29' < DATE '2020-03-01',
		DATE '2020-02-29' = CAST('2020-02-29' AS DATE)`)
	checkCells(t, res, [][]string{{"true", "true"}})
}

func TestNestedCTEsAndShadowing(t *testing.T) {
	e := New()
	if _, err := e.ExecScriptCtx(context.Background(), `CREATE TABLE base (x BIGINT); INSERT INTO base VALUES (1), (2), (3);`); err != nil {
		t.Fatal(err)
	}
	// A CTE chain where each references the previous.
	res := run(t, e, `
		WITH a AS (SELECT x FROM base WHERE x > 1),
		     b AS (SELECT x + 10 AS y FROM a),
		     c AS (SELECT SUM(y) AS total FROM b)
		SELECT total FROM c`)
	checkCells(t, res, [][]string{{"25"}})
	// An inner WITH shadows an outer one.
	res = run(t, e, `
		WITH v AS (SELECT 1 AS n)
		SELECT * FROM (WITH v AS (SELECT 2 AS n) SELECT n FROM v) t`)
	checkCells(t, res, [][]string{{"2"}})
}

func TestDeepDerivedTables(t *testing.T) {
	e := New()
	res := run(t, e, `
		SELECT z FROM (
			SELECT y + 1 AS z FROM (
				SELECT x * 2 AS y FROM (
					SELECT 5 AS x
				) a
			) b
		) c`)
	checkCells(t, res, [][]string{{"11"}})
}

func TestGraphJoinWithVertexProperties(t *testing.T) {
	// The full VP1 × VP2 graph join of §2 with properties and grouping.
	e := New()
	if _, err := e.ExecScriptCtx(context.Background(), `
		CREATE TABLE persons (id BIGINT, city VARCHAR);
		CREATE TABLE knows (a BIGINT, b BIGINT);
		INSERT INTO persons VALUES (1,'ams'), (2,'ams'), (3,'nyc'), (4,'nyc');
		INSERT INTO knows VALUES (1,2), (2,3), (3,4);
	`); err != nil {
		t.Fatal(err)
	}
	// Count reachable ordered pairs per source city.
	res := run(t, e, `
		SELECT p1.city, COUNT(*) AS pairs
		FROM persons p1, persons p2
		WHERE p1.id REACHES p2.id OVER knows EDGE (a, b)
		  AND p1.id <> p2.id
		GROUP BY p1.city
		ORDER BY p1.city`)
	// From ams: 1->{2,3,4}, 2->{3,4} = 5 pairs; from nyc: 3->4 = 1.
	checkCells(t, res, [][]string{{"ams", "5"}, {"nyc", "1"}})
}

func TestTwoCheapestSumsOnOnePredicate(t *testing.T) {
	e := New()
	if _, err := e.ExecScriptCtx(context.Background(), `
		CREATE TABLE g (s BIGINT, d BIGINT, w BIGINT);
		INSERT INTO g VALUES (1,2,5), (2,3,5), (1,3,100);
	`); err != nil {
		t.Fatal(err)
	}
	// Hops and weighted cost from the same predicate: two specs, one
	// graph build, one result row.
	res := run(t, e, `
		SELECT CHEAPEST SUM(f: 1) AS hops, CHEAPEST SUM(f: w) AS dist
		WHERE 1 REACHES 3 OVER g f EDGE (s, d)`)
	checkCells(t, res, [][]string{{"1", "10"}})
}

func TestCheapestSumInArithmeticAndOrderBy(t *testing.T) {
	e := New()
	if _, err := e.ExecScriptCtx(context.Background(), `
		CREATE TABLE g (s BIGINT, d BIGINT);
		CREATE TABLE vp (id BIGINT);
		INSERT INTO g VALUES (1,2), (2,3), (3,4);
		INSERT INTO vp VALUES (2), (3), (4);
	`); err != nil {
		t.Fatal(err)
	}
	res := run(t, e, `
		SELECT id, CHEAPEST SUM(1) * 100 AS scaled
		FROM vp
		WHERE 1 REACHES id OVER g EDGE (s, d)
		ORDER BY scaled DESC`)
	checkCells(t, res, [][]string{{"4", "300"}, {"3", "200"}, {"2", "100"}})
}

func TestReachesOverDerivedEdgeTable(t *testing.T) {
	e := New()
	if _, err := e.ExecScriptCtx(context.Background(), `
		CREATE TABLE g (s BIGINT, d BIGINT, kind VARCHAR);
		INSERT INTO g VALUES (1,2,'road'), (2,3,'rail'), (1,3,'road');
	`); err != nil {
		t.Fatal(err)
	}
	// Inline subquery as the edge table (parenthesized OVER form).
	res := run(t, e, `
		SELECT CHEAPEST SUM(1)
		WHERE 1 REACHES 3 OVER (SELECT * FROM g WHERE kind = 'road') f EDGE (s, d)`)
	checkCells(t, res, [][]string{{"1"}})
	res = run(t, e, `
		SELECT 1 WHERE 1 REACHES 3 OVER (SELECT * FROM g WHERE kind = 'rail') f EDGE (s, d)`)
	if res.NumRows() != 0 {
		t.Fatal("rail-only subgraph must not connect 1 to 3")
	}
}

func TestUnnestComposesWithJoinsAndAggregates(t *testing.T) {
	e := New()
	if _, err := e.ExecScriptCtx(context.Background(), `
		CREATE TABLE g (s BIGINT, d BIGINT, len BIGINT);
		INSERT INTO g VALUES (1,2,4), (2,3,6), (1,3,100);
	`); err != nil {
		t.Fatal(err)
	}
	// Average leg length along the cheapest 1->3 path.
	res := run(t, e, `
		SELECT AVG(r.len) AS avg_leg, COUNT(*) AS legs
		FROM (
			SELECT CHEAPEST SUM(f: len) AS (c, p)
			WHERE 1 REACHES 3 OVER g f EDGE (s, d)
		) t, UNNEST(t.p) AS r`)
	checkCells(t, res, [][]string{{"5", "2"}})
}

func TestPathLengthFunction(t *testing.T) {
	e := New()
	if _, err := e.ExecScriptCtx(context.Background(), `
		CREATE TABLE g (s BIGINT, d BIGINT);
		INSERT INTO g VALUES (1,2), (2,3);
	`); err != nil {
		t.Fatal(err)
	}
	res := run(t, e, `
		SELECT PATH_LENGTH(t.p)
		FROM (
			SELECT CHEAPEST SUM(f: 1) AS (c, p)
			WHERE 1 REACHES 3 OVER g f EDGE (s, d)
		) t`)
	checkCells(t, res, [][]string{{"2"}})
}

func TestStringEdgeKeysWithConcat(t *testing.T) {
	e := New()
	if _, err := e.ExecScriptCtx(context.Background(), `
		CREATE TABLE flights (o VARCHAR, dd VARCHAR);
		INSERT INTO flights VALUES ('AMS','LHR'), ('LHR','JFK');
	`); err != nil {
		t.Fatal(err)
	}
	// Computed string keys on the probe side.
	res := run(t, e, `SELECT CHEAPEST SUM(1)
		WHERE 'AM' || 'S' REACHES 'JFK' OVER flights EDGE (o, dd)`)
	checkCells(t, res, [][]string{{"2"}})
}

func TestLongChainGraph(t *testing.T) {
	// A 1000-node path graph: exercises deep BFS and path rebuild.
	e := New()
	run(t, e, `CREATE TABLE chain (s BIGINT, d BIGINT)`)
	tbl, _ := e.Catalog().Table("chain")
	for i := 0; i < 1000; i++ {
		tbl.Cols[0].AppendInt(int64(i))
		tbl.Cols[1].AppendInt(int64(i + 1))
	}
	res := run(t, e, `SELECT CHEAPEST SUM(1) WHERE 0 REACHES 1000 OVER chain EDGE (s, d)`)
	checkCells(t, res, [][]string{{"1000"}})
	// And the path has exactly 1000 hops.
	res = run(t, e, `
		SELECT COUNT(*) FROM (
			SELECT CHEAPEST SUM(f: 1) AS (c, p)
			WHERE 0 REACHES 1000 OVER chain f EDGE (s, d)
		) t, UNNEST(t.p) AS r`)
	checkCells(t, res, [][]string{{"1000"}})
}

func TestDuplicateEdgesAreHarmless(t *testing.T) {
	e := New()
	if _, err := e.ExecScriptCtx(context.Background(), `
		CREATE TABLE g (s BIGINT, d BIGINT, w BIGINT);
		INSERT INTO g VALUES (1,2,9), (1,2,3), (2,3,1), (1,2,3);
	`); err != nil {
		t.Fatal(err)
	}
	// Multigraph: the cheapest parallel edge wins.
	res := run(t, e, `SELECT CHEAPEST SUM(f: w) WHERE 1 REACHES 3 OVER g f EDGE (s, d)`)
	checkCells(t, res, [][]string{{"4"}})
}

func TestSelfLoopsDoNotBreakShortestPaths(t *testing.T) {
	e := New()
	if _, err := e.ExecScriptCtx(context.Background(), `
		CREATE TABLE g (s BIGINT, d BIGINT);
		INSERT INTO g VALUES (1,1), (1,2), (2,2), (2,3);
	`); err != nil {
		t.Fatal(err)
	}
	res := run(t, e, `SELECT CHEAPEST SUM(1) WHERE 1 REACHES 3 OVER g EDGE (s, d)`)
	checkCells(t, res, [][]string{{"2"}})
}

func TestBigBatchReachabilityJoin(t *testing.T) {
	// Join semantics over a larger synthetic graph: every pair in a
	// two-component graph; counts must respect the component split.
	e := New()
	run(t, e, `CREATE TABLE g (s BIGINT, d BIGINT)`)
	tbl, _ := e.Catalog().Table("g")
	// Component A: 0..49 cycle; component B: 100..149 cycle.
	for i := 0; i < 50; i++ {
		tbl.Cols[0].AppendInt(int64(i))
		tbl.Cols[1].AppendInt(int64((i + 1) % 50))
		tbl.Cols[0].AppendInt(int64(100 + i))
		tbl.Cols[1].AppendInt(int64(100 + (i+1)%50))
	}
	run(t, e, `CREATE TABLE v (id BIGINT)`)
	vt, _ := e.Catalog().Table("v")
	for i := 0; i < 50; i++ {
		vt.Cols[0].AppendInt(int64(i))
		vt.Cols[0].AppendInt(int64(100 + i))
	}
	res := run(t, e, `
		SELECT COUNT(*)
		FROM v a, v b
		WHERE a.id REACHES b.id OVER g EDGE (s, d)`)
	// Each cycle is strongly connected: 50*50 ordered pairs per
	// component, no cross-component pairs.
	checkCells(t, res, [][]string{{"5000"}})
}

func TestGroupByCheapestSum(t *testing.T) {
	e := New()
	if _, err := e.ExecScriptCtx(context.Background(), `
		CREATE TABLE g (s BIGINT, d BIGINT);
		CREATE TABLE v (id BIGINT);
		INSERT INTO g VALUES (1,2),(2,3),(3,4),(1,5),(5,4);
		INSERT INTO v VALUES (2),(3),(4),(5);
	`); err != nil {
		t.Fatal(err)
	}
	// Group destinations by their hop distance from vertex 1.
	res := run(t, e, `
		SELECT CHEAPEST SUM(1) AS hops, COUNT(*) AS n
		FROM v
		WHERE 1 REACHES id OVER g EDGE (s, d)
		GROUP BY CHEAPEST SUM(1)
		ORDER BY hops`)
	checkCells(t, res, [][]string{{"1", "2"}, {"2", "2"}})
}

func TestInsertSelectWithGraphQuery(t *testing.T) {
	e := New()
	if _, err := e.ExecScriptCtx(context.Background(), `
		CREATE TABLE g (s BIGINT, d BIGINT);
		CREATE TABLE v (id BIGINT);
		CREATE TABLE dists (id BIGINT, hops BIGINT);
		INSERT INTO g VALUES (1,2),(2,3);
		INSERT INTO v VALUES (2),(3);
	`); err != nil {
		t.Fatal(err)
	}
	run(t, e, `INSERT INTO dists SELECT id, CHEAPEST SUM(1)
		FROM v WHERE 1 REACHES id OVER g EDGE (s, d)`)
	res := run(t, e, `SELECT id, hops FROM dists ORDER BY id`)
	checkCells(t, res, [][]string{{"2", "1"}, {"3", "2"}})
}

// TestInsertSelectHonorsExecOptions: the SELECT inside INSERT … SELECT
// runs under the statement's options like any other query — the
// per-statement worker budget bounds its REACHES solve, its operators
// record spans under the statement's trace, and Engine.Stats counts its
// graph build.
func TestInsertSelectHonorsExecOptions(t *testing.T) {
	e := New()
	e.SetParallelism(4)
	if _, err := e.ExecScriptCtx(context.Background(), `
		CREATE TABLE g (s BIGINT, d BIGINT);
		CREATE TABLE v (id BIGINT);
		CREATE TABLE dists (id BIGINT, hops BIGINT);
		INSERT INTO g VALUES (1,2),(2,3);
		INSERT INTO v VALUES (2),(3);
	`); err != nil {
		t.Fatal(err)
	}
	e.Stats = &exec.Stats{}
	tr := trace.New()
	opts := &ExecOptions{Parallelism: 1, Trace: tr}
	p, err := e.Prepare(`INSERT INTO dists SELECT id, CHEAPEST SUM(1)
		FROM v WHERE 1 REACHES id OVER g EDGE (s, d)`)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := e.ExecPreparedCursor(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if e.Stats.GraphBuilds != 1 {
		t.Fatalf("Stats.GraphBuilds = %d, want 1", e.Stats.GraphBuilds)
	}
	var gm *trace.Node
	var walk func(n *trace.Node)
	walk = func(n *trace.Node) {
		if strings.HasPrefix(n.Name, "GraphMatch") {
			gm = n
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tr.Tree())
	if gm == nil {
		t.Fatalf("no GraphMatch span in the statement's trace:\n%s", trace.Render(tr.Tree()))
	}
	if gm.Workers != 1 {
		t.Fatalf("GraphMatch span reports workers=%d, want 1 (the statement's Parallelism)", gm.Workers)
	}
	res := run(t, e, `SELECT id, hops FROM dists ORDER BY id`)
	checkCells(t, res, [][]string{{"2", "1"}, {"3", "2"}})
}

func TestManyParamsAndRepeatedExecution(t *testing.T) {
	e := New()
	if _, err := e.ExecScriptCtx(context.Background(), `
		CREATE TABLE g (s BIGINT, d BIGINT);
		INSERT INTO g VALUES (1,2),(2,3),(3,4),(4,5);
	`); err != nil {
		t.Fatal(err)
	}
	// Re-binding the same statement text with different parameters
	// (the §4 protocol: same query, varying parameters).
	for i := int64(2); i <= 5; i++ {
		res := run(t, e, `SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER g EDGE (s, d)`,
			types.NewInt(1), types.NewInt(i))
		checkCells(t, res, [][]string{{fmt.Sprint(i - 1)}})
	}
}

func TestErrorMessagesCarryPositions(t *testing.T) {
	e := New()
	_, err := e.QueryCtx(context.Background(), "SELECT\n  nope")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("expected a line-2 position, got %v", err)
	}
}
