package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"graphsql"
	"graphsql/internal/core"
	"graphsql/internal/engine"
	"graphsql/internal/exec"
	"graphsql/internal/graph"
	"graphsql/internal/sql/fingerprint"
	"graphsql/internal/sql/lexer"
	"graphsql/internal/sql/parser"
	"graphsql/internal/types"
	"graphsql/internal/wire"
)

// replayItem is one operation of the traced phase that the layer
// replay re-issues call by call.
type replayItem struct {
	sql  string
	args []any
	// pairs are the ⟨source, destination⟩ pairs the statement solves;
	// nil for streams and relational reads.
	pairs    [][2]int64
	weighted bool
}

// frontEndLoops is how many times a front-end call (normalize,
// tokenize, parse) repeats inside one span: single calls take about a
// microsecond, below what one clock reading resolves reliably.
const frontEndLoops = 200

// layerReplay re-issues sampled operations through each layer's public
// functions, recording one span per call, and derives the per-layer
// metrics from those spans and the counts taken beside them.
type layerReplay struct {
	log *spanLog
	db  *graphsql.DB

	buildKB             []float64
	levelVertices       atomic.Int64
	bfsPairs            int64
	opRows, opBatches   atomic.Int64
	outRows, execs      int64
	parseAllocs, parses uint64
	wireBytes, encodes  int64
}

// replayLayers runs the replay over items: every item through the
// statement layers, and the first graphItems items that solve pairs
// through graph construction and the solver. budget caps the time
// spent once each kind of replay has run at least once.
func replayLayers(ctx context.Context, log *spanLog, db *graphsql.DB, items []replayItem, graphItems int, budget time.Duration) ([]metric, error) {
	r := &layerReplay{log: log, db: db}
	deadline := time.Now().Add(budget)
	op := int64(-1) // replay spans use negative operation ids
	graphsDone := 0
	for i, it := range items {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		if err := r.statement(ctx, op, it); err != nil {
			return nil, fmt.Errorf("replaying %q: %w", it.sql, err)
		}
		if it.pairs != nil && graphsDone < graphItems && (graphsDone == 0 || time.Now().Before(deadline)) {
			if err := r.graph(ctx, op, it); err != nil {
				return nil, fmt.Errorf("replaying graph build for %q: %w", it.sql, err)
			}
			graphsDone++
		}
		op--
	}
	return r.metrics(), nil
}

// sample returns up to n items spread evenly over items.
func sample(items []replayItem, n int) []replayItem {
	if len(items) <= n {
		return items
	}
	out := make([]replayItem, n)
	for i := range out {
		out[i] = items[i*len(items)/n]
	}
	return out
}

// statement replays one SELECT through the front end (fingerprint,
// lexer, parser), the engine sequence DB.QueryRows performs (Prepare →
// ExecPreparedCursor → drain) with the executor's batch observer on,
// and the wire encoding of its result.
func (r *layerReplay) statement(ctx context.Context, op int64, it replayItem) error {
	root := r.log.begin(op, 0, "replay.statement")
	defer r.log.end(root, 1)

	sp := r.log.begin(op, root, "fingerprint.normalize")
	for range frontEndLoops {
		fingerprint.Normalize(it.sql)
	}
	r.log.end(sp, frontEndLoops)

	sp = r.log.begin(op, root, "lexer.tokenize")
	for range frontEndLoops {
		if _, err := lexer.Tokenize(it.sql); err != nil {
			return err
		}
	}
	r.log.end(sp, frontEndLoops)

	objs := allocObjects()
	sp = r.log.begin(op, root, "parser.parse")
	for range frontEndLoops {
		if _, err := parser.Parse(it.sql); err != nil {
			return err
		}
	}
	r.log.end(sp, frontEndLoops)
	r.parseAllocs += allocObjects() - objs
	r.parses += frontEndLoops

	if err := r.execute(ctx, op, root, it); err != nil {
		return err
	}

	rows, err := r.db.QueryRows(ctx, graphsql.QueryOptions{}, it.sql, it.args...)
	if err != nil {
		return err
	}
	res, err := rows.Result()
	if err != nil {
		return err
	}
	sp = r.log.begin(op, root, "wire.encode")
	data, err := wire.FromResult(res).Encode()
	r.log.end(sp, 1)
	r.wireBytes += int64(len(data))
	r.encodes++
	return err
}

// execute runs the statement the way DB.QueryRows does, minus the
// facade lock (nothing else runs during a replay), counting the
// batches and rows every operator emits.
func (r *layerReplay) execute(ctx context.Context, op int64, parent int, it replayItem) error {
	params := make([]types.Value, len(it.args))
	for i, a := range it.args {
		params[i] = types.NewInt(a.(int64))
	}
	eng := r.db.Engine()
	sp := r.log.begin(op, parent, "engine.prepare")
	prep, err := eng.Prepare(it.sql, params...)
	r.log.end(sp, 1)
	if err != nil {
		return err
	}
	prev := exec.SetBatchObserver(func(_ string, rows int) {
		r.opRows.Add(int64(rows))
		r.opBatches.Add(1)
	})
	defer exec.SetBatchObserver(prev)
	sp = r.log.begin(op, parent, "engine.execute")
	defer r.log.end(sp, 1)
	cur, err := eng.ExecPreparedCursor(ctx, prep, &engine.ExecOptions{Parallelism: -1}, params...)
	if err != nil {
		return err
	}
	defer cur.Close()
	for {
		win, err := cur.Next(0)
		if err != nil {
			return err
		}
		if win == nil {
			break
		}
		r.outRows += int64(win.NumRows())
	}
	r.execs++
	return nil
}

// graph replays graph construction on the current edge snapshot — the
// whole build through core.BuildGraphCtx, then its two phases through
// Dict.EncodeColumnsIntCtx and BuildCSRParallelCtx — and solves the
// item's pairs with Solver.Solve on the result.
func (r *layerReplay) graph(ctx context.Context, op int64, it replayItem) error {
	t, ok := r.db.Engine().Catalog().Table("friends")
	if !ok {
		return fmt.Errorf("no friends table")
	}
	edges := t.Chunk()
	root := r.log.begin(op, 0, "replay.graph")
	defer r.log.end(root, 1)

	before := allocBytes()
	sp := r.log.begin(op, root, "core.build_graph")
	_, err := core.BuildGraphCtx(ctx, edges, 0, 1, 0)
	r.log.end(sp, 1)
	if err != nil {
		return err
	}
	r.buildKB = append(r.buildKB, float64(allocBytes()-before)/1024)

	build := r.log.begin(op, root, "graph.build")
	m := edges.NumRows()
	dict := graph.NewIntDict(m)
	ids := [][]graph.VertexID{make([]graph.VertexID, m), make([]graph.VertexID, m)}
	sp = r.log.begin(op, build, "graph.encode")
	err = dict.EncodeColumnsIntCtx(ctx, [][]int64{edges.Cols[0].Ints, edges.Cols[1].Ints}, ids, 0)
	r.log.end(sp, 1)
	if err != nil {
		r.log.end(build, 1)
		return err
	}
	sp = r.log.begin(op, build, "graph.csr")
	csr, err := graph.BuildCSRParallelCtx(ctx, dict.Len(), ids[0], ids[1], 0)
	r.log.end(sp, 1)
	r.log.end(build, 1)
	if err != nil {
		return err
	}

	srcs := make([]graph.VertexID, len(it.pairs))
	dsts := make([]graph.VertexID, len(it.pairs))
	for i, p := range it.pairs {
		srcs[i], dsts[i] = dict.LookupInt(p[0]), dict.LookupInt(p[1])
	}
	unit := graph.Spec{Unit: true, UnitI: 1, NeedPath: true}
	spec := unit
	if it.weighted {
		spec = graph.Spec{WeightsI: edges.Cols[4].Ints, NeedPath: true}
	}
	solver := graph.NewSolver(csr)
	solver.Ctx = ctx
	sp = r.log.begin(op, root, "graph.solve")
	_, err = solver.Solve(srcs, dsts, []graph.Spec{spec})
	r.log.end(sp, 1)
	if err != nil {
		return err
	}
	// Only BFS reports frontier levels, so the vertex count always comes
	// from an untimed unit-weight solve of the same pairs.
	solver.OnLevel = func(_ int64, size int) { r.levelVertices.Add(int64(size)) }
	if _, err := solver.Solve(srcs, dsts, []graph.Spec{unit}); err != nil {
		return err
	}
	r.bfsPairs += int64(len(it.pairs))
	return nil
}

func (r *layerReplay) metrics() []metric {
	med := func(name string) (float64, int) {
		xs := r.log.perCall(name)
		return median(xs), len(xs)
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	var out []metric
	for _, l := range []string{"core.build_graph", "graph.encode", "graph.csr", "graph.solve", "engine.prepare", "engine.execute"} {
		v, n := med(l)
		out = append(out, metric{l + "_us", v, "us", n})
		if l == "core.build_graph" {
			out = append(out, metric{"core.build_graph_kb", median(r.buildKB), "KB", len(r.buildKB)})
		}
		if l == "graph.solve" {
			out = append(out, metric{"graph.vertices_reached_per_pair", ratio(r.levelVertices.Load(), r.bfsPairs), "count", int(r.bfsPairs)})
		}
	}
	out = append(out,
		metric{"exec.rows_in_per_row_out", ratio(r.opRows.Load(), r.outRows), "ratio", int(r.execs)},
		metric{"exec.batches_per_op", ratio(r.opBatches.Load(), r.execs), "count", int(r.execs)},
	)
	for _, l := range []string{"fingerprint.normalize", "lexer.tokenize", "parser.parse"} {
		v, n := med(l)
		out = append(out, metric{l + "_us", v, "us", n * frontEndLoops})
	}
	out = append(out, metric{"parser.allocs_per_stmt", ratio(int64(r.parseAllocs), int64(r.parses)), "count", int(r.parses)})
	v, n := med("wire.encode")
	out = append(out,
		metric{"wire.encode_us", v, "us", n},
		metric{"wire.bytes_per_response", ratio(r.wireBytes, r.encodes), "bytes", int(r.encodes)},
	)
	return out
}
