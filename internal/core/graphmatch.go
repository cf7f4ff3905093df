// Package core implements the paper's primary contribution at the
// physical level: the execution of the graph select / graph join
// operator (GraphMatch). Following §3.1-§3.3, it materializes the edge
// table, dictionary-encodes all vertex keys into the dense domain H,
// builds a CSR representation, invokes the shortest-path runtime for
// the batch of ⟨source, destination⟩ pairs, and materializes the
// result set back, appending CHEAPEST SUM cost and nested-table path
// columns.
package core

import (
	"context"
	"fmt"

	"graphsql/internal/expr"
	"graphsql/internal/graph"
	"graphsql/internal/par"
	"graphsql/internal/plan"
	"graphsql/internal/storage"
	"graphsql/internal/trace"
	"graphsql/internal/types"
)

// encodeColumn maps a column of vertex keys onto dense ids; values
// that are NULL or not vertices map to NoVertex (they fail the
// reachability predicate, §3.1's "initial filtering"). The caller
// holds the read lock.
func (g *Graph) encodeColumn(c *storage.Column) []graph.VertexID {
	n := c.Len()
	out := make([]graph.VertexID, n)
	if stringKeyed(g.keyKind) {
		for i := 0; i < n; i++ {
			if c.IsNull(i) {
				out[i] = graph.NoVertex
				continue
			}
			out[i] = g.dict.LookupString(c.Strs[i])
		}
		return out
	}
	for i := 0; i < n; i++ {
		if c.IsNull(i) {
			out[i] = graph.NoVertex
			continue
		}
		out[i] = g.dict.LookupInt(c.Ints[i])
	}
	return out
}

// solver returns a solver over the snapshot plus the delta at the
// caller's worker budget. ctx is checked at the solver's source-group
// boundaries and inside each traversal; a traced query carries its
// trace (and the GraphMatch span) in it, and each BFS level's frontier
// size is reported there. The caller holds the read lock.
func (g *Graph) solver(ctx context.Context, parallelism int) *graph.Solver {
	s := graph.NewSolverWithDelta(g.csr, g.delta)
	s.Parallelism = parallelism
	s.Ctx = ctx
	if ctx != nil {
		if tr, span, ok := trace.FromContext(ctx); ok {
			s.OnLevel = func(level int64, size int) {
				tr.AddLevel(span, level, size)
			}
		}
	}
	return s
}

// Match executes a GraphMatch over the graph: it filters the input
// rows by the reachability predicate and appends one cost (and
// optional path) column per CheapestSpec. X and Y are the evaluated
// key columns of the input chunk. The solve and the output phase run
// over the caller's worker budget, parallelism (<= 0 means one worker
// per CPU). The read lock is held throughout, so a concurrent Refresh
// waits for in-flight matches instead of mutating the graph under
// them.
func (g *Graph) Match(stdctx context.Context, gm *plan.GraphMatch, input *storage.Chunk, xCol, yCol *storage.Column, ctx *expr.Context, parallelism int) (*storage.Chunk, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	srcs := g.encodeColumn(xCol)
	dsts := g.encodeColumn(yCol)

	// Materialize the weights of each CHEAPEST SUM over the edge chunk
	// (§2: "its result is computed before executing CHEAPEST SUM").
	specs := make([]graph.Spec, len(gm.Specs))
	for k := range gm.Specs {
		sp := &gm.Specs[k]
		gs := graph.Spec{
			NeedPath: sp.WantPath,
			Float:    sp.CostKind == types.KindFloat,
		}
		if cv, ok := expr.IsConst(sp.Weight, ctx); ok && !cv.Null {
			gs.Unit = true
			if gs.Float {
				gs.UnitF = cv.AsFloat()
			} else {
				gs.UnitI = cv.I
			}
		} else {
			wc, err := sp.Weight.Eval(ctx, g.edges)
			if err != nil {
				return nil, err
			}
			if wc.HasNulls() {
				return nil, fmt.Errorf("CHEAPEST SUM: weight expression %s produced NULL", sp.Weight)
			}
			if gs.Float {
				if wc.Kind == types.KindFloat {
					gs.WeightsF = wc.Floats
				} else {
					fs := make([]float64, wc.Len())
					for i := range fs {
						fs[i] = float64(wc.Ints[i])
					}
					gs.WeightsF = fs
				}
			} else {
				gs.WeightsI = wc.Ints
			}
		}
		if err := graph.ValidateWeights(&gs); err != nil {
			return nil, err
		}
		specs[k] = gs
	}

	sol, err := g.solver(stdctx, parallelism).Solve(srcs, dsts, specs)
	if err != nil {
		return nil, err
	}
	if stdctx != nil {
		if err := stdctx.Err(); err != nil {
			return nil, err
		}
	}

	// Materialize the surviving rows plus the generated columns. The
	// output phase (row gather, cost columns, nested-table paths) is
	// partitioned over the worker budget: every worker fills a disjoint
	// slice range, so the result is bit-identical to the sequential
	// loop at any worker count.
	keep := make([]int, 0, len(sol.Reached))
	for i, r := range sol.Reached {
		if r {
			keep = append(keep, i)
		}
	}
	workers := 1
	if len(keep) >= minParallelOutputRows {
		workers = par.Workers(parallelism)
	}
	out := input.GatherP(keep, workers)
	out.Schema = gm.Sch[:len(input.Schema)]
	for k := range gm.Specs {
		sp := &gm.Specs[k]
		var costCol *storage.Column
		if sp.CostKind == types.KindFloat {
			fs := make([]float64, len(keep))
			par.Ranges(workers, len(keep), func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					fs[i] = sol.CostF[k][keep[i]]
				}
			})
			costCol = storage.ColumnFromFloats(fs)
		} else {
			is := make([]int64, len(keep))
			par.Ranges(workers, len(keep), func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					is[i] = sol.CostI[k][keep[i]]
				}
			})
			costCol = storage.ColumnFromInts(sp.CostKind, is)
		}
		out.Cols = append(out.Cols, costCol)
		if sp.WantPath {
			names, kinds := g.pathSchema()
			ps := make([]*types.Path, len(keep))
			// Paths vary wildly in length; steal items instead of
			// splitting ranges so one long-path region cannot
			// serialize the phase.
			par.Indexed(workers, len(keep), func(_, i int) {
				ps[i] = g.buildPath(names, kinds, sol.Paths[k][keep[i]])
			})
			out.Cols = append(out.Cols, storage.ColumnFromPaths(ps))
		}
	}
	out.Schema = gm.Sch
	return out, nil
}

// minParallelOutputRows gates the parallel output phase of GraphMatch:
// below it, materialization stays on the calling goroutine. A variable
// (not a const) so tests can lower it to force the parallel path on
// small corpora; see SetMinParallelOutputRows.
var minParallelOutputRows = 1 << 12

// SetMinParallelOutputRows overrides the parallel-materialization gate
// and returns the previous value. Intended for tests and benchmarks;
// not safe to call concurrently with query execution.
func SetMinParallelOutputRows(n int) int {
	prev := minParallelOutputRows
	minParallelOutputRows = n
	return prev
}

// pathSchema derives the nested-table column names/kinds from the edge
// chunk (§2: "the attributes enclosed in the nested table ... are the
// same as the attributes of the EDGE table expression").
func (g *Graph) pathSchema() ([]string, []types.Kind) {
	names := make([]string, len(g.edges.Schema))
	kinds := make([]types.Kind, len(g.edges.Schema))
	for i, m := range g.edges.Schema {
		names[i] = m.Name
		kinds[i] = m.Kind
	}
	return names, kinds
}

// buildPath materializes a nested-table value from edge-row references.
func (g *Graph) buildPath(names []string, kinds []types.Kind, rows []int32) *types.Path {
	p := &types.Path{Cols: names, Kinds: kinds}
	if len(rows) == 0 {
		return p
	}
	p.Rows = make([][]types.Value, len(rows))
	for i, r := range rows {
		p.Rows[i] = g.edges.Row(int(r))
	}
	return p
}

// Reachability answers plain reachability for one pair of keys over
// the graph at the caller's worker budget; the runtime-level
// experiments and tests use it to bypass SQL.
func (g *Graph) Reachability(ctx context.Context, srcKey, dstKey types.Value, parallelism int) (bool, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	sc := storage.NewColumn(g.keyKind, 1)
	sc.Append(srcKey)
	dc := storage.NewColumn(g.keyKind, 1)
	dc.Append(dstKey)
	sol, err := g.solver(ctx, parallelism).Solve(g.encodeColumn(sc), g.encodeColumn(dc), nil)
	if err != nil {
		return false, err
	}
	return sol.Reached[0], nil
}
