package exec

import (
	"context"

	"graphsql/internal/core"
	"graphsql/internal/expr"
	"graphsql/internal/fault"
	"graphsql/internal/par"
	"graphsql/internal/plan"
	"graphsql/internal/storage"
	"graphsql/internal/trace"
	"graphsql/internal/types"
)

// The reference interpreter: the recursive, fully materializing
// executor the engine shipped before the pull executor, kept as a
// test-only oracle. It evaluates the plan the way the paper's MonetDB
// prototype does (§3.3: "all intermediate results are fully
// materialized") — every operator consumes its whole input and
// produces its whole output — and shares only the breakers'
// materializing cores with production. The pipeline operators (scan,
// filter, project, unnest, limit, rename, UNION ALL), GraphMatch's
// graph acquisition and the CTE cache are independent
// implementations, so the differential tests check the pull
// operators' re-batching logic against code that never batches.

// refContext is the reference's per-execution state: the production
// Context plus the reference's own CTE result cache.
type refContext struct {
	*Context
	// shared caches the results of Shared (CTE) subplans within one
	// execution.
	shared map[*plan.Shared]*storage.Chunk
}

// referenceExecute runs a plan through the reference interpreter.
func referenceExecute(n plan.Node, ctx *Context) (*storage.Chunk, error) {
	if ctx == nil {
		ctx = &Context{}
	}
	return refExecute(n, &refContext{Context: ctx})
}

func refExecute(n plan.Node, ctx *refContext) (*storage.Chunk, error) {
	if ctx.Ctx == nil {
		ctx.Ctx = context.Background()
	}
	if ctx.Expr == nil {
		ctx.Expr = &expr.Context{}
	}
	tr := ctx.Trace
	if tr == nil {
		return execNode(n, ctx)
	}
	parent := ctx.TraceSpan
	sp := tr.Begin(parent, n.Describe())
	ctx.TraceSpan = sp
	out, err := execNode(n, ctx)
	ctx.TraceSpan = parent
	if out != nil {
		tr.SetRows(sp, int64(out.NumRows()))
	}
	tr.End(sp)
	return out, err
}

func execNode(n plan.Node, ctx *refContext) (*storage.Chunk, error) {
	// Every operator materializes fully, so the pre-operator check makes
	// a canceled plan tree unwind at the next chunk boundary.
	if err := ctx.Canceled(); err != nil {
		return nil, err
	}
	if err := fault.Inject(fault.PointExecOperator); err != nil {
		return nil, err
	}
	switch t := n.(type) {
	case *plan.Scan:
		// Zero-copy view over the base table with the alias-qualified
		// schema.
		return &storage.Chunk{Schema: t.Sch, Cols: t.Table.Cols}, nil
	case *plan.ChunkScan:
		return t.Chunk, nil
	case *plan.Rename:
		in, err := refExecute(t.Input, ctx)
		if err != nil {
			return nil, err
		}
		return &storage.Chunk{Schema: t.Sch, Cols: in.Cols}, nil
	case *plan.Shared:
		if c, ok := ctx.shared[t]; ok {
			return c, nil
		}
		c, err := refExecute(t.Input, ctx)
		if err != nil {
			return nil, err
		}
		if ctx.shared == nil {
			ctx.shared = make(map[*plan.Shared]*storage.Chunk)
		}
		ctx.shared[t] = c
		return c, nil
	case *plan.Filter:
		return execFilter(t, ctx)
	case *plan.Project:
		return execProject(t, ctx)
	case *plan.Join:
		return execJoin(t, ctx)
	case *plan.GraphMatch:
		return execGraphMatch(t, ctx)
	case *plan.Aggregate:
		return execAggregate(t, ctx)
	case *plan.Sort:
		return execSort(t, ctx)
	case *plan.Limit:
		return execLimit(t, ctx)
	case *plan.Distinct:
		return execDistinct(t, ctx)
	case *plan.Unnest:
		return execUnnest(t, ctx)
	case *plan.SetOp:
		return execSetOp(t, ctx)
	}
	return nil, planNodeError(n)
}

func execFilter(f *plan.Filter, ctx *refContext) (*storage.Chunk, error) {
	in, err := refExecute(f.Input, ctx)
	if err != nil {
		return nil, err
	}
	return filterCore(f, in, ctx.Context)
}

func execProject(p *plan.Project, ctx *refContext) (*storage.Chunk, error) {
	in, err := refExecute(p.Input, ctx)
	if err != nil {
		return nil, err
	}
	return projectCore(p, in, ctx.Context)
}

func execSort(s *plan.Sort, ctx *refContext) (*storage.Chunk, error) {
	in, err := refExecute(s.Input, ctx)
	if err != nil {
		return nil, err
	}
	return sortCore(s, in, ctx.Context)
}

func execLimit(l *plan.Limit, ctx *refContext) (*storage.Chunk, error) {
	in, err := refExecute(l.Input, ctx)
	if err != nil {
		return nil, err
	}
	n := in.NumRows()
	skip, count, unlimited, err := limitBounds(l, ctx.Context)
	if err != nil {
		return nil, err
	}
	if unlimited {
		count = n
	}
	lo := skip
	if lo > n {
		lo = n
	}
	hi := lo + count
	if hi > n {
		hi = n
	}
	rows := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, i)
	}
	return in.Gather(rows), nil
}

func execDistinct(d *plan.Distinct, ctx *refContext) (*storage.Chunk, error) {
	in, err := refExecute(d.Input, ctx)
	if err != nil {
		return nil, err
	}
	return distinctCore(d, in, ctx.Context)
}

func execAggregate(a *plan.Aggregate, ctx *refContext) (*storage.Chunk, error) {
	in, err := refExecute(a.Input, ctx)
	if err != nil {
		return nil, err
	}
	return aggregateCore(a, in, ctx.Context)
}

func execJoin(j *plan.Join, ctx *refContext) (*storage.Chunk, error) {
	left, err := refExecute(j.Left, ctx)
	if err != nil {
		return nil, err
	}
	right, err := refExecute(j.Right, ctx)
	if err != nil {
		return nil, err
	}
	return joinCore(j, left, right, ctx.Context)
}

func execSetOp(s *plan.SetOp, ctx *refContext) (*storage.Chunk, error) {
	left, err := refExecute(s.Left, ctx)
	if err != nil {
		return nil, err
	}
	right, err := refExecute(s.Right, ctx)
	if err != nil {
		return nil, err
	}
	return setOpCore(s, left, right, ctx.Context)
}

func execGraphMatch(g *plan.GraphMatch, ctx *refContext) (*storage.Chunk, error) {
	in, err := refExecute(g.Input, ctx)
	if err != nil {
		return nil, err
	}
	xc, err := g.X.Eval(ctx.Expr, in)
	if err != nil {
		return nil, err
	}
	yc, err := g.Y.Eval(ctx.Expr, in)
	if err != nil {
		return nil, err
	}
	// The solver only receives a context.Context, so the trace (and the
	// GraphMatch span its per-level frontier samples attach to) rides
	// the context down through core.Graph.Match.
	stdctx := ctx.Ctx
	if ctx.Trace != nil {
		stdctx = trace.NewContext(stdctx, ctx.Trace, ctx.TraceSpan)
		ctx.Trace.SetWorkers(ctx.TraceSpan, par.Workers(ctx.Parallelism))
	}
	// A cached index serves scans of indexed base tables; rows
	// inserted since the snapshot are absorbed into its delta (the
	// paper's §6 updatable graph index). Otherwise the graph is built
	// from the edge subplan.
	var graph *core.Graph
	if scan, ok := g.Edge.(*plan.Scan); ok {
		if ix, ok := ctx.GraphIndexes[GraphIndexKey(scan.Table.Name, g.SrcIdx, g.DstIdx)]; ok {
			absorbed, rebuilt, err := ix.Refresh(stdctx, scan.Table.Chunk(), ctx.Parallelism)
			if err != nil {
				return nil, err
			}
			if ctx.Stats != nil {
				ctx.Stats.IndexHits++
				if rebuilt {
					ctx.Stats.IndexRebuilds++
				} else if absorbed {
					ctx.Stats.IndexRefreshes++
				}
			}
			graph = ix
		}
	}
	if graph == nil {
		edges, err := refExecute(g.Edge, ctx)
		if err != nil {
			return nil, err
		}
		if graph, err = core.BuildGraphCtx(stdctx, edges, g.SrcIdx, g.DstIdx, ctx.Parallelism); err != nil {
			return nil, err
		}
		if ctx.Stats != nil {
			ctx.Stats.GraphBuilds++
			ctx.Stats.GraphBuildVertices += graph.NumVertices()
			ctx.Stats.GraphBuildEdges += graph.NumEdges()
		}
	}
	return graph.Match(stdctx, g, in, xc, yc, ctx.Expr, ctx.Parallelism)
}

// execUnnest expands a nested-table column into rows (§2). The
// standard inner form drops input rows whose path is NULL or empty;
// the outer form (LEFT JOIN UNNEST ... ON TRUE) keeps them with
// null-extended path columns, the behaviour the paper describes for
// preserving "the empty collection".
func execUnnest(u *plan.Unnest, ctx *refContext) (*storage.Chunk, error) {
	in, err := refExecute(u.Input, ctx)
	if err != nil {
		return nil, err
	}
	pc, err := u.PathExpr.Eval(ctx.Expr, in)
	if err != nil {
		return nil, err
	}
	nIn := in.NumRows()
	nPathCols := len(u.PathSchema)

	out := storage.NewChunk(u.Sch)
	inWidth := len(in.Cols)
	appendRow := func(row int, edge []types.Value, ord int64) {
		for c := 0; c < inWidth; c++ {
			out.Cols[c].Append(in.Cols[c].Get(row))
		}
		if edge == nil {
			for c := 0; c < nPathCols; c++ {
				out.Cols[inWidth+c].AppendNull()
			}
			if u.Ordinality {
				out.Cols[inWidth+nPathCols].AppendNull()
			}
			return
		}
		for c := 0; c < nPathCols; c++ {
			out.Cols[inWidth+c].Append(edge[c])
		}
		if u.Ordinality {
			out.Cols[inWidth+nPathCols].AppendInt(ord)
		}
	}

	for row := 0; row < nIn; row++ {
		if pc.IsNull(row) {
			if u.Outer {
				appendRow(row, nil, 0)
			}
			continue
		}
		p := pc.Paths[row]
		if p.Len() == 0 {
			if u.Outer {
				appendRow(row, nil, 0)
			}
			continue
		}
		for e, edge := range p.Rows {
			appendRow(row, edge, int64(e+1))
		}
	}
	return out, nil
}
