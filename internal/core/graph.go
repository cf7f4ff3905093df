package core

import (
	"context"
	"fmt"
	"sync"

	"graphsql/internal/graph"
	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// Graph is a compiled edge table: the vertex dictionary, the CSR, the
// (compacted) edge chunk the CSR references, and a delta of edges
// appended since the CSR was built. Building it is the dominant cost
// of a shortest-path query (§4). One type serves both ways a
// GraphMatch acquires its graph: built from the drained edge subplan
// for one query, or cached across queries as the 'graph index' of the
// paper's future work (§6, the facade's BuildGraphIndex). A cached
// graph stays "amenable to the updates on the underlying tables":
// Refresh absorbs appended rows into the delta in O(new edges) and
// rebuilds the CSR once the delta outgrows rebuildFraction of it.
//
// A Graph carries no worker budget: Match, Reachability and Refresh
// run at the caller's. Match and Reachability hold the read lock for
// the whole solve; Refresh takes the write lock only when there are
// rows to absorb. The caller must still serialize Refresh against
// writes to the table (the facade's RWMutex does), and the table must
// be append-only between refreshes (DELETE and DROP invalidate a
// cached graph, handled by the engine).
type Graph struct {
	mu sync.RWMutex
	// dict maps vertex keys to H = {0..N-1}.
	dict *graph.Dict
	// csr is the adjacency structure of the snapshot.
	csr *graph.CSR
	// edges is the materialized edge chunk the CSR and the delta
	// index; rows with NULL endpoints were removed.
	edges *storage.Chunk
	// srcIdx and dstIdx locate the key columns inside edges.
	srcIdx, dstIdx int
	// keyKind is the shared type of the vertex keys.
	keyKind types.Kind
	// edgesOwned reports whether edges is a private copy (true after
	// NULL compaction or the first delta append) rather than an alias
	// of the base table columns.
	edgesOwned bool
	// delta holds edges of rows appended after the snapshot; nil when
	// the graph is exactly the snapshot.
	delta *graph.Delta
	// appliedRows counts the source-table rows already reflected
	// (snapshot + delta).
	appliedRows int
}

// rebuildFraction triggers a snapshot rebuild once the delta holds
// more than this fraction of the snapshot's edges.
const rebuildFraction = 0.25

// stringKeyed reports whether vertex keys use the string key space.
func stringKeyed(k types.Kind) bool { return k == types.KindString }

// BuildGraphCtx compiles an edge chunk into a Graph. Dictionary
// encoding and CSR construction run chunked over up to parallelism
// workers (<= 0 means one per CPU), and the graph is bit-identical to
// a sequential build at any setting. The ctx is polled inside the
// encode and CSR chunk loops, so a cancel landing during construction
// aborts it within a few thousand rows; a nil ctx never cancels. The
// source and destination columns must share one comparable scalar
// kind.
func BuildGraphCtx(ctx context.Context, edges *storage.Chunk, srcIdx, dstIdx, parallelism int) (*Graph, error) {
	if srcIdx < 0 || srcIdx >= len(edges.Cols) || dstIdx < 0 || dstIdx >= len(edges.Cols) {
		return nil, fmt.Errorf("graph build: edge column index out of range")
	}
	sc, dc := edges.Cols[srcIdx], edges.Cols[dstIdx]
	if sc.Kind != dc.Kind {
		return nil, fmt.Errorf("graph build: source kind %v differs from destination kind %v", sc.Kind, dc.Kind)
	}
	if sc.Kind == types.KindPath {
		return nil, fmt.Errorf("graph build: nested tables cannot be vertex keys")
	}
	tableRows := edges.NumRows()
	// Rows with NULL endpoints do not define edges; compact them away
	// so CSR positions align with chunk rows.
	owned := false
	if sc.HasNulls() || dc.HasNulls() {
		keep := make([]int, 0, edges.NumRows())
		for i := 0; i < edges.NumRows(); i++ {
			if !sc.IsNull(i) && !dc.IsNull(i) {
				keep = append(keep, i)
			}
		}
		edges = edges.Gather(keep)
		sc, dc = edges.Cols[srcIdx], edges.Cols[dstIdx]
		owned = true
	}
	m := edges.NumRows()
	var dict *graph.Dict
	srcIDs := make([]graph.VertexID, m)
	dstIDs := make([]graph.VertexID, m)
	ids := [][]graph.VertexID{srcIDs, dstIDs}
	var err error
	if stringKeyed(sc.Kind) {
		dict = graph.NewStringDict(m)
		err = dict.EncodeColumnsStringCtx(ctx, [][]string{sc.Strs, dc.Strs}, ids, parallelism)
	} else {
		dict = graph.NewIntDict(m)
		err = dict.EncodeColumnsIntCtx(ctx, [][]int64{sc.Ints, dc.Ints}, ids, parallelism)
	}
	if err != nil {
		return nil, err
	}
	csr, err := graph.BuildCSRParallelCtx(ctx, dict.Len(), srcIDs, dstIDs, parallelism)
	if err != nil {
		return nil, err
	}
	return &Graph{
		dict: dict, csr: csr, edges: edges,
		srcIdx: srcIdx, dstIdx: dstIdx, keyKind: sc.Kind,
		edgesOwned:  owned,
		appliedRows: tableRows,
	}, nil
}

// NumVertices returns |V|, including vertices first seen in the delta.
func (g *Graph) NumVertices() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.dict.Len()
}

// NumEdges returns |E| of the snapshot (after NULL compaction).
func (g *Graph) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.csr.NumEdges()
}

// Refresh absorbs rows appended to the table since the graph was built
// or last refreshed. current must be the full current chunk of the
// table the graph was built on; rows before appliedRows are assumed
// unchanged (append-only contract). absorbed reports whether there
// were new rows, rebuilt whether they triggered a snapshot rebuild. A
// rebuild is a full graph construction over parallelism workers with
// ctx threaded through its chunk loops, so a canceled query does not
// pin the write lock for the whole rebuild; on error the graph is left
// unchanged.
func (g *Graph) Refresh(ctx context.Context, current *storage.Chunk, parallelism int) (absorbed, rebuilt bool, err error) {
	n := current.NumRows()
	// Fast path: nothing to absorb. Taken under the read lock so
	// concurrent queries over an unchanged table never serialize.
	g.mu.RLock()
	upToDate := n == g.appliedRows
	g.mu.RUnlock()
	if upToDate {
		return false, false, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case n < g.appliedRows:
		return false, false, fmt.Errorf("graph index: table shrank from %d to %d rows (append-only contract violated)", g.appliedRows, n)
	case n == g.appliedRows:
		return false, false, nil
	}
	newEdges := n - g.appliedRows
	if g.deltaEdges()+newEdges > g.rebuildThreshold() {
		ng, err := BuildGraphCtx(ctx, current, g.srcIdx, g.dstIdx, parallelism)
		if err != nil {
			return false, false, err
		}
		g.dict, g.csr, g.edges, g.edgesOwned = ng.dict, ng.csr, ng.edges, ng.edgesOwned
		g.delta, g.appliedRows = nil, n
		return true, true, nil
	}
	sc, dc := current.Cols[g.srcIdx], current.Cols[g.dstIdx]
	if sc.Kind != g.keyKind {
		return false, false, fmt.Errorf("graph index: key kind changed from %v to %v", g.keyKind, sc.Kind)
	}
	if g.delta == nil {
		g.delta = graph.NewDelta(g.dict.Len())
	}
	// The edge chunk must stay row-aligned with the CSR Perm and the
	// delta rows; append the new rows (skipping NULL endpoints exactly
	// like BuildGraphCtx does) to a private copy.
	g.ownEdges()
	for row := g.appliedRows; row < n; row++ {
		if sc.IsNull(row) || dc.IsNull(row) {
			continue
		}
		var s, d graph.VertexID
		if stringKeyed(g.keyKind) {
			s = g.dict.EncodeString(sc.Strs[row])
			d = g.dict.EncodeString(dc.Strs[row])
		} else {
			s = g.dict.EncodeInt(sc.Ints[row])
			d = g.dict.EncodeInt(dc.Ints[row])
		}
		// The edge's row id inside the graph's own edge chunk.
		deltaRow := int32(g.edges.NumRows())
		for c := range current.Cols {
			g.edges.Cols[c].Append(current.Cols[c].Get(row))
		}
		g.delta.Add(s, d, deltaRow)
	}
	if g.dict.Len() > g.delta.N {
		g.delta.N = g.dict.Len()
	}
	g.appliedRows = n
	return true, false, nil
}

// deltaEdges is the delta's edge count; the caller holds mu.
func (g *Graph) deltaEdges() int {
	if g.delta == nil {
		return 0
	}
	return g.delta.Edges
}

// rebuildThreshold returns the delta size that triggers a rebuild.
func (g *Graph) rebuildThreshold() int {
	t := int(rebuildFraction * float64(g.csr.NumEdges()))
	if t < 64 {
		t = 64 // tiny graphs: don't rebuild on every insert
	}
	return t
}

// ownEdges makes the edge chunk privately writable. BuildGraphCtx
// aliases the table columns when no NULL compaction happened; before
// appending delta rows it must be copied, or the base table would be
// corrupted. Only the snapshot's rows are copied: the aliased columns
// already "see" the rows appended to the table since, which the
// refresh appends itself.
func (g *Graph) ownEdges() {
	if g.edgesOwned {
		return
	}
	rows := make([]int, min(g.appliedRows, g.edges.NumRows()))
	for i := range rows {
		rows[i] = i
	}
	g.edges = g.edges.Gather(rows)
	g.edgesOwned = true
}
