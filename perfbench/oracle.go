package main

import (
	"container/heap"
	"fmt"
	"sort"
)

// oracle answers every query the workloads issue from the generated
// edge lists alone: a textbook BFS and Dijkstra over its own adjacency
// arrays, sharing no code with internal/graph. Expected answers are
// computed before the measured interval; checks during the run are
// lookups.
type oracle struct {
	g *refGraph

	// point holds the expected cost per (src, dst, weighted) pair;
	// absent from reach means the pair is unreachable.
	point map[pointKey]int64
	reach map[pointKey]bool
	// stream holds the reachable-set size and id sum per source.
	stream map[int64]reachSet
	// topDegree holds the expected top-10 (src, out-degree) rows of the
	// relational query per iweight threshold.
	topDegree map[int64][]degreeRow
}

type pointKey struct {
	src, dst int64
	weighted bool
}

type reachSet struct{ count, idSum int64 }

type degreeRow struct{ src, deg int64 }

// refGraph is the oracle's adjacency: dense vertex numbers, out-edge
// offsets, targets and integer weights.
type refGraph struct {
	index map[int64]int32
	ids   []int64
	off   []int32
	to    []int32
	w     []int64
}

func newRefGraph(ids, src, dst, iw []int64) *refGraph {
	g := &refGraph{index: make(map[int64]int32, len(ids)), ids: ids}
	for i, id := range ids {
		g.index[id] = int32(i)
	}
	g.off = make([]int32, len(ids)+1)
	for _, s := range src {
		g.off[g.index[s]+1]++
	}
	for i := 1; i < len(g.off); i++ {
		g.off[i] += g.off[i-1]
	}
	g.to = make([]int32, len(src))
	g.w = make([]int64, len(src))
	fill := append([]int32(nil), g.off[:len(ids)]...)
	for e := range src {
		u := g.index[src[e]]
		g.to[fill[u]] = g.index[dst[e]]
		g.w[fill[u]] = iw[e]
		fill[u]++
	}
	return g
}

// bfs returns hop distances from src; -1 marks unreachable vertices.
func (g *refGraph) bfs(src int32) []int64 {
	dist := make([]int64, len(g.ids))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for e := g.off[u]; e < g.off[u+1]; e++ {
			if v := g.to[e]; dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// dijkstra returns iweight distances from src; -1 marks unreachable.
func (g *refGraph) dijkstra(src int32) []int64 {
	dist := make([]int64, len(g.ids))
	for i := range dist {
		dist[i] = -1
	}
	done := make([]bool, len(g.ids))
	dist[src] = 0
	pq := &minQueue{{src, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(queued)
		if done[it.v] {
			continue
		}
		done[it.v] = true
		for e := g.off[it.v]; e < g.off[it.v+1]; e++ {
			v, d := g.to[e], it.d+g.w[e]
			if dist[v] < 0 || d < dist[v] {
				dist[v] = d
				heap.Push(pq, queued{v, d})
			}
		}
	}
	return dist
}

type queued struct {
	v int32
	d int64
}

type minQueue []queued

func (q minQueue) Len() int           { return len(q) }
func (q minQueue) Less(i, j int) bool { return q[i].d < q[j].d }
func (q minQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *minQueue) Push(x any)        { *q = append(*q, x.(queued)) }
func (q *minQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

func newOracle(g *refGraph) *oracle {
	return &oracle{
		g:         g,
		point:     map[pointKey]int64{},
		reach:     map[pointKey]bool{},
		stream:    map[int64]reachSet{},
		topDegree: map[int64][]degreeRow{},
	}
}

// addPairs precomputes the answers of the given pairs, one traversal
// per distinct source.
func (o *oracle) addPairs(src, dst []int64, weighted bool) {
	bySrc := map[int64][]int64{}
	for i := range src {
		if _, ok := o.reach[pointKey{src[i], dst[i], weighted}]; !ok {
			bySrc[src[i]] = append(bySrc[src[i]], dst[i])
		}
	}
	for s, ds := range bySrc {
		var dist []int64
		if weighted {
			dist = o.g.dijkstra(o.g.index[s])
		} else {
			dist = o.g.bfs(o.g.index[s])
		}
		for _, d := range ds {
			k := pointKey{s, d, weighted}
			c := dist[o.g.index[d]]
			o.reach[k] = c >= 0
			if c >= 0 {
				o.point[k] = c
			}
		}
	}
}

// addStreams precomputes the single-source reachable sets.
func (o *oracle) addStreams(srcs []int64) {
	for _, s := range srcs {
		var rs reachSet
		for v, d := range o.g.bfs(o.g.index[s]) {
			if d >= 0 {
				rs.count++
				rs.idSum += o.g.ids[v]
			}
		}
		o.stream[s] = rs
	}
}

// addTopDegree precomputes, per iweight threshold, the ten sources with
// the most out-edges of weight at most the threshold (ties by id).
func (o *oracle) addTopDegree(thresholds []int64) {
	for _, k := range thresholds {
		rows := make([]degreeRow, 0, len(o.g.ids))
		for u := range o.g.ids {
			var deg int64
			for e := o.g.off[u]; e < o.g.off[u+1]; e++ {
				if o.g.w[e] <= k {
					deg++
				}
			}
			if deg > 0 {
				rows = append(rows, degreeRow{o.g.ids[u], deg})
			}
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].deg != rows[j].deg {
				return rows[i].deg > rows[j].deg
			}
			return rows[i].src < rows[j].src
		})
		o.topDegree[k] = rows[:min(10, len(rows))]
	}
}

// edge is one traversed edge of a returned path.
type edge struct{ src, dst, iweight int64 }

// answer is one returned shortest-path row, decoded from whichever
// surface produced it.
type answer struct {
	src, dst int64
	cost     int64
	path     []edge
	hasPath  bool
}

// checkAnswer verifies one returned row: its cost must equal the
// oracle's, and its path (when returned) must be a chain of real edges
// from src to dst whose weight sums to the cost.
func (o *oracle) checkAnswer(a answer, weighted bool) error {
	k := pointKey{a.src, a.dst, weighted}
	reach, known := o.reach[k]
	switch {
	case !known:
		return fmt.Errorf("pair %d->%d has no precomputed answer", a.src, a.dst)
	case !reach:
		return fmt.Errorf("pair %d->%d is unreachable but a row was returned", a.src, a.dst)
	case a.cost != o.point[k]:
		return fmt.Errorf("pair %d->%d: cost %d, oracle says %d", a.src, a.dst, a.cost, o.point[k])
	case !a.hasPath:
		return nil
	}
	at, sum := a.src, int64(0)
	for i, e := range a.path {
		if e.src != at {
			return fmt.Errorf("pair %d->%d: path edge %d starts at %d, expected %d", a.src, a.dst, i, e.src, at)
		}
		if !o.g.hasEdge(e) {
			return fmt.Errorf("pair %d->%d: path edge %d (%d->%d, w=%d) is not in the edge table", a.src, a.dst, i, e.src, e.dst, e.iweight)
		}
		at = e.dst
		if weighted {
			sum += e.iweight
		} else {
			sum++
		}
	}
	if at != a.dst || sum != a.cost {
		return fmt.Errorf("pair %d->%d: path ends at %d with weight %d, cost is %d", a.src, a.dst, at, sum, a.cost)
	}
	return nil
}

// checkMissing verifies that a pair for which no row came back is
// indeed unreachable.
func (o *oracle) checkMissing(src, dst int64, weighted bool) error {
	reach, known := o.reach[pointKey{src, dst, weighted}]
	if !known || reach {
		return fmt.Errorf("pair %d->%d: no row returned, oracle says reachable", src, dst)
	}
	return nil
}

func (g *refGraph) hasEdge(e edge) bool {
	u, ok := g.index[e.src]
	if !ok {
		return false
	}
	v, ok := g.index[e.dst]
	if !ok {
		return false
	}
	for i := g.off[u]; i < g.off[u+1]; i++ {
		if g.to[i] == v && g.w[i] == e.iweight {
			return true
		}
	}
	return false
}
