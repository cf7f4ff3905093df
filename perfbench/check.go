package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"graphsql"
)

// Cells arrive as facade values (int64, *graphsql.Path) from the
// embedded workloads and as decoded JSON (json.Number, path objects)
// from the served one; the checks below accept both.

func toInt(v any) (int64, error) {
	switch t := v.(type) {
	case int64:
		return t, nil
	case json.Number:
		return t.Int64()
	}
	return 0, fmt.Errorf("cell %v (%T) is not an integer", v, v)
}

// toPath decodes a nested-table path cell into its edges, reading the
// src, dst and iweight columns by name.
func toPath(v any) ([]edge, error) {
	var cols []string
	var rows [][]any
	switch t := v.(type) {
	case *graphsql.Path:
		cols, rows = t.Columns, t.Rows
	case map[string]any:
		cs, _ := t["columns"].([]any)
		for _, c := range cs {
			s, _ := c.(string)
			cols = append(cols, s)
		}
		rs, _ := t["rows"].([]any)
		for _, r := range rs {
			row, ok := r.([]any)
			if !ok {
				return nil, fmt.Errorf("path row %v is not an array", r)
			}
			rows = append(rows, row)
		}
	default:
		return nil, fmt.Errorf("cell %v (%T) is not a path", v, v)
	}
	at := map[string]int{}
	for i, c := range cols {
		at[c] = i
	}
	si, ok1 := at["src"]
	di, ok2 := at["dst"]
	wi, ok3 := at["iweight"]
	if !ok1 || !ok2 || !ok3 {
		return nil, fmt.Errorf("path columns %v lack src, dst or iweight", cols)
	}
	out := make([]edge, len(rows))
	for i, r := range rows {
		if len(r) != len(cols) {
			return nil, fmt.Errorf("path row %d has %d cells for %d columns", i, len(r), len(cols))
		}
		var err error
		if out[i].src, err = toInt(r[si]); err != nil {
			return nil, err
		}
		if out[i].dst, err = toInt(r[di]); err != nil {
			return nil, err
		}
		if out[i].iweight, err = toInt(r[wi]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkPoint verifies the rows of a Q13 (cost) or Q14 (cost, path)
// point query.
func (o *oracle) checkPoint(p [2]int64, weighted bool, rows [][]any) error {
	if len(rows) == 0 {
		return o.checkMissing(p[0], p[1], weighted)
	}
	if len(rows) != 1 {
		return fmt.Errorf("pair %d->%d: %d rows, want 1", p[0], p[1], len(rows))
	}
	a := answer{src: p[0], dst: p[1], hasPath: weighted}
	want := 1
	if weighted {
		want = 2
	}
	if len(rows[0]) != want {
		return fmt.Errorf("pair %d->%d: %d columns, want %d", p[0], p[1], len(rows[0]), want)
	}
	var err error
	if a.cost, err = toInt(rows[0][0]); err != nil {
		return err
	}
	if weighted {
		if a.path, err = toPath(rows[0][1]); err != nil {
			return err
		}
	}
	return o.checkAnswer(a, weighted)
}

// checkBatch verifies the (src, dst, cost, path) rows of one Fig-1b
// statement over pairs: exactly the reachable pairs, in (src, dst)
// order, each with the oracle's cost and a valid path.
func (o *oracle) checkBatch(pairs [][2]int64, rows [][]any) error {
	var want [][2]int64
	for _, p := range pairs {
		if o.reach[pointKey{p[0], p[1], false}] {
			want = append(want, p)
		} else if err := o.checkMissing(p[0], p[1], false); err != nil {
			return err
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i][0] != want[j][0] {
			return want[i][0] < want[j][0]
		}
		return want[i][1] < want[j][1]
	})
	if len(rows) != len(want) {
		return fmt.Errorf("batch: %d rows, oracle expects %d", len(rows), len(want))
	}
	for i, row := range rows {
		if len(row) != 4 {
			return fmt.Errorf("batch row %d: %d columns, want 4", i, len(row))
		}
		a := answer{hasPath: true}
		var err error
		if a.src, err = toInt(row[0]); err != nil {
			return err
		}
		if a.dst, err = toInt(row[1]); err != nil {
			return err
		}
		if a.src != want[i][0] || a.dst != want[i][1] {
			return fmt.Errorf("batch row %d is pair %d->%d, expected %d->%d", i, a.src, a.dst, want[i][0], want[i][1])
		}
		if a.cost, err = toInt(row[2]); err != nil {
			return err
		}
		if a.path, err = toPath(row[3]); err != nil {
			return err
		}
		if err := o.checkAnswer(a, false); err != nil {
			return err
		}
	}
	return nil
}

// streamTally accumulates the ids of a streamed reachability result.
type streamTally struct {
	rows, idSum int64
}

func (t *streamTally) add(rows [][]any) error {
	for _, r := range rows {
		if len(r) != 1 {
			return fmt.Errorf("stream row has %d columns, want 1", len(r))
		}
		id, err := toInt(r[0])
		if err != nil {
			return err
		}
		t.rows++
		t.idSum += id
	}
	return nil
}

// checkStream verifies a single-source reachability result by its row
// count and id sum.
func (o *oracle) checkStream(src int64, t streamTally) error {
	want, ok := o.stream[src]
	if !ok {
		return fmt.Errorf("stream from %d has no precomputed answer", src)
	}
	if t.rows != want.count || t.idSum != want.idSum {
		return fmt.Errorf("stream from %d: %d rows (id sum %d), oracle expects %d (id sum %d)", src, t.rows, t.idSum, want.count, want.idSum)
	}
	return nil
}

// checkDegree verifies the relational top-10 out-degree query.
func (o *oracle) checkDegree(k int64, rows [][]any) error {
	want, ok := o.topDegree[k]
	if !ok {
		return fmt.Errorf("degree query for iweight <= %d has no precomputed answer", k)
	}
	if len(rows) != len(want) {
		return fmt.Errorf("degree query: %d rows, oracle expects %d", len(rows), len(want))
	}
	for i, r := range rows {
		if len(r) != 2 {
			return fmt.Errorf("degree row %d: %d columns, want 2", i, len(r))
		}
		src, err := toInt(r[0])
		if err != nil {
			return err
		}
		deg, err := toInt(r[1])
		if err != nil {
			return err
		}
		if src != want[i].src || deg != want[i].deg {
			return fmt.Errorf("degree row %d is (%d, %d), oracle expects (%d, %d)", i, src, deg, want[i].src, want[i].deg)
		}
	}
	return nil
}
