package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"

	"graphsql/internal/ldbc"
)

// The workloads' statements. Point reads alternate the paper's Q13
// (hop count, cost only) and its Q14 variant (integer weights through
// the radix-queue Dijkstra, with the path).
const (
	q13SQL    = `SELECT CHEAPEST SUM(1) AS cost WHERE ? REACHES ? OVER friends EDGE (src, dst)`
	q14SQL    = `SELECT CHEAPEST SUM(f: iweight) AS (cost, path) WHERE ? REACHES ? OVER friends f EDGE (src, dst)`
	q13LitSQL = `SELECT CHEAPEST SUM(1) AS cost WHERE %d REACHES %d OVER friends EDGE (src, dst)`
	q14LitSQL = `SELECT CHEAPEST SUM(f: iweight) AS (cost, path) WHERE %d REACHES %d OVER friends f EDGE (src, dst)`
	// batchSQL is the Fig-1b statement: one graph match over a set of
	// 64 pairs, the set_id filter evaluated below the GraphMatch.
	batchSQL = `SELECT p.src, p.dst, CHEAPEST SUM(1) AS (cost, path) FROM pairs p
		WHERE p.set_id = ? AND p.src REACHES p.dst OVER friends EDGE (src, dst)
		ORDER BY p.src, p.dst`
	// streamSQL is single-source reachability over every person.
	streamSQL = `SELECT p.id FROM persons p WHERE ? REACHES p.id OVER friends EDGE (src, dst)`
	// degreeSQL is relational only: no graph is built.
	degreeSQL = `SELECT src, COUNT(*) AS deg FROM friends WHERE iweight <= ?
		GROUP BY src ORDER BY deg DESC, src LIMIT 10`
	insertSQL = `INSERT INTO friends VALUES (?, ?, DATE '2012-06-30', 2.5, ?)`
	countSQL  = `SELECT COUNT(*) FROM friends`

	personsDDL = `CREATE TABLE persons (id BIGINT, firstName VARCHAR, lastName VARCHAR)`
	friendsDDL = `CREATE TABLE friends (src BIGINT, dst BIGINT, creationDate DATE, weight DOUBLE, iweight BIGINT)`
	pairsDDL   = `CREATE TABLE pairs (set_id BIGINT, src BIGINT, dst BIGINT)`
)

// batchPairs is the number of pairs per Fig-1b statement.
const batchPairs = 64

// dataset is one generated graph in the forms the workloads load, plus
// the oracle's adjacency over it. The graph does not depend on the
// workload seed, so every seed measures the same data.
type dataset struct {
	persons   []int64
	edges     int
	personCSV []byte
	friendCSV []byte
	g         *refGraph
}

func generate(cfg *config) (*dataset, error) {
	ds, err := ldbc.Generate(ldbc.Config{SF: cfg.sf, Shrink: cfg.shrink})
	if err != nil {
		return nil, err
	}
	var p, f bytes.Buffer
	p.WriteString("id,firstName,lastName\n")
	for i, id := range ds.PersonIDs {
		fmt.Fprintf(&p, "%d,%s,%s\n", id, ds.FirstNames[i], ds.LastNames[i])
	}
	f.WriteString("src,dst,creationDate,weight,iweight\n")
	for i := range ds.Src {
		day := time.Unix(ds.CreationDays[i]*86400, 0).UTC().Format("2006-01-02")
		fmt.Fprintf(&f, "%d,%d,%s,%s,%d\n", ds.Src[i], ds.Dst[i], day,
			strconv.FormatFloat(ds.Weight[i], 'g', -1, 64), ds.IWeight[i])
	}
	return &dataset{
		persons:   ds.PersonIDs,
		edges:     ds.NumEdges(),
		personCSV: p.Bytes(),
		friendCSV: f.Bytes(),
		g:         newRefGraph(ds.PersonIDs, ds.Src, ds.Dst, ds.IWeight),
	}, nil
}

// newRand returns the workload's generator for one purpose; distinct
// streams keep, say, the pair draw independent of the arrival times.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// randomPairs draws n uniform pairs of distinct persons.
func (d *dataset) randomPairs(r *rand.Rand, n int) [][2]int64 {
	out := make([][2]int64, n)
	for i := range out {
		s := d.persons[r.IntN(len(d.persons))]
		t := d.persons[r.IntN(len(d.persons))]
		for t == s {
			t = d.persons[r.IntN(len(d.persons))]
		}
		out[i] = [2]int64{s, t}
	}
	return out
}

// randomPersons draws n persons uniformly.
func (d *dataset) randomPersons(r *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = d.persons[r.IntN(len(d.persons))]
	}
	return out
}

// newPersonID returns the id of the k-th person a run's writes create:
// above every generated id, and distinct per seed.
func newPersonID(seed uint64, k int) int64 {
	return 1<<40 + int64(seed%1000)<<20 + int64(k)
}

func unzip(pairs [][2]int64) (src, dst []int64) {
	src, dst = make([]int64, len(pairs)), make([]int64, len(pairs))
	for i, p := range pairs {
		src[i], dst[i] = p[0], p[1]
	}
	return src, dst
}
