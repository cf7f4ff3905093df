package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"graphsql"
	"graphsql/internal/wire"
)

// op is one operation of a workload: its statement, how its latency
// counts, and how its answer is checked.
type op struct {
	kind opKind
	item replayItem
	// check verifies a read's rows; a stream op instead checks the
	// reachable set of its source, stream.
	check  func(rows [][]any) error
	stream int64
}

// errWrong wraps an answer the oracle rejected.
type errWrong struct{ err error }

func (e errWrong) Error() string { return "wrong answer: " + e.err.Error() }

// embeddedSlots lays out each run of 16 closed-loop operations: one
// streamed reachability probe, one write, fourteen of the workload's
// reads. The probes give the embedded workloads the write and
// time-to-first-rows figures the served workload measures over HTTP.
const (
	embeddedSlots = 16
	streamSlot    = 7
	writeSlot     = 15
)

// embedded is a workload against the in-process facade, one client in
// a closed loop.
type embedded struct {
	cfg     *config
	data    *dataset
	orc     *oracle
	db      *graphsql.DB
	streams []int64
	writes  int // acknowledged
	// read returns the i-th read operation.
	read func(i int) op
}

func runAdhocPoint(ctx context.Context, cfg *config) (*report, error) {
	data, err := generate(cfg)
	if err != nil {
		return nil, err
	}
	r := newRand(cfg.seed, 1)
	pool := data.randomPairs(r, 1024)
	w := &embedded{cfg: cfg, data: data, orc: newOracle(data.g), streams: data.randomPersons(r, 32)}
	for i, p := range pool {
		w.orc.addPairs([]int64{p[0]}, []int64{p[1]}, i%2 == 1)
	}
	w.read = func(i int) op {
		p := pool[i%len(pool)]
		weighted := i%len(pool)%2 == 1
		sql := q13SQL
		if weighted {
			sql = q14SQL
		}
		return op{
			kind:  opRead,
			item:  replayItem{sql: sql, args: []any{p[0], p[1]}, pairs: [][2]int64{p}, weighted: weighted},
			check: func(rows [][]any) error { return w.orc.checkPoint(p, weighted, rows) },
		}
	}
	return w.run(ctx, nil, false)
}

func runIndexedBatch(ctx context.Context, cfg *config) (*report, error) {
	data, err := generate(cfg)
	if err != nil {
		return nil, err
	}
	r := newRand(cfg.seed, 2)
	sets := make([][][2]int64, cfg.pairSets)
	var pairsCSV bytes.Buffer
	pairsCSV.WriteString("set_id,src,dst\n")
	for s := range sets {
		sets[s] = data.randomPairs(r, batchPairs)
		for _, p := range sets[s] {
			fmt.Fprintf(&pairsCSV, "%d,%d,%d\n", s, p[0], p[1])
		}
	}
	w := &embedded{cfg: cfg, data: data, orc: newOracle(data.g), streams: data.randomPersons(r, 32)}
	for _, set := range sets {
		src, dst := unzip(set)
		w.orc.addPairs(src, dst, false)
	}
	w.read = func(i int) op {
		s := i % len(sets)
		return op{
			kind:  opRead,
			item:  replayItem{sql: batchSQL, args: []any{int64(s)}, pairs: sets[s]},
			check: func(rows [][]any) error { return w.orc.checkBatch(sets[s], rows) },
		}
	}
	return w.run(ctx, pairsCSV.Bytes(), true)
}

// setup loads the tables through DB.LoadCSV and, for the indexed
// workload, builds the graph index, as often as cfg asks; it returns
// every duration in seconds and keeps the last database.
func (w *embedded) setup(pairsCSV []byte, index bool) ([]float64, error) {
	var times []float64
	for w.cfg.moreSetups(times) {
		w.db = nil
		runtime.GC() // the previous copy is freed outside the timed span
		start := time.Now()
		db := graphsql.Open()
		ddl := []string{personsDDL, friendsDDL}
		loads := map[string][]byte{"persons": w.data.personCSV, "friends": w.data.friendCSV}
		if pairsCSV != nil {
			ddl = append(ddl, pairsDDL)
			loads["pairs"] = pairsCSV
		}
		for _, s := range ddl {
			if err := db.Exec(s); err != nil {
				return nil, err
			}
		}
		for table, csv := range loads {
			if _, err := db.LoadCSV(table, bytes.NewReader(csv)); err != nil {
				return nil, fmt.Errorf("loading %s: %w", table, err)
			}
		}
		if index {
			if err := db.BuildGraphIndex("friends", "src", "dst"); err != nil {
				return nil, err
			}
		}
		times = append(times, time.Since(start).Seconds())
		w.db = db
	}
	return times, nil
}

// run sets up, measures the closed loop and checks the final state.
// The traced variant measures half the interval untraced and half with
// spans, then replays sampled operations layer by layer.
func (w *embedded) run(ctx context.Context, pairsCSV []byte, index bool) (*report, error) {
	w.orc.addStreams(w.streams)
	if w.cfg.tamper != nil {
		w.cfg.tamper(w.orc)
	}
	setups, err := w.setup(pairsCSV, index)
	if err != nil {
		return nil, err
	}
	// The CSV copies are dead once loaded; keep them out of the measured
	// heap.
	w.data.personCSV, w.data.friendCSV = nil, nil
	rep := &report{}
	if index {
		plan, err := w.db.Explain(batchSQL, int64(0))
		if err != nil {
			return nil, err
		}
		gm, filter := strings.Index(plan, "GraphMatch"), strings.Index(plan, "Filter (p.set_id")
		rep.notes = append(rep.notes, fmt.Sprintf("plan: set_id filter below GraphMatch: %v", gm >= 0 && filter > gm))
	}
	warm := w.loop(ctx, nil, 0, warmup(w.cfg.seconds), nil)
	rep.add(warm)
	if !w.cfg.trace {
		ph := w.loop(ctx, nil, warm.attempted, w.cfg.seconds, nil)
		rep.add(ph)
		rep.metrics = ph.endToEnd(setups)
		rep.notes = append(rep.notes, ph.stealNote())
	} else {
		log := newSpanLog()
		var items []replayItem
		plain := w.loop(ctx, nil, warm.attempted, w.cfg.seconds/2, nil)
		traced := w.loop(ctx, log, warm.attempted+plain.attempted, w.cfg.seconds/2, &items)
		rep.add(plain)
		rep.add(traced)
		graphs := 16
		if index {
			graphs = 3 // a build of the large graph takes ~0.5 s
		}
		layers, err := replayLayers(ctx, log, w.db, sample(items, 24), graphs, 4*time.Second)
		if err != nil {
			return nil, err
		}
		rep.metrics = append(layers, zeroServerMetrics()...)
		rep.metrics = append(rep.metrics, overhead(plain, traced)...)
		rep.spans = log
	}
	if err := w.checkFinal(); err != nil {
		rep.failed++
		rep.wrong++
		rep.notes = append(rep.notes, "final check failed: "+err.Error())
	}
	return rep, nil
}

// loop runs the closed loop for seconds, numbering operations from
// first. With a span log it records a span per operation and collects
// the reads for the layer replay.
func (w *embedded) loop(ctx context.Context, log *spanLog, first int, seconds float64, items *[]replayItem) *phase {
	ph := beginPhase(seconds)
	deadline := ph.start.Add(time.Duration(seconds * float64(time.Second)))
	for i := first; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		var o op
		switch i % embeddedSlots {
		case streamSlot:
			src := w.streams[i/embeddedSlots%len(w.streams)]
			o = op{kind: opStream, item: replayItem{sql: streamSQL, args: []any{src}}, stream: src}
		case writeSlot:
			dst := w.data.persons[(i*7919)%len(w.data.persons)]
			o = op{kind: opWrite, item: replayItem{sql: insertSQL, args: []any{newPersonID(w.cfg.seed, i), dst, int64(1 + i%10)}}}
		default:
			o = w.read(i)
		}
		began := time.Now()
		root := log.begin(int64(i), 0, "op")
		lat, ttfr, err := w.do(ctx, log, int64(i), root, o)
		log.end(root, 1)
		var wrong errWrong
		ph.record(o.kind, began, lat, ttfr, err, errors.As(err, &wrong))
		if o.kind == opWrite && err == nil {
			w.writes++
		}
		if items != nil && o.kind != opWrite {
			*items = append(*items, o.item)
		}
	}
	ph.finish()
	return ph
}

// do executes one operation through the facade and checks its answer.
func (w *embedded) do(ctx context.Context, log *spanLog, id int64, root int, o op) (lat, ttfr time.Duration, err error) {
	start := time.Now()
	if o.kind == opWrite {
		sp := log.begin(id, root, "graphsql.Exec")
		err = w.db.Exec(o.item.sql, o.item.args...)
		log.end(sp, 1)
		return time.Since(start), 0, err
	}
	sp := log.begin(id, root, "graphsql.QueryRows")
	rows, err := w.db.QueryRows(ctx, graphsql.QueryOptions{}, o.item.sql, o.item.args...)
	log.end(sp, 1)
	if err != nil {
		return 0, 0, err
	}
	defer rows.Close()
	sp = log.begin(id, root, "graphsql.Rows.NextBatch")
	var all [][]any
	var tally streamTally
	for {
		batch, err := rows.NextBatch(wire.DefaultBatchRows)
		if err != nil {
			log.end(sp, 1)
			return 0, 0, err
		}
		if ttfr == 0 {
			ttfr = time.Since(start)
		}
		if batch == nil {
			break
		}
		if o.kind == opStream {
			if err := tally.add(batch); err != nil {
				log.end(sp, 1)
				return 0, 0, errWrong{err}
			}
		} else {
			all = append(all, batch...)
		}
	}
	log.end(sp, 1)
	lat = time.Since(start)
	if o.kind == opStream {
		err = w.orc.checkStream(o.stream, tally)
	} else {
		err = o.check(all)
	}
	if err != nil {
		return 0, 0, errWrong{err}
	}
	return lat, ttfr, nil
}

// checkFinal verifies that every acknowledged write is visible.
func (w *embedded) checkFinal() error {
	n, err := w.db.QueryScalar(countSQL)
	if err != nil {
		return err
	}
	if want := int64(w.data.edges + w.writes); n != want {
		return fmt.Errorf("friends has %v rows, expected %d", n, want)
	}
	return nil
}
