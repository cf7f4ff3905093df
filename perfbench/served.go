package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphsql/internal/server"
	"graphsql/internal/wire"
)

const (
	servedGraph = "ldbc"
	// servedConns is the number of HTTP connections, one per client
	// goroutine; each carries its own session id.
	servedConns = 2
	hotPairs    = 64
	// coldSources × coldPerSource cold pairs: far more distinct
	// statements than the server's 512-entry result cache holds.
	coldSources   = 256
	coldPerSource = 32
)

// request is one scheduled HTTP request of served_mixed.
type request struct {
	op
	due time.Duration // offset from the phase start
}

// served is the served_mixed workload: gsqld's handler on a loopback
// listener and the open-loop client that drives it.
type served struct {
	cfg    *config
	data   *dataset
	orc    *oracle
	base   string
	client *http.Client // set-up, scrapes and final checks
	hot    [][2]int64
	cold   [][2]int64
	srcs   []int64

	// sched draws the arrivals and the mix of every phase in turn.
	sched *rand.Rand
	// nextWrite numbers the new persons the scheduled writes create.
	nextWrite int
	// lagMax is how late the generator ran against its schedule.
	lagMax time.Duration

	mu     sync.Mutex
	writes int // acknowledged
}

func runServedMixed(ctx context.Context, cfg *config) (*report, error) {
	data, err := generate(cfg)
	if err != nil {
		return nil, err
	}
	r := newRand(cfg.seed, 3)
	w := &served{cfg: cfg, data: data, orc: newOracle(data.g), client: &http.Client{}, sched: newRand(cfg.seed, 4)}
	w.hot = data.randomPairs(r, hotPairs)
	for _, s := range data.randomPersons(r, coldSources) {
		for range coldPerSource {
			d := data.persons[r.IntN(len(data.persons))]
			for d == s {
				d = data.persons[r.IntN(len(data.persons))]
			}
			w.cold = append(w.cold, [2]int64{s, d})
		}
	}
	w.srcs = data.randomPersons(r, 32)
	for _, pool := range [][][2]int64{w.hot, w.cold} {
		src, dst := unzip(pool)
		w.orc.addPairs(src, dst, false)
		w.orc.addPairs(src, dst, true)
	}
	w.orc.addStreams(w.srcs)
	w.orc.addTopDegree([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if cfg.tamper != nil {
		cfg.tamper(w.orc)
	}

	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	defer func() {
		w.client.CloseIdleConnections()
		hs.Shutdown(context.Background())
		<-serveErr
	}()
	w.base = "http://" + ln.Addr().String()

	setups, err := w.setup(ctx)
	if err != nil {
		return nil, err
	}
	w.data.personCSV, w.data.friendCSV = nil, nil // loaded; keep them out of the measured heap
	rep := &report{}
	rep.add(w.phase(ctx, nil, warmup(cfg.seconds), nil))
	if !cfg.trace {
		ph := w.phase(ctx, nil, cfg.seconds, nil)
		rep.add(ph)
		rep.metrics = ph.endToEnd(setups)
		rep.notes = append(rep.notes, ph.stealNote())
	} else {
		log := newSpanLog()
		plain := w.phase(ctx, nil, cfg.seconds/2, nil)
		writesBefore := w.acked()
		before, err := w.scrape(ctx)
		if err != nil {
			return nil, err
		}
		var items []replayItem
		traced := w.phase(ctx, log, cfg.seconds/2, &items)
		after, err := w.scrape(ctx)
		if err != nil {
			return nil, err
		}
		rep.add(plain)
		rep.add(traced)
		db, _, ok := srv.Registry().Resolve(servedGraph)
		if !ok {
			return nil, fmt.Errorf("graph %q is not loaded", servedGraph)
		}
		layers, err := replayLayers(ctx, log, db, sample(items, 24), 16, 4*time.Second)
		if err != nil {
			return nil, err
		}
		rep.metrics = append(layers, serverMetrics(before, after, w.acked()-writesBefore)...)
		rep.metrics = append(rep.metrics, metric{"client.lag_max_ms", ms(w.lagMax), "ms", plain.attempted + traced.attempted})
		rep.metrics = append(rep.metrics, overhead(plain, traced)...)
		rep.spans = log
	}
	rep.notes = append(rep.notes, fmt.Sprintf("client lag max %.3f ms (how late the generator sent against its schedule)", ms(w.lagMax)))
	if err := w.checkFinal(ctx); err != nil {
		rep.failed++
		rep.wrong++
		rep.notes = append(rep.notes, "final check failed: "+err.Error())
	}
	return rep, nil
}

// loadScript renders the dataset as the SQL script gsqld loads.
func (w *served) loadScript() string {
	var b strings.Builder
	b.WriteString(personsDDL + ";\n" + friendsDDL + ";\n")
	for _, part := range []struct {
		table string
		csv   []byte
	}{{"persons", w.data.personCSV}, {"friends", w.data.friendCSV}} {
		lines := strings.Split(strings.TrimSpace(string(part.csv)), "\n")[1:]
		for lo := 0; lo < len(lines); lo += 1000 {
			fmt.Fprintf(&b, "INSERT INTO %s VALUES ", part.table)
			for i, line := range lines[lo:min(lo+1000, len(lines))] {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString("(" + sqlTuple(line) + ")")
			}
			b.WriteString(";\n")
		}
	}
	return b.String()
}

// sqlTuple turns one generated CSV line into SQL literals: numbers
// verbatim, dates as DATE literals, names quoted.
func sqlTuple(line string) string {
	cells := strings.Split(line, ",")
	for i, c := range cells {
		if _, err := strconv.ParseFloat(c, 64); err == nil {
			continue
		}
		if len(c) == 10 && c[4] == '-' && c[7] == '-' {
			cells[i] = "DATE '" + c + "'"
		} else {
			cells[i] = "'" + c + "'"
		}
	}
	return strings.Join(cells, ", ")
}

// setup loads the graph through POST /graphs/{name}/load with a graph
// index on friends, as often as cfg asks (each a copy-on-swap reload).
func (w *served) setup(ctx context.Context) ([]float64, error) {
	body, err := json.Marshal(wire.LoadRequest{
		Script:  w.loadScript(),
		Indexes: []wire.IndexSpec{{Table: "friends", Src: "src", Dst: "dst"}},
	})
	if err != nil {
		return nil, err
	}
	var times []float64
	for w.cfg.moreSetups(times) {
		start := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/graphs/"+servedGraph+"/load", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := w.client.Do(req)
		if err != nil {
			return nil, err
		}
		var lr wire.LoadResponse
		err = json.NewDecoder(resp.Body).Decode(&lr)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("load response: %w", err)
		}
		if lr.Error != nil {
			return nil, lr.Error
		}
		times = append(times, time.Since(start).Seconds())
	}
	return times, nil
}

// servedDeck is the request mix, dealt in a fresh seeded order for
// every 20 arrivals so each stretch of a run carries the exact shares:
// 70% point reads (half hot, half cold), 10% streamed reachability,
// 10% relational reads and 10% writes.
var servedDeck = []int{
	mixHot, mixHot, mixHot, mixHot, mixHot, mixHot, mixHot,
	mixCold, mixCold, mixCold, mixCold, mixCold, mixCold, mixCold,
	mixStream, mixStream, mixDegree, mixDegree, mixWrite, mixWrite,
}

const (
	mixHot = iota
	mixCold
	mixStream
	mixDegree
	mixWrite
)

// schedule draws one phase's open-loop arrivals: Poisson at cfg.rate
// over servedDeck. Point reads pick Q13 or Q14 at random and spell a
// third of their pairs as literals.
func (w *served) schedule(seconds float64) []request {
	r := w.sched
	var out []request
	deck := slices.Clone(servedDeck)
	at := 0.0
	for i := 0; ; i++ {
		at += r.ExpFloat64() / w.cfg.rate
		if at >= seconds {
			return out
		}
		if i%len(deck) == 0 {
			r.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		req := request{due: time.Duration(at * float64(time.Second))}
		switch mix := deck[i%len(deck)]; mix {
		case mixHot, mixCold:
			pool := w.hot
			if mix == mixCold {
				pool = w.cold
			}
			p := pool[r.IntN(len(pool))]
			weighted := r.IntN(2) == 1
			sql, lit := q13SQL, q13LitSQL
			if weighted {
				sql, lit = q14SQL, q14LitSQL
			}
			req.item = replayItem{sql: sql, args: []any{p[0], p[1]}, pairs: [][2]int64{p}, weighted: weighted}
			if r.IntN(3) == 0 {
				req.item.sql, req.item.args = fmt.Sprintf(lit, p[0], p[1]), nil
			}
			req.check = func(rows [][]any) error { return w.orc.checkPoint(p, weighted, rows) }
		case mixStream:
			src := w.srcs[r.IntN(len(w.srcs))]
			req.kind, req.stream = opStream, src
			req.item = replayItem{sql: streamSQL, args: []any{src}}
		case mixDegree:
			k := int64(1 + r.IntN(10))
			req.item = replayItem{sql: degreeSQL, args: []any{k}}
			req.check = func(rows [][]any) error { return w.orc.checkDegree(k, rows) }
		case mixWrite:
			req.kind = opWrite
			dst := w.data.persons[r.IntN(len(w.data.persons))]
			req.item = replayItem{sql: insertSQL, args: []any{newPersonID(w.cfg.seed, w.nextWrite), dst, int64(1 + r.IntN(10))}}
			w.nextWrite++
		}
		out = append(out, req)
	}
}

// phase sends a schedule of the given length over servedConns
// connections and waits for every response. Each request is timed from
// its due time.
func (w *served) phase(ctx context.Context, log *spanLog, seconds float64, items *[]replayItem) *phase {
	sched := w.schedule(seconds)
	ph := beginPhase(seconds)
	queue := make(chan int, len(sched)) // sized to the number of sends
	var wg sync.WaitGroup
	for c := range servedConns {
		client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
		session := fmt.Sprintf("conn-%d", c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for i := range queue {
				req := sched[i]
				due := ph.start.Add(req.due)
				lat, ttfr, err := w.do(ctx, client, session, log, int64(i), due, req)
				var wrong errWrong
				ph.record(req.kind, due, lat, ttfr, err, errors.As(err, &wrong))
			}
		}()
	}
	for i, req := range sched {
		due := ph.start.Add(req.due)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		w.lagMax = max(w.lagMax, time.Since(due))
		queue <- i
		if items != nil && req.kind != opWrite {
			*items = append(*items, req.item)
		}
	}
	close(queue)
	wg.Wait()
	ph.finish()
	return ph
}

func (w *served) acked() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writes
}

// do sends one request and checks its answer. Latency runs from the
// due time to the last response byte; ttfr to the first rows frame.
func (w *served) do(ctx context.Context, client *http.Client, session string, log *spanLog, id int64, due time.Time, req request) (lat, ttfr time.Duration, err error) {
	body, err := json.Marshal(wire.QueryRequest{Graph: servedGraph, Session: session, SQL: req.item.sql, Args: req.item.args, Stream: req.kind == opStream})
	if err != nil {
		return 0, 0, err
	}
	sent := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/query", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	headers := time.Now()
	if req.kind == opStream {
		ttfr, err = w.readStream(resp, due, req.stream)
	} else {
		err = w.readBuffered(resp, req)
	}
	done := time.Now()
	if log != nil {
		root := log.record(id, 0, "op", due, done)
		log.record(id, root, "client.queue", due, sent)
		log.record(id, root, "http.round_trip", sent, headers)
		log.record(id, root, "http.body", headers, done)
	}
	if err == nil && req.kind == opWrite {
		w.mu.Lock()
		w.writes++
		w.mu.Unlock()
	}
	return done.Sub(due), ttfr, err
}

func (w *served) readBuffered(resp *http.Response, req request) error {
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var qr wire.QueryResponse
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&qr); err != nil {
		return fmt.Errorf("status %d: %w", resp.StatusCode, err)
	}
	if qr.Error != nil {
		return qr.Error
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if req.check == nil {
		return nil
	}
	if err := req.check(qr.Rows); err != nil {
		return errWrong{err}
	}
	return nil
}

// readStream folds an NDJSON stream, timing the first rows frame, and
// checks the reachable set it carried.
func (w *served) readStream(resp *http.Response, due time.Time, src int64) (ttfr time.Duration, err error) {
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	var tally streamTally
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 64<<20)
	trailer := false
	for sc.Scan() {
		var frame struct {
			Columns  []string    `json:"columns"`
			Rows     [][]any     `json:"rows"`
			RowCount *int64      `json:"row_count"`
			Error    *wire.Error `json:"error"`
		}
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.UseNumber()
		if err := dec.Decode(&frame); err != nil {
			return 0, err
		}
		switch {
		case frame.Error != nil:
			return 0, frame.Error
		case frame.Rows != nil:
			if ttfr == 0 {
				ttfr = time.Since(due)
			}
			if err := tally.add(frame.Rows); err != nil {
				return 0, errWrong{err}
			}
		case frame.RowCount != nil:
			trailer = true
			if *frame.RowCount != tally.rows {
				return 0, errWrong{fmt.Errorf("stream trailer counts %d rows, %d arrived", *frame.RowCount, tally.rows)}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if !trailer {
		return 0, errors.New("stream ended without a trailer")
	}
	if err := w.orc.checkStream(src, tally); err != nil {
		return 0, errWrong{err}
	}
	return ttfr, nil
}

// checkFinal verifies that every acknowledged write is visible.
func (w *served) checkFinal(ctx context.Context) error {
	body, err := json.Marshal(wire.QueryRequest{Graph: servedGraph, SQL: countSQL})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/query", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var qr wire.QueryResponse
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	if err := dec.Decode(&qr); err != nil {
		return err
	}
	if qr.Error != nil || len(qr.Rows) != 1 || len(qr.Rows[0]) != 1 {
		return fmt.Errorf("count query failed: %+v", qr)
	}
	n, err := toInt(qr.Rows[0][0])
	if err != nil {
		return err
	}
	if want := int64(w.data.edges + w.acked()); n != want {
		return fmt.Errorf("friends has %d rows, expected %d", n, want)
	}
	return nil
}

// scrape reads gsqld's /metrics into series → value.
func (w *served) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

var serverStages = []string{"cache", "admission", "plan", "execute", "encode"}

// serverMetrics derives the server layer's metrics from two /metrics
// scrapes around the traced phase.
func serverMetrics(before, after map[string]float64, writes int) []metric {
	d := func(k string) float64 { return after[k] - before[k] }
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var out []metric
	for _, s := range serverStages {
		n := d(`gsqld_query_stage_seconds_count{stage="` + s + `"}`)
		sum := d(`gsqld_query_stage_seconds_sum{stage="` + s + `"}`)
		out = append(out, metric{"server.stage_" + s + "_us", frac(sum*1e6, n), "us", int(n)})
	}
	hits, misses := d("gsqld_cache_hits_total"), d("gsqld_cache_misses_total")
	phits, pmiss := d("gsqld_plan_cache_hits_total"), d("gsqld_plan_cache_misses_total")
	admitted := d("gsqld_admission_admitted_total")
	return append(out,
		metric{"server.cache_hit_ratio", frac(hits, hits+misses), "ratio", int(hits + misses)},
		metric{"server.plan_cache_hit_ratio", frac(phits, phits+pmiss), "ratio", int(phits + pmiss)},
		metric{"server.cache_invalidated_per_write", frac(d("gsqld_cache_invalidated_entries_total"), float64(writes)), "count", writes},
		metric{"server.admission_queued_frac", frac(d("gsqld_admission_queued_total"), admitted), "frac", int(admitted)},
	)
}

// zeroServerMetrics stands in for the server and client layers on the
// embedded workloads, where those layers do no work.
func zeroServerMetrics() []metric {
	out := serverMetrics(nil, nil, 0)
	return append(out, metric{"client.lag_max_ms", 0, "ms", 0})
}

// overhead reports the traced phase's end-to-end figures against the
// untraced phase's of the same run, as fractions (positive = slower).
func overhead(plain, traced *phase) []metric {
	p, t := plain.endToEnd(nil), traced.endToEnd(nil)
	return []metric{
		{"trace.overhead_p50_frac", t[2].value/p[2].value - 1, "frac", t[2].n},
		{"trace.overhead_ops_per_s_frac", p[1].value/t[1].value - 1, "frac", t[1].n},
	}
}
