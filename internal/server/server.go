// Package server turns the embedded graphsql engine into a
// long-running, concurrency-safe query service: an HTTP/JSON API over
// a named multi-graph registry with copy-on-swap reloads, per-session
// state (SET settings, a prepared parse+plan cache, and wire-level
// prepared statements), an admission-control scheduler that divides the
// machine's worker budget across concurrent queries, a result-set cache
// that serves repeated SELECTs without touching the engine, chunked
// streaming for large results, and Prometheus-format metrics.
//
// Endpoints:
//
//	POST /query               run one statement (wire.QueryRequest);
//	                          "stream":true selects the chunked NDJSON
//	                          encoding of wire/stream.go
//	POST /prepare             register a statement in a session
//	                          (wire.PrepareRequest)
//	POST /execute             run a registered statement by id
//	                          (wire.ExecuteRequest)
//	POST /graphs/{name}/load  build+swap a named graph (wire.LoadRequest)
//	GET  /healthz             liveness probe
//	GET  /stats               counters, admission, cache and registry
//	                          state as JSON
//	GET  /queries             in-flight queries: id, fingerprint, live
//	                          stage, elapsed, granted workers
//	GET  /metrics             Prometheus text-format exposition
//
// Observability: "trace":true on /query or /execute returns the span
// tree of internal/trace in the response (buffered body or stream
// trailer); every query emits a structured slog line with per-stage
// durations (Config.SlowQueryMillis selects the WARN threshold); and
// /metrics carries per-stage latency histograms
// (gsqld_query_stage_seconds).
//
// Concurrency model: SELECTs over one graph run concurrently (the
// facade's read lock), writers serialize, and a reload never blocks
// readers — it builds the replacement database off to the side and
// swaps an atomic pointer. Admission bounds the blast radius of
// expensive queries: at most MaxInFlight queries run at once with a
// per-query worker cap, QueueDepth more wait FIFO, and anything beyond
// that is rejected immediately with queue_full so overload degrades
// predictably instead of collapsing.
//
// Result cache: SELECT results are cached keyed by (graph, registry
// generation, engine data version, statement, bound args) — see
// ResultCache — and a hit is served from memory without consuming an
// admission slot. Reloads and write statements can never leak a stale
// entry to a later reader: both bump a component of the key.
//
// Cancellation: a client disconnect (or timeout) cancels the request
// context, which aborts the query at the nearest operator boundary,
// source-group boundary, in-traversal poll, or graph-construction chunk
// boundary — a disconnected client frees its worker grant within
// milliseconds rather than pinning it until the query finishes. A
// request canceled while waiting in the admission queue leaves the
// queue without ever consuming an in-flight slot or a worker grant; a
// streaming response canceled mid-flight ends with an error trailer
// frame.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graphsql"
	"graphsql/internal/fault"
	"graphsql/internal/sql/fingerprint"
	"graphsql/internal/trace"
	"graphsql/internal/wire"
)

// Config tunes a Server. Zero values pick sensible defaults.
type Config struct {
	// DefaultGraph names the graph served when requests omit one;
	// defaults to "default". The graph is created empty at startup.
	DefaultGraph string
	// Parallelism is the engine worker budget of loaded graphs
	// (0 = one worker per CPU).
	Parallelism int
	// MaxInFlight bounds concurrently executing queries; defaults to
	// GOMAXPROCS.
	MaxInFlight int
	// QueueDepth bounds queries waiting for admission: 0 defaults to
	// 4 × MaxInFlight, negative disables queueing (immediate rejection
	// once MaxInFlight is reached).
	QueueDepth int
	// TotalWorkers is the worker budget admission divides across
	// queries; defaults to GOMAXPROCS.
	TotalWorkers int
	// PerQueryWorkers caps one query's grant; defaults to TotalWorkers.
	PerQueryWorkers int
	// QueryTimeout bounds each query's execution; 0 means no limit.
	QueryTimeout time.Duration
	// QueueWait bounds how long a query may wait in the admission queue
	// before the server gives up on it with queue_timeout (503 +
	// Retry-After). Distinct from QueryTimeout, which bounds execution:
	// under overload the queue-wait deadline sheds load that has not
	// consumed anything yet — and such a rejection is always safe to
	// retry. 0 disables the deadline (queued queries wait until the
	// client gives up).
	QueueWait time.Duration
	// MaxSessions bounds the session table; the least-recently-used
	// session is evicted beyond it. Defaults to 1024.
	MaxSessions int
	// CacheEntries bounds the result cache's entry count: 0 defaults to
	// 512, negative disables the cache entirely.
	CacheEntries int
	// CacheBytes bounds the result cache's (approximate) memory;
	// 0 defaults to 64 MiB.
	CacheBytes int64
	// Logger receives the structured query log and panic reports;
	// defaults to slog.Default(). Every completed query logs at DEBUG
	// ("query"); queries at or over the slow threshold log at WARN
	// ("slow query").
	Logger *slog.Logger
	// SlowQueryMillis is the slow-query log threshold in milliseconds:
	// positive logs queries at/over it at WARN, zero disables the
	// slow-query log, negative logs every query (smoke tests).
	SlowQueryMillis int
}

func (c *Config) defaults() {
	if c.DefaultGraph == "" {
		c.DefaultGraph = "default"
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = 4 * c.MaxInFlight
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	}
	if c.TotalWorkers <= 0 {
		c.TotalWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
}

// Server is the HTTP query service. Create with New, serve its
// Handler.
type Server struct {
	cfg         Config
	reg         *Registry
	adm         *Admission
	cache       *ResultCache // nil when disabled
	httpMetrics *httpMetrics
	stageHist   *stageMetrics
	inflight    *inflightTable
	logger      *slog.Logger
	mux         *http.ServeMux

	// queryID numbers queries for the query log and GET /queries.
	queryID atomic.Uint64

	sessMu   sync.Mutex
	sessions map[string]*serverSession
	sessTick uint64 // LRU clock

	// counters
	queries  atomic.Uint64
	errors   atomic.Uint64
	canceled atomic.Uint64
	loads    atomic.Uint64
	// panics counts contained query panics (gsqld_panics_total);
	// lastPanic is the UnixNano of the most recent one (0 = never),
	// which /healthz folds into its degraded signal.
	panics    atomic.Uint64
	lastPanic atomic.Int64
	started   time.Time
}

// serverSession is one client session: per-graph facade sessions so
// SET settings and prepared plans survive across requests, plus the
// statements registered via POST /prepare. A reload swaps the graph's
// database; the stale binding is detected by pointer comparison and
// replaced (settings reset with the new generation).
type serverSession struct {
	mu       sync.Mutex
	byGraph  map[string]*boundSession
	stmts    map[string]preparedStmt
	nextStmt int
	lastUse  uint64
}

type boundSession struct {
	db   *graphsql.DB
	sess *graphsql.Session
}

// preparedStmt is a wire-level prepared statement: the id resolves to
// the statement text, which the facade session's plan cache then maps
// to a parsed+bound plan (so /execute skips parse, bind and rewrite).
type preparedStmt struct {
	graph string
	sql   string
}

// maxSessionStmts bounds one session's statement registry; past it the
// registry is dropped wholesale — mirroring the facade plan cache —
// and stale ids answer /execute with unknown-statement, prompting the
// client to re-prepare. A client replaying a bounded statement set
// never hits this; it exists so one session cannot grow server memory
// without bound via /prepare.
const maxSessionStmts = 256

// registerStmt assigns the next statement id of the session.
func (ss *serverSession) registerStmt(graph, sql string) string {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.stmts == nil || len(ss.stmts) >= maxSessionStmts {
		ss.stmts = make(map[string]preparedStmt)
	}
	ss.nextStmt++
	id := "stmt-" + strconv.Itoa(ss.nextStmt)
	ss.stmts[id] = preparedStmt{graph: graph, sql: sql}
	return id
}

// stmt resolves a registered statement id.
func (ss *serverSession) stmt(id string) (preparedStmt, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	st, ok := ss.stmts[id]
	return st, ok
}

// New builds a server and registers its default (empty) graph.
func New(cfg Config) (*Server, error) {
	cfg.defaults()
	lg := cfg.Logger
	if lg == nil {
		lg = slog.Default()
	}
	s := &Server{
		cfg:         cfg,
		reg:         NewRegistry(cfg.Parallelism),
		adm:         NewAdmission(cfg.MaxInFlight, cfg.QueueDepth, cfg.TotalWorkers, cfg.PerQueryWorkers),
		httpMetrics: newHTTPMetrics(),
		stageHist:   newStageMetrics(),
		inflight:    newInflightTable(),
		logger:      lg,
		sessions:    make(map[string]*serverSession),
		started:     time.Now(),
	}
	if cfg.CacheEntries > 0 {
		s.cache = NewResultCache(cfg.CacheEntries, cfg.CacheBytes)
	}
	s.reg.swap(cfg.DefaultGraph, graphsql.Open(graphsql.WithParallelism(cfg.Parallelism)))
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /stats", s.instrument("/stats", s.handleStats))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	mux.HandleFunc("GET /queries", s.instrument("/queries", s.handleQueries))
	mux.HandleFunc("POST /query", s.instrument("/query", s.handleQuery))
	mux.HandleFunc("POST /prepare", s.instrument("/prepare", s.handlePrepare))
	mux.HandleFunc("POST /execute", s.instrument("/execute", s.handleExecute))
	mux.HandleFunc("POST /graphs/{name}/load", s.instrument("/graphs/load", s.handleLoad))
	s.mux = mux
	return s, nil
}

// Registry exposes the graph registry (startup preloading, tests).
func (s *Server) Registry() *Registry { return s.reg }

// Admission exposes the scheduler (tests, instrumentation).
func (s *Server) Admission() *Admission { return s.adm }

// Cache exposes the result cache; nil when disabled.
func (s *Server) Cache() *ResultCache { return s.cache }

// Handler returns the root http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// HealthResponse is the GET /healthz payload. The probe always answers
// HTTP 200 while the process serves (liveness); Status degrades to
// "degraded" when the admission queue is at least half full or a panic
// was contained within the last minute, so dashboards and load
// balancers can drain a struggling instance before it starts shedding.
type HealthResponse struct {
	Status          string `json:"status"` // "ok" | "degraded"
	InFlight        int    `json:"in_flight"`
	Queued          int    `json:"queued"`
	QueueDepth      int    `json:"queue_depth"`
	PanicsRecovered uint64 `json:"panics_recovered"`
	// SecondsSinceLastPanic is omitted until the first contained panic.
	SecondsSinceLastPanic float64 `json:"seconds_since_last_panic,omitempty"`
}

// degradedPanicWindow is how long one contained panic keeps /healthz
// reporting degraded.
const degradedPanicWindow = time.Minute

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	adm := s.adm.Snapshot()
	resp := &HealthResponse{
		Status:          "ok",
		InFlight:        adm.InFlight,
		Queued:          adm.Queued,
		QueueDepth:      adm.QueueDepth,
		PanicsRecovered: s.panics.Load(),
	}
	if last := s.lastPanic.Load(); last != 0 {
		since := time.Since(time.Unix(0, last))
		resp.SecondsSinceLastPanic = since.Seconds()
		if since < degradedPanicWindow {
			resp.Status = "degraded"
		}
	}
	if adm.QueueDepth > 0 && 2*adm.Queued >= adm.QueueDepth {
		resp.Status = "degraded"
	}
	writeJSON(w, http.StatusOK, resp)
}

// recordPanic counts one contained panic and logs it with the
// panicking goroutine's stack — the only place the stack goes; wire
// responses carry just the panic value. qid/fp tag the query when the
// panic was caught inside a query path (the last-resort middleware
// recover passes zero values: it no longer knows which query it was).
// ctx is the request's context, threaded through for handler-aware
// loggers; it may already be canceled by the time a panic is recorded.
func (s *Server) recordPanic(ctx context.Context, v any, stack []byte, qid uint64, fp string) {
	s.panics.Add(1)
	s.lastPanic.Store(time.Now().UnixNano())
	s.logger.LogAttrs(ctx, slog.LevelError, "contained query panic",
		slog.Uint64("query_id", qid),
		slog.String("fingerprint", fp),
		slog.Any("panic", v),
		slog.String("stack", string(stack)))
}

// session resolves (or creates) the named session, updating its LRU
// stamp and evicting the oldest session beyond the cap.
func (s *Server) session(id string) *serverSession {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	s.sessTick++
	sess, ok := s.sessions[id]
	if !ok {
		if len(s.sessions) >= s.cfg.MaxSessions {
			var oldestID string
			var oldest uint64 = ^uint64(0)
			for k, v := range s.sessions {
				if v.lastUse < oldest {
					oldest, oldestID = v.lastUse, k
				}
			}
			delete(s.sessions, oldestID)
		}
		sess = &serverSession{byGraph: make(map[string]*boundSession)}
		s.sessions[id] = sess
	}
	sess.lastUse = s.sessTick
	return sess
}

// bind resolves the facade session of (session, graph), re-binding when
// the graph's database was swapped by a reload.
func (ss *serverSession) bind(graph string, db *graphsql.DB) *graphsql.Session {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	b := ss.byGraph[graph]
	if b == nil || b.db != db {
		b = &boundSession{db: db, sess: db.Session()}
		ss.byGraph[graph] = b
	}
	return b.sess
}

// writeJSON marshals a wire payload with the proper status code.
func writeJSON(w http.ResponseWriter, status int, payload any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.Marshal(payload)
	if err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"encoding failed"}}`, http.StatusInternalServerError)
		return
	}
	w.Write(data)
}

// errorStatus maps wire error codes onto HTTP statuses.
func errorStatus(code string) int {
	switch code {
	case wire.CodeQueueFull, wire.CodeQueueTimeout:
		return http.StatusServiceUnavailable
	case wire.CodeUnknownGraph:
		return http.StatusNotFound
	case wire.CodeCanceled:
		return 499 // client closed request (nginx convention)
	case wire.CodeTimeout:
		return http.StatusGatewayTimeout
	case wire.CodeInvalidRequest:
		return http.StatusBadRequest
	case wire.CodeInternal, wire.CodePanic:
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}

func (s *Server) failQuery(w http.ResponseWriter, code string, err error) {
	s.errors.Add(1)
	if code == wire.CodeCanceled || code == wire.CodeTimeout {
		s.canceled.Add(1)
	}
	writeJSON(w, errorStatus(code), wire.FromError(code, err))
}

// failExec classifies an execution error: contained panic beats
// timeout beats cancellation beats plain SQL error. (A panic racing a
// timeout reports the panic — the more actionable signal.) An injected
// fault reports internal, not sql_error: the statement was fine, the
// server hiccuped.
// It returns the wire code it chose, which the query log records as
// the outcome.
func (s *Server) failExec(w http.ResponseWriter, ctx context.Context, timedOut func() bool, err error, qid uint64, fp string) string {
	var qp *graphsql.QueryPanicError
	var inj *fault.InjectedError
	code := wire.CodeSQL
	switch {
	case errors.As(err, &qp):
		s.recordPanic(ctx, qp.Value, qp.Stack, qid, fp)
		code = wire.CodePanic
	case errors.As(err, &inj):
		code = wire.CodeInternal
	case timedOut():
		code = wire.CodeTimeout
	case ctx.Err() != nil:
		code = wire.CodeCanceled
	}
	s.failQuery(w, code, err)
	return code
}

// retryAfterHeader stamps the Retry-After hint on a load-shedding
// response (queue_full / queue_timeout), in the whole seconds the
// header grammar requires, rounded up so clients never return early.
func (s *Server) retryAfterHeader(w http.ResponseWriter) {
	secs := int(math.Ceil(s.adm.RetryAfter().Seconds()))
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// querySpec is one statement execution, shared by POST /query and
// POST /execute.
type querySpec struct {
	graph         string
	session       string
	sql           string
	args          []any
	workers       int
	timeoutMillis int
	stream        bool
	batchRows     int
	trace         bool
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		s.failQuery(w, wire.CodeInvalidRequest, err)
		return
	}
	req, err := wire.DecodeRequest(body)
	if err != nil {
		s.failQuery(w, wire.CodeInvalidRequest, err)
		return
	}
	if req.SQL == "" {
		s.failQuery(w, wire.CodeInvalidRequest, errors.New("missing sql"))
		return
	}
	s.runQuery(w, r, querySpec{
		graph: req.Graph, session: req.Session, sql: req.SQL, args: req.Args,
		workers: req.Workers, timeoutMillis: req.TimeoutMillis,
		stream: req.Stream, batchRows: req.BatchRows, trace: req.Trace,
	})
}

// runQuery executes one statement: result-cache lookup, admission,
// execution through the session facade, and the buffered or streamed
// response encoding.
func (s *Server) runQuery(w http.ResponseWriter, r *http.Request, q querySpec) {
	graphName := q.graph
	if graphName == "" {
		graphName = s.cfg.DefaultGraph
	}
	db, gen, ok := s.reg.Resolve(graphName)
	if !ok {
		s.failQuery(w, wire.CodeUnknownGraph, fmt.Errorf("graph %q is not loaded", graphName))
		return
	}

	batch := q.batchRows
	if batch <= 0 {
		batch = wire.DefaultBatchRows
	}
	if batch > wire.MaxBatchRows {
		batch = wire.MaxBatchRows
	}

	// Resolve the server session up front (not lazily at execution):
	// a client whose requests keep hitting the result cache is still
	// active, and must keep its LRU stamp fresh or eviction would
	// retire its prepared statements and SET settings mid-use.
	var ssess *serverSession
	if q.session != "" {
		ssess = s.session(q.session)
	}

	// Every query records a trace: its root-level spans (cache,
	// admission, plan, execute, encode) feed the per-stage latency
	// histograms and the query log, its open span names GET /queries'
	// "stage" column, and — when the request set "trace": true — its
	// tree rides back in the response. The fingerprint identifies the
	// statement shape in the log, the in-flight listing and the result
	// cache key without quoting literal values.
	qid := s.queryID.Add(1)
	tr := trace.New()
	norm := fingerprint.Normalize(q.sql)
	fp := q.sql
	if norm.Changed() {
		fp = norm.SQL
	}
	start := time.Now()
	outcome := "ok"
	rowsOut := -1
	defer func() {
		s.finishQuery(r.Context(), qid, graphName, fp, tr, start, outcome, rowsOut)
	}()

	// Result-cache lookup. The generation and data version are read
	// BEFORE execution: a write racing this request can at worst make
	// us store a fresher result under the older key — a key no future
	// request computes again — never serve an older result under a
	// fresher key. A hit consumes no admission slot: it is memory out.
	//
	// The statement half of the key is fingerprint-normalized: literals
	// rewrite to placeholders and their values fold into the typed
	// argument list, so `... WHERE id = 7` and `... WHERE id = ?` with
	// arg 7 compute the same key (while `id = 8` stays distinct — the
	// argument list is part of the key). When normalization declines the
	// statement — or the argument count does not match its placeholders —
	// the raw text keys the entry, which is always correct, just less
	// shared.
	var key string
	if s.cache != nil && cacheableSQL(q.sql) {
		keySQL, keyArgs := q.sql, q.args
		if norm.Changed() {
			if merged, ok := norm.MergeAny(q.args); ok {
				keySQL, keyArgs = norm.SQL, merged
			}
		}
		key = cacheKey(graphName, gen, db.DataVersion(), keySQL, keyArgs)
		if key != "" {
			spCache := tr.Begin(trace.NoSpan, "cache")
			res, hit := s.cache.Get(key)
			tr.End(spCache)
			tr.SetResultCacheHit(hit)
			if hit {
				s.queries.Add(1)
				rowsOut = len(res.Rows)
				if q.stream {
					var ttr *trace.Trace
					if q.trace {
						ttr = tr
					}
					s.streamResult(w, res, batch, ttr)
					return
				}
				// The wire encoding is deterministic, so re-encoding the
				// stored result reproduces the first response byte for
				// byte — the cache holds one representation, not two.
				// (A trace, when requested, is per-request by nature and
				// rides outside that equivalence.)
				resp := wire.FromResult(res)
				if q.trace {
					resp.Trace = tr.Tree()
				}
				data, err := resp.Encode()
				if err != nil {
					outcome = wire.CodeInternal
					s.failQuery(w, wire.CodeInternal, err)
					return
				}
				w.Header().Set("Content-Type", "application/json")
				w.Write(data)
				return
			}
		}
	}

	// The request context is canceled when the client disconnects; the
	// timeout (request-level, else server default) stacks on top.
	ctx := r.Context()
	timeout := s.cfg.QueryTimeout
	if q.timeoutMillis > 0 {
		timeout = time.Duration(q.timeoutMillis) * time.Millisecond
	}
	var timedOut func() bool = func() bool { return false }
	if timeout > 0 {
		tctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		timedOut = func() bool { return tctx.Err() == context.DeadlineExceeded }
		ctx = tctx
	}

	// Resolve the facade session (one-shot sessions are throwaway) and
	// its worker request for admission.
	var fsess *graphsql.Session
	if ssess != nil {
		fsess = ssess.bind(graphName, db)
	} else {
		fsess = db.Session()
	}
	want := q.workers
	if want <= 0 {
		if sp := fsess.Parallelism(); sp > 0 {
			want = sp
		} else if sp == 0 {
			want = s.adm.PerQueryCap() // SET parallelism = 0: one per CPU
		}
	}

	// The queue-wait deadline (when configured) bounds only Acquire —
	// time spent waiting for an execution slot — never execution itself;
	// that is QueryTimeout's job.
	acqCtx := ctx
	if s.cfg.QueueWait > 0 {
		var acqCancel context.CancelFunc
		acqCtx, acqCancel = context.WithTimeout(ctx, s.cfg.QueueWait)
		defer acqCancel()
	}
	// Registered before Acquire so queued queries are already visible
	// in GET /queries (their stage reads "admission").
	inq := s.inflight.add(qid, graphName, fp, tr)
	defer s.inflight.remove(qid)
	spAdm := tr.Begin(trace.NoSpan, "admission")
	grant, err := s.adm.Acquire(acqCtx, want)
	tr.End(spAdm)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			outcome = wire.CodeQueueFull
			s.retryAfterHeader(w)
			s.failQuery(w, wire.CodeQueueFull, err)
		case timedOut():
			outcome = wire.CodeTimeout
			s.failQuery(w, wire.CodeTimeout, err)
		case ctx.Err() == nil:
			// Only the queue-wait deadline expired: the client is still
			// connected and nothing has executed, so a retry (after the
			// hint) is always safe.
			outcome = wire.CodeQueueTimeout
			s.retryAfterHeader(w)
			s.failQuery(w, wire.CodeQueueTimeout,
				fmt.Errorf("queued longer than the queue-wait deadline (%s)", s.cfg.QueueWait))
		default:
			outcome = wire.CodeCanceled
			s.failQuery(w, wire.CodeCanceled, err)
		}
		return
	}
	inq.workers.Store(int32(grant.Workers))
	// The grant goes back exactly once no matter how this request ends —
	// including a panic unwinding to the middleware recover, which this
	// deferred release runs before. The streaming path holds it through
	// the drain: under the pull executor the engine does its work while
	// the stream is being written, so the slot stays occupied until the
	// trailer (or the failure) — a streaming query is in flight for
	// exactly as long as it is executing.
	defer grant.Release()

	s.queries.Add(1)
	opts := graphsql.QueryOptions{Workers: grant.Workers, Trace: tr}
	if q.stream {
		// The requested frame size also drives the pull executor's
		// operator batches, so a small-batch stream starts flowing after
		// the first few rows are computed instead of after the first
		// 1024.
		opts.BatchRows = batch
		rows, qerr := fsess.QueryRows(ctx, opts, q.sql, q.args...)
		// A write issued with stream:true executed to completion inside
		// QueryRows (writes still materialize under the write lock), so
		// its cache purge happens before anything streams out.
		if s.cache != nil && invalidatingSQL(q.sql) {
			s.cache.InvalidateGraph(graphName)
		}
		if qerr != nil {
			outcome = s.failExec(w, ctx, timedOut, qerr, qid, fp)
			return
		}
		// The cursor owns a live operator tree; release it even when the
		// stream is torn before exhaustion (client gone mid-stream).
		defer rows.Close()
		// A streaming miss feeds the cache too: the batches are
		// accumulated as they go out (bounded by the admission budget, so
		// a result too big to cache stops buffering instead of doubling
		// its memory) and admitted only when the stream completes with a
		// trailer — a torn stream caches nothing.
		var collect *streamCollector
		if key != "" {
			collect = &streamCollector{budget: s.cache.AdmissionBudget()}
		}
		var ttr *trace.Trace
		if q.trace {
			ttr = tr
		}
		failCode, sent := s.streamRows(w, ctx, timedOut, rows, batch, collect, ttr, qid, fp)
		rowsOut = sent
		if failCode != "" {
			outcome = failCode
		} else if collect != nil && !collect.overflow {
			s.cache.Put(key, graphName, &graphsql.Result{Columns: rows.Columns, Rows: collect.rows})
		}
		return
	}
	// Writes purge the graph's cached results once they finish — the
	// data-version key already guarantees no stale hit, the purge just
	// releases the memory eagerly.
	if s.cache != nil && invalidatingSQL(q.sql) {
		defer s.cache.InvalidateGraph(graphName)
	}
	res, err := fsess.QueryOpts(ctx, opts, q.sql, q.args...)
	if err != nil {
		outcome = s.failExec(w, ctx, timedOut, err, qid, fp)
		return
	}
	rowsOut = len(res.Rows)
	resp := wire.FromResult(res)
	if q.trace {
		// Snapshotted before the encode span opens: the tree cannot
		// describe the encoding it is itself part of.
		resp.Trace = tr.Tree()
	}
	spEnc := tr.Begin(trace.NoSpan, "encode")
	data, err := resp.Encode()
	tr.End(spEnc)
	if err != nil {
		outcome = wire.CodeInternal
		s.failQuery(w, wire.CodeInternal, err)
		return
	}
	if key != "" {
		s.cache.Put(key, graphName, res)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// finishQuery closes out one query's observability: stage histograms
// and the structured query log. Runs deferred from runQuery on every
// completion path.
func (s *Server) finishQuery(ctx context.Context, qid uint64, graph, fp string, tr *trace.Trace, start time.Time, outcome string, rowsOut int) {
	elapsed := time.Since(start)
	stages := tr.Stages()
	for _, st := range stages {
		s.stageHist.observe(st.Name, st.Dur.Seconds())
	}
	lvl, msg := slog.LevelDebug, "query"
	if ms := s.cfg.SlowQueryMillis; ms != 0 && (ms < 0 || elapsed >= time.Duration(ms)*time.Millisecond) {
		lvl, msg = slog.LevelWarn, "slow query"
	}
	if !s.logger.Enabled(ctx, lvl) {
		return
	}
	attrs := make([]slog.Attr, 0, 8+len(stages))
	attrs = append(attrs,
		slog.Uint64("query_id", qid),
		slog.String("graph", graph),
		slog.String("fingerprint", fp),
		slog.String("outcome", outcome),
		slog.Duration("elapsed", elapsed))
	if rowsOut >= 0 {
		attrs = append(attrs, slog.Int("rows", rowsOut))
	}
	if hit, seen := tr.ResultCacheHit(); seen {
		attrs = append(attrs, slog.Bool("cache_hit", hit))
	}
	if hit, known := tr.PlanCacheHit(); known {
		attrs = append(attrs, slog.Bool("plan_cache_hit", hit))
	}
	for _, st := range stages {
		attrs = append(attrs, slog.Duration("stage_"+st.Name, st.Dur))
	}
	s.logger.LogAttrs(ctx, lvl, msg, attrs...)
}

// streamCollector accumulates the batches of a streaming cache miss so
// the full result can be admitted once the stream completes. The byte
// estimate uses the same accounting as resultFootprint; crossing the
// budget sets overflow and drops what was gathered — the stream itself
// is unaffected.
type streamCollector struct {
	budget   int64
	bytes    int64
	rows     [][]any
	overflow bool
}

// add retains one outgoing batch. NextBatch allocates fresh row slices
// per call, so retaining them aliases nothing the cursor will reuse.
func (c *streamCollector) add(b [][]any) {
	if c.overflow {
		return
	}
	for _, row := range b {
		c.bytes += 24 + int64(len(row))*24
		for _, cell := range row {
			c.bytes += cellPayload(cell)
		}
	}
	if c.bytes > c.budget {
		c.overflow = true
		c.rows = nil
		return
	}
	c.rows = append(c.rows, b...)
}

// streamRows writes a chunked response from a live row-batch cursor.
// Under the pull executor the cursor *is* the execution: each NextBatch
// runs the operator tree far enough to fill one batch, so the first
// frame reaches the client while the query is still running and the
// full response never exists server-side (except in collect, when the
// cache wants the result and it fits the admission budget). Any
// failure between batches — cancellation, a contained panic, an
// injected fault, a runtime execution error — ends the stream with an
// error trailer; so does a server-side encoding failure or a panic
// (recovered locally — the header is already on the wire, so the
// middleware could not answer 500; a stream is only ever torn by its
// error trailer, never silently). It reports the wire code the stream failed with ("" for a
// clean trailer — only then may the collected result be cached; a
// recovered panic reports CodePanic like every other failure) and the
// rows delivered. ttr, when non-nil, is the query's trace, whose tree
// the success trailer carries ("trace": true requests).
func (s *Server) streamRows(w http.ResponseWriter, ctx context.Context, timedOut func() bool, rows *graphsql.Rows, batch int, collect *streamCollector, ttr *trace.Trace, qid uint64, fp string) (failCode string, sent int) {
	w.Header().Set("Content-Type", wire.StreamContentType)
	sw := wire.NewStreamWriter(w)
	// abandon counts a stream the client will never finish reading —
	// whether the disconnect surfaced as a context cancellation between
	// batches or as a write error on the dead connection — so streamed
	// disconnects move the same abandoned/error counters buffered ones
	// do.
	abandon := func(code string) {
		s.errors.Add(1)
		s.canceled.Add(1)
		failCode = code
	}
	defer func() {
		if rv := recover(); rv != nil {
			s.recordPanic(ctx, rv, debug.Stack(), qid, fp)
			s.errors.Add(1)
			failCode = wire.CodePanic
			sent = sw.RowsSent()
			sw.Fail(wire.CodePanic, fmt.Errorf("query panicked: %v", rv))
		}
	}()
	if err := sw.Header(rows.Columns); err != nil {
		abandon(wire.CodeCanceled) // client gone before the first frame
		return failCode, 0
	}
	for {
		b, err := rows.NextBatch(batch)
		if err != nil {
			// Under the pull executor the query is still executing while
			// it streams, so any execution failure — a contained panic,
			// an injected fault, a runtime error — can surface between
			// batches, not just cancellation. Classify like failExec; the
			// header is already on the wire, so the error travels as a
			// structured trailer.
			var qp *graphsql.QueryPanicError
			var inj *fault.InjectedError
			code := wire.CodeSQL
			switch {
			case errors.As(err, &qp):
				s.recordPanic(ctx, qp.Value, qp.Stack, qid, fp)
				code = wire.CodePanic
			case errors.As(err, &inj):
				code = wire.CodeInternal
			case timedOut():
				code = wire.CodeTimeout
			case ctx.Err() != nil:
				code = wire.CodeCanceled
			}
			if code == wire.CodeTimeout || code == wire.CodeCanceled {
				abandon(code)
			} else {
				s.errors.Add(1)
				failCode = code
			}
			sw.Fail(code, err)
			return failCode, sw.RowsSent()
		}
		if b == nil {
			break
		}
		if collect != nil {
			collect.add(b)
		}
		if err := sw.Batch(b); err != nil {
			// A server-side encoder failure (e.g. an injected stream
			// fault) is not a disconnect: the connection still works, so
			// the client gets a structured error trailer. Only a write
			// error on a dead connection stays a silent abandon.
			var inj *fault.InjectedError
			if errors.As(err, &inj) {
				s.errors.Add(1)
				failCode = wire.CodeInternal
				sw.Fail(wire.CodeInternal, err)
				return failCode, sw.RowsSent()
			}
			abandon(wire.CodeCanceled) // client gone mid-stream; nothing left to tell it
			return failCode, sw.RowsSent()
		}
	}
	sw.Trailer(ttr.Tree())
	return "", sw.RowsSent()
}

// streamResult streams an already-materialized (cached) result in the
// same chunked encoding a live cursor produces. A disconnect counts
// exactly like one on the live-cursor path, so abandoned-stream
// metrics don't depend on whether the cache was warm.
func (s *Server) streamResult(w http.ResponseWriter, res *graphsql.Result, batch int, ttr *trace.Trace) {
	w.Header().Set("Content-Type", wire.StreamContentType)
	sw := wire.NewStreamWriter(w)
	abandon := func() {
		s.errors.Add(1)
		s.canceled.Add(1)
	}
	if err := sw.Header(res.Columns); err != nil {
		abandon()
		return
	}
	for lo := 0; lo < len(res.Rows); lo += batch {
		hi := lo + batch
		if hi > len(res.Rows) {
			hi = len(res.Rows)
		}
		if err := sw.Batch(res.Rows[lo:hi]); err != nil {
			// Same classification as the live-cursor path: encoder
			// faults end with a structured trailer, dead connections
			// abandon silently.
			var inj *fault.InjectedError
			if errors.As(err, &inj) {
				s.errors.Add(1)
				sw.Fail(wire.CodeInternal, err)
				return
			}
			abandon()
			return
		}
	}
	sw.Trailer(ttr.Tree())
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	fail := func(status int, code string, err error) {
		s.errors.Add(1)
		writeJSON(w, status, &wire.PrepareResponse{Error: &wire.Error{Code: code, Message: err.Error()}})
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		fail(http.StatusBadRequest, wire.CodeInvalidRequest, err)
		return
	}
	req, err := wire.DecodePrepareRequest(body)
	if err != nil {
		fail(http.StatusBadRequest, wire.CodeInvalidRequest, err)
		return
	}
	if req.SQL == "" {
		fail(http.StatusBadRequest, wire.CodeInvalidRequest, errors.New("missing sql"))
		return
	}
	if req.Session == "" {
		fail(http.StatusBadRequest, wire.CodeInvalidRequest, errors.New("prepare requires a session"))
		return
	}
	graphName := req.Graph
	if graphName == "" {
		graphName = s.cfg.DefaultGraph
	}
	db, _, ok := s.reg.Resolve(graphName)
	if !ok {
		fail(http.StatusNotFound, wire.CodeUnknownGraph, fmt.Errorf("graph %q is not loaded", graphName))
		return
	}
	ss := s.session(req.Session)
	info, err := ss.bind(graphName, db).Prepare(req.SQL, req.Args...)
	if err != nil {
		fail(http.StatusUnprocessableEntity, wire.CodeSQL, err)
		return
	}
	id := ss.registerStmt(graphName, req.SQL)
	writeJSON(w, http.StatusOK, &wire.PrepareResponse{StatementID: id, NumParams: info.NumParams})
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		s.failQuery(w, wire.CodeInvalidRequest, err)
		return
	}
	req, err := wire.DecodeExecuteRequest(body)
	if err != nil {
		s.failQuery(w, wire.CodeInvalidRequest, err)
		return
	}
	if req.Session == "" || req.StatementID == "" {
		s.failQuery(w, wire.CodeInvalidRequest, errors.New("execute requires session and statement_id"))
		return
	}
	st, ok := s.session(req.Session).stmt(req.StatementID)
	if !ok {
		s.failQuery(w, wire.CodeInvalidRequest,
			fmt.Errorf("unknown statement id %q (never prepared, or its session was evicted)", req.StatementID))
		return
	}
	s.runQuery(w, r, querySpec{
		graph: st.graph, session: req.Session, sql: st.sql, args: req.Args,
		workers: req.Workers, timeoutMillis: req.TimeoutMillis,
		stream: req.Stream, batchRows: req.BatchRows, trace: req.Trace,
	})
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(io.LimitReader(r.Body, 256<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, &wire.LoadResponse{Graph: name, Error: &wire.Error{Code: wire.CodeInvalidRequest, Message: err.Error()}})
		return
	}
	var req wire.LoadRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, &wire.LoadResponse{Graph: name, Error: &wire.Error{Code: wire.CodeInvalidRequest, Message: err.Error()}})
		return
	}
	// The request's context stops the load between statements when
	// the client goes away.
	gen, tables, err := s.reg.Load(r.Context(), name, req.Script, req.Indexes)
	if err != nil {
		s.errors.Add(1)
		writeJSON(w, http.StatusUnprocessableEntity, &wire.LoadResponse{Graph: name, Error: &wire.Error{Code: wire.CodeSQL, Message: err.Error()}})
		return
	}
	// The new generation can never hit the old entries (the key
	// changed); purging just frees their memory immediately.
	if s.cache != nil {
		s.cache.InvalidateGraph(name)
	}
	s.loads.Add(1)
	writeJSON(w, http.StatusOK, &wire.LoadResponse{Graph: name, Generation: gen, Tables: tables})
}

// StatsResponse is the GET /stats payload.
type StatsResponse struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Queries       uint64            `json:"queries"`
	Errors        uint64            `json:"errors"`
	Canceled      uint64            `json:"canceled"`
	Loads         uint64            `json:"loads"`
	Panics        uint64            `json:"panics_recovered"`
	Sessions      int               `json:"sessions"`
	Admission     AdmissionSnapshot `json:"admission"`
	Cache         *CacheSnapshot    `json:"cache,omitempty"`
	Graphs        []GraphInfo       `json:"graphs"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.sessMu.Lock()
	sessions := len(s.sessions)
	s.sessMu.Unlock()
	resp := &StatsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Queries:       s.queries.Load(),
		Errors:        s.errors.Load(),
		Canceled:      s.canceled.Load(),
		Loads:         s.loads.Load(),
		Panics:        s.panics.Load(),
		Sessions:      sessions,
		Admission:     s.adm.Snapshot(),
		Graphs:        s.reg.Info(),
	}
	if s.cache != nil {
		cs := s.cache.Snapshot()
		resp.Cache = &cs
	}
	writeJSON(w, http.StatusOK, resp)
}
