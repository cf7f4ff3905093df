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
// Responses: every statement's rows reach the client through one
// writer. A miss hands it the live cursor of the session's QueryRows
// (the query executes as the writer drains it); a hit hands it the
// cached result, sliced into the same batches. The writer emits one
// buffered QueryResponse body or NDJSON frames of batch_rows rows, so
// hits and misses share the error classification, the counters, the
// cache fill and the query log's outcome and row count. Request bodies
// are bounded: 16 MiB for query, prepare and execute, 256 MiB for a
// load; a larger body answers 413 request_too_large.
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
	case wire.CodeTooLarge:
		return http.StatusRequestEntityTooLarge
	case wire.CodeInternal, wire.CodePanic:
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}

// countFailure counts one failed request; a canceled or timed-out one
// also counts as abandoned.
func (s *Server) countFailure(code string) {
	s.errors.Add(1)
	if code == wire.CodeCanceled || code == wire.CodeTimeout {
		s.canceled.Add(1)
	}
}

func (s *Server) failQuery(w http.ResponseWriter, code string, err error) {
	s.countFailure(code)
	writeJSON(w, errorStatus(code), wire.FromError(code, err))
}

// errorCode maps a request's failure to its wire code: a contained
// panic (recorded with its stack) beats an injected fault (internal:
// the statement was fine, the server hiccuped), which beats the query
// deadline (timeout), which beats the client going away (canceled).
// Anything else is the caller's fallback — sql_error for an execution
// error, canceled for a failed response write. (A panic racing a
// timeout reports the panic, the more actionable signal.)
func (s *Server) errorCode(ctx context.Context, err error, fallback string, qid uint64, fp string) string {
	var qp *graphsql.QueryPanicError
	var inj *fault.InjectedError
	switch {
	case errors.As(err, &qp):
		s.recordPanic(ctx, qp.Value, qp.Stack, qid, fp)
		return wire.CodePanic
	case errors.As(err, &inj):
		return wire.CodeInternal
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		return wire.CodeTimeout
	case ctx.Err() != nil:
		return wire.CodeCanceled
	}
	return fallback
}

// failExec answers a failed execution with the code errorCode picks and
// returns that code, which the query log records as the outcome.
func (s *Server) failExec(w http.ResponseWriter, ctx context.Context, err error, qid uint64, fp string) string {
	code := s.errorCode(ctx, err, wire.CodeSQL, qid, fp)
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

// Request body limits: a statement request (query, prepare, execute)
// carries one statement and its arguments; a load carries a dataset
// script.
const (
	maxQueryBody = 16 << 20
	maxLoadBody  = 256 << 20
)

// readBody reads a request body of at most limit bytes. On failure it
// also returns the wire code to answer with: request_too_large past
// the limit (the rest of the body is never read), invalid_request for
// any other read error.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, string, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return nil, wire.CodeTooLarge, err
	case err != nil:
		return nil, wire.CodeInvalidRequest, err
	}
	return body, "", nil
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
	body, code, err := readBody(w, r, maxQueryBody)
	if err != nil {
		s.failQuery(w, code, err)
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
// execution through the session facade, and the response: one
// resultWriter whether the rows come from the cache or a live cursor,
// buffered or streamed.
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
	// Every path below sets the outcome; only a panic unwinding to the
	// middleware (which answers the 500) leaves this one.
	outcome := wire.CodePanic
	rowsOut := -1
	defer func() {
		s.finishQuery(r.Context(), qid, graphName, fp, tr, start, outcome, rowsOut)
	}()

	// The request context is canceled when the client disconnects; the
	// timeout (request-level, else server default) stacks on top.
	ctx := r.Context()
	timeout := s.cfg.QueryTimeout
	if q.timeoutMillis > 0 {
		timeout = time.Duration(q.timeoutMillis) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// One writer answers hits and misses alike; respond also records
	// what the query log reports.
	rw := &resultWriter{s: s, w: w, ctx: ctx, stream: q.stream, batch: batch, tr: tr, qid: qid, fp: fp}
	if q.trace {
		rw.tree = tr
	}
	respond := func(columns []string, src batchSource) {
		outcome, rowsOut = rw.write(columns, src)
		if outcome == "" {
			outcome = "ok"
		}
	}

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
	if s.cache != nil && cacheableSQL(q.sql) {
		keySQL, keyArgs := q.sql, q.args
		if norm.Changed() {
			if merged, ok := norm.MergeAny(q.args); ok {
				keySQL, keyArgs = norm.SQL, merged
			}
		}
		key := cacheKey(graphName, gen, db.DataVersion(), keySQL, keyArgs)
		if key != "" {
			spCache := tr.Begin(trace.NoSpan, "cache")
			res, hit := s.cache.Get(key)
			tr.End(spCache)
			tr.SetResultCacheHit(hit)
			if hit {
				// The wire encoding is deterministic, so re-encoding the
				// stored result reproduces the first response byte for
				// byte — the cache holds one representation, not two.
				s.queries.Add(1)
				replay := cachedRows(res.Rows)
				respond(res.Columns, &replay)
				return
			}
			rw.key, rw.graph = key, graphName // a complete result fills the entry
		}
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
		case ctx.Err() == nil:
			// Only the queue-wait deadline expired: the client is still
			// connected and nothing has executed, so a retry (after the
			// hint) is always safe.
			outcome = wire.CodeQueueTimeout
			s.retryAfterHeader(w)
			err = fmt.Errorf("queued longer than the queue-wait deadline (%s)", s.cfg.QueueWait)
		default:
			outcome = s.errorCode(ctx, err, wire.CodeCanceled, qid, fp)
		}
		s.failQuery(w, outcome, err)
		return
	}
	inq.workers.Store(int32(grant.Workers))
	// The grant goes back exactly once no matter how this request ends —
	// including a panic unwinding to the middleware recover, which this
	// deferred release runs before. It is held through the response:
	// under the pull executor the engine does its work while the result
	// is being written, so a query is in flight for exactly as long as
	// it is executing.
	defer grant.Release()

	s.queries.Add(1)
	opts := graphsql.QueryOptions{Workers: grant.Workers, Trace: tr}
	if q.stream {
		// The requested frame size also drives the pull executor's
		// operator batches, so a small-batch stream starts flowing after
		// the first few rows are computed instead of after the first
		// 1024.
		opts.BatchRows = batch
	}
	rows, err := fsess.QueryRows(ctx, opts, q.sql, q.args...)
	// A write executed to completion inside QueryRows (writes materialize
	// under the write lock), so its purge happens before any response
	// goes out. The data-version key already guarantees no stale hit;
	// the purge just releases the memory eagerly.
	if s.cache != nil && invalidatingSQL(q.sql) {
		s.cache.InvalidateGraph(graphName)
	}
	if err != nil {
		outcome = s.failExec(w, ctx, err, qid, fp)
		return
	}
	// The cursor owns a live operator tree; release it even when the
	// response is torn before exhaustion (client gone mid-stream).
	defer rows.Close()
	respond(rows.Columns, rows)
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

// batchSource is what resultWriter drains: a live *graphsql.Rows or a
// cached result.
type batchSource interface {
	NextBatch(maxRows int) ([][]any, error)
}

// cachedRows replays a cached result's rows in batches of the requested
// size (maxRows <= 0: all of them at once).
type cachedRows [][]any

func (c *cachedRows) NextBatch(maxRows int) ([][]any, error) {
	n := len(*c)
	if n == 0 {
		return nil, nil
	}
	if maxRows > 0 && maxRows < n {
		n = maxRows
	}
	b := (*c)[:n:n]
	*c = (*c)[n:]
	return b, nil
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

// resultWriter writes one query's result — the only response path for
// rows, whether they come from a live cursor or the result cache — as
// either one buffered QueryResponse body or a chunked NDJSON stream.
type resultWriter struct {
	s      *Server
	w      http.ResponseWriter
	ctx    context.Context
	stream bool
	batch  int          // rows per stream frame
	tr     *trace.Trace // the query's trace: the encode span lands here
	tree   *trace.Trace // the trace returned to the client; nil unless requested
	// key and graph name the cache entry a complete result fills; key
	// is empty when the result is not to be cached (a hit, a write).
	key, graph string
	qid        uint64
	fp         string
}

// write drains src into the response. Under the pull executor a live
// cursor *is* the execution: each batch runs the operator tree far
// enough to fill it, so a stream's first frame reaches the client while
// the query is still running. Every failure is classified by errorCode
// and counted once. Before a stream's header it answers a JSON error
// with the code's status; after it, it ends the stream with an error
// trailer — a stream is only ever torn by its trailer, never silently
// (a write error on a dead connection is the one trailer nobody
// reads). For the same reason a panic while streaming is recovered
// here: the header is already out, so the middleware could not answer
// 500. A buffered response's panic is left to the middleware.
//
// Once src is exhausted the result is complete and fills the cache
// (rw.key), before the terminal write — body or trailer — whose failure
// could no longer make it wrong. A buffered response holds the whole
// result anyway; a stream retains its batches only while they fit the
// cache's admission budget, so a result too big to cache stops
// buffering instead of doubling its memory. It returns the wire code
// the response failed with ("" on success) and the rows delivered.
func (rw *resultWriter) write(columns []string, src batchSource) (code string, sent int) {
	var sw *wire.StreamWriter
	fail := func(err error, fallback string) {
		code = rw.s.errorCode(rw.ctx, err, fallback, rw.qid, rw.fp)
		rw.s.countFailure(code)
		if sw == nil {
			writeJSON(rw.w, errorStatus(code), wire.FromError(code, err))
			return
		}
		sent = sw.RowsSent()
		sw.Fail(code, err)
	}
	window := 0 // a buffered response drains in one window
	var collect *streamCollector
	if rw.stream {
		window = rw.batch
		if rw.key != "" {
			collect = &streamCollector{budget: rw.s.cache.AdmissionBudget()}
		}
		rw.w.Header().Set("Content-Type", wire.StreamContentType)
		sw = wire.NewStreamWriter(rw.w)
		defer func() {
			if rv := recover(); rv != nil {
				fail(&graphsql.QueryPanicError{Value: rv, Stack: debug.Stack()}, wire.CodePanic)
			}
		}()
		if err := sw.Header(columns); err != nil {
			fail(err, wire.CodeCanceled) // client gone before the first frame
			return code, sent
		}
	}
	var rows [][]any
	for {
		b, err := src.NextBatch(window)
		if err != nil {
			fail(err, wire.CodeSQL)
			return code, sent
		}
		if b == nil {
			break
		}
		if sw == nil {
			if rows == nil {
				rows = b
			} else {
				rows = append(rows, b...)
			}
			continue
		}
		if collect != nil {
			collect.add(b)
		}
		// An encoder failure (an injected stream fault) classifies as
		// internal; any other write error means the client is gone.
		if err := sw.Batch(b); err != nil {
			fail(err, wire.CodeCanceled)
			return code, sent
		}
	}

	var res *graphsql.Result
	var body []byte
	if sw == nil {
		res = &graphsql.Result{Columns: columns, Rows: rows}
		resp := wire.FromResult(res)
		// Snapshotted before the encode span opens: the tree cannot
		// describe the encoding it is itself part of.
		resp.Trace = rw.tree.Tree()
		spEnc := rw.tr.Begin(trace.NoSpan, "encode")
		data, err := resp.Encode()
		rw.tr.End(spEnc)
		if err != nil {
			fail(err, wire.CodeInternal)
			return code, sent
		}
		body = data
	} else if collect != nil && !collect.overflow {
		res = &graphsql.Result{Columns: columns, Rows: collect.rows}
	}
	if rw.key != "" && res != nil {
		rw.s.cache.Put(rw.key, rw.graph, res)
	}
	if sw != nil {
		sw.Trailer(rw.tree.Tree())
		return "", sw.RowsSent()
	}
	rw.w.Header().Set("Content-Type", "application/json")
	rw.w.Write(body)
	return "", len(rows)
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	fail := func(code string, err error) {
		s.countFailure(code)
		writeJSON(w, errorStatus(code), &wire.PrepareResponse{Error: &wire.Error{Code: code, Message: err.Error()}})
	}
	body, code, err := readBody(w, r, maxQueryBody)
	if err != nil {
		fail(code, err)
		return
	}
	req, err := wire.DecodePrepareRequest(body)
	if err != nil {
		fail(wire.CodeInvalidRequest, err)
		return
	}
	if req.SQL == "" {
		fail(wire.CodeInvalidRequest, errors.New("missing sql"))
		return
	}
	if req.Session == "" {
		fail(wire.CodeInvalidRequest, errors.New("prepare requires a session"))
		return
	}
	graphName := req.Graph
	if graphName == "" {
		graphName = s.cfg.DefaultGraph
	}
	db, _, ok := s.reg.Resolve(graphName)
	if !ok {
		fail(wire.CodeUnknownGraph, fmt.Errorf("graph %q is not loaded", graphName))
		return
	}
	ss := s.session(req.Session)
	info, err := ss.bind(graphName, db).Prepare(req.SQL, req.Args...)
	if err != nil {
		fail(s.errorCode(r.Context(), err, wire.CodeSQL, 0, ""), err)
		return
	}
	id := ss.registerStmt(graphName, req.SQL)
	writeJSON(w, http.StatusOK, &wire.PrepareResponse{StatementID: id, NumParams: info.NumParams})
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	body, code, err := readBody(w, r, maxQueryBody)
	if err != nil {
		s.failQuery(w, code, err)
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
	fail := func(code string, err error) {
		s.countFailure(code)
		writeJSON(w, errorStatus(code), &wire.LoadResponse{Graph: name, Error: &wire.Error{Code: code, Message: err.Error()}})
	}
	body, code, err := readBody(w, r, maxLoadBody)
	if err != nil {
		fail(code, err)
		return
	}
	var req wire.LoadRequest
	if err := json.Unmarshal(body, &req); err != nil {
		fail(wire.CodeInvalidRequest, err)
		return
	}
	// The request's context stops the load between statements when
	// the client goes away.
	gen, tables, err := s.reg.Load(r.Context(), name, req.Script, req.Indexes)
	if err != nil {
		fail(s.errorCode(r.Context(), err, wire.CodeSQL, 0, ""), err)
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
