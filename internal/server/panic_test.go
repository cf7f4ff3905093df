package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"graphsql/internal/fault"
	"graphsql/internal/testutil"
	"graphsql/internal/wire"
)

// postFull posts a payload and returns status, body and response
// headers (postJSON drops the headers; Retry-After lives there).
func postFull(t *testing.T, url string, payload any) (int, []byte, http.Header) {
	t.Helper()
	data, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// decodeError decodes a structured error body, failing on anything else.
func decodeError(t *testing.T, body []byte) *wire.Error {
	t.Helper()
	var qr wire.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil || qr.Error == nil {
		t.Fatalf("response is not a structured error: %s", body)
	}
	return qr.Error
}

// checkAdmissionClean asserts every slot and worker went back.
func checkAdmissionClean(t *testing.T, s *Server) {
	t.Helper()
	adm := s.adm.Snapshot()
	if adm.InFlight != 0 || adm.Queued != 0 || adm.WorkersFree != adm.Workers {
		t.Fatalf("admission leaked: in_flight=%d queued=%d workers_free=%d/%d",
			adm.InFlight, adm.Queued, adm.WorkersFree, adm.Workers)
	}
}

// TestServerPanicContainment is the layer-by-layer acceptance check: a
// panic injected inside an exec operator comes back as a structured 500
// with code "panic", the same keep-alive client then gets a
// byte-identical 200 for the same query, the panic counter moved, and
// no admission slot or goroutine leaked.
func TestServerPanicContainment(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	t.Cleanup(fault.Reset)
	s, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4})
	loadCorpus(t, hs.URL, "default")
	want := expectedBodies(t) // before arming: the reference runs the same engine

	q := testutil.Queries()[0]
	if err := fault.Set(fault.Rule{Point: fault.PointExecOperator, Kind: fault.KindPanic}); err != nil {
		t.Fatal(err)
	}
	status, body := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: q})
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", status, body)
	}
	if e := decodeError(t, body); e.Code != wire.CodePanic {
		t.Fatalf("error code %q, want %q", e.Code, wire.CodePanic)
	}

	fault.Reset()
	status, body = postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: q})
	if status != http.StatusOK {
		t.Fatalf("server did not keep serving after contained panic: %d: %s", status, body)
	}
	if !bytes.Equal(body, want[q]) {
		t.Fatalf("post-panic response differs from reference\ngot:  %s\nwant: %s", body, want[q])
	}
	if s.panics.Load() == 0 {
		t.Fatal("contained panic did not increment the panic counter")
	}
	checkAdmissionClean(t, s)

	// The counter reaches the exposition endpoint.
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	found := false
	for _, line := range strings.Split(string(metrics), "\n") {
		if v, ok := strings.CutPrefix(line, "gsqld_panics_total "); ok {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil || n < 1 {
				t.Fatalf("gsqld_panics_total = %q, want >= 1", v)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("gsqld_panics_total missing from /metrics:\n%s", metrics)
	}
}

// TestServerMiddlewarePanicRecovery exercises the last-resort recover in
// the instrumentation middleware: the result-cache insert panics after
// execution succeeded, past the engine boundary, on the handler
// goroutine — the middleware must still answer a structured 500, the
// query log must record the panic, and the process must keep serving.
func TestServerMiddlewarePanicRecovery(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	t.Cleanup(fault.Reset)
	logs := &syncBuffer{}
	logger := slog.New(slog.NewTextHandler(logs, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4, Logger: logger, SlowQueryMillis: -1})
	loadCorpus(t, hs.URL, "default")

	if err := fault.Set(fault.Rule{Point: fault.PointCacheInsert, Kind: fault.KindPanic}); err != nil {
		t.Fatal(err)
	}
	q := testutil.Queries()[1]
	status, body := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: q})
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", status, body)
	}
	if e := decodeError(t, body); e.Code != wire.CodePanic {
		t.Fatalf("error code %q, want %q", e.Code, wire.CodePanic)
	}
	if s.panics.Load() == 0 {
		t.Fatal("middleware recover did not record the panic")
	}
	checkAdmissionClean(t, s)
	if log := logs.String(); !strings.Contains(log, "outcome=panic") {
		t.Fatalf("query log %q, want outcome=panic", log)
	}

	fault.Reset()
	if status, body := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: q}); status != http.StatusOK {
		t.Fatalf("server dead after middleware-contained panic: %d: %s", status, body)
	}
}

// TestServerStreamFaultTrailer verifies a stream is only ever torn by a
// structured error trailer: a panic mid-encode folds to code "panic", a
// plain injected error to code "internal" — never a silent truncation.
func TestServerStreamFaultTrailer(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	t.Cleanup(fault.Reset)
	s, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4, CacheEntries: -1})
	loadCorpus(t, hs.URL, "default")
	q := testutil.Queries()[0]

	for _, tc := range []struct {
		kind fault.Kind
		code string
	}{
		{fault.KindPanic, wire.CodePanic},
		{fault.KindError, wire.CodeInternal},
	} {
		if err := fault.Set(fault.Rule{Point: fault.PointStreamEncode, Kind: tc.kind}); err != nil {
			t.Fatal(err)
		}
		status, stream, ctype := postRaw(t, hs.URL+"/query",
			&wire.QueryRequest{SQL: q, Stream: true, BatchRows: 2})
		// The header frame is on the wire before the fault fires, so the
		// HTTP status is already 200; the error must ride the trailer.
		if status != http.StatusOK || ctype != wire.StreamContentType {
			t.Fatalf("kind %v: status %d ctype %q", tc.kind, status, ctype)
		}
		folded, _, err := wire.FoldStream(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("kind %v: stream torn without a trailer: %v\n%s", tc.kind, err, stream)
		}
		if folded.Error == nil || folded.Error.Code != tc.code {
			t.Fatalf("kind %v: folded error %+v, want code %q", tc.kind, folded.Error, tc.code)
		}
		fault.Reset()
	}
	if s.panics.Load() == 0 {
		t.Fatal("streamed panic was not recorded")
	}
	checkAdmissionClean(t, s)
}

// syncBuffer is a bytes.Buffer safe for a logger writing from handler
// goroutines while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServerStreamedCacheHitFaultLogged: a streamed cache hit cut by an
// encoder fault logs the failure and the rows actually sent, exactly as
// a live stream would — not outcome=ok with the cached row count.
func TestServerStreamedCacheHitFaultLogged(t *testing.T) {
	t.Cleanup(fault.Reset)
	logs := &syncBuffer{}
	logger := slog.New(slog.NewTextHandler(logs, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4, Logger: logger, SlowQueryMillis: -1})
	loadCorpus(t, hs.URL, "default")
	q := testutil.Queries()[1]
	if status, body := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: q}); status != http.StatusOK {
		t.Fatalf("buffered: %d: %s", status, body)
	}
	if err := fault.Set(fault.Rule{Point: fault.PointStreamEncode, Kind: fault.KindError}); err != nil {
		t.Fatal(err)
	}
	hits := s.Cache().Snapshot().Hits
	_, stream, _ := postRaw(t, hs.URL+"/query", &wire.QueryRequest{SQL: q, Stream: true, BatchRows: 3})
	fault.Reset()
	if got := s.Cache().Snapshot().Hits; got != hits+1 {
		t.Fatalf("cache hits %d, want %d", got, hits+1)
	}
	folded, _, err := wire.FoldStream(bytes.NewReader(stream))
	if err != nil || folded.Error == nil || folded.Error.Code != wire.CodeInternal {
		t.Fatalf("stream %s (fold error %v), want an internal error trailer", stream, err)
	}
	var line string
	waitUntil(t, "the streamed hit's query log line", func() bool {
		for _, l := range strings.Split(logs.String(), "\n") {
			if strings.Contains(l, "cache_hit=true") {
				line = l
				return true
			}
		}
		return false
	})
	if !strings.Contains(line, "outcome=internal") || !strings.Contains(line, " rows=0 ") {
		t.Fatalf("query log %q, want outcome=internal rows=0", line)
	}
}

// TestServerQueueWaitDeadline pins the only execution slot and requires
// a queued request to be shed at the queue-wait deadline with a 503,
// code queue_timeout, and a Retry-After hint — while the query timeout
// (much larger) never enters the picture.
func TestServerQueueWaitDeadline(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s, hs := newTestServer(t, Config{
		MaxInFlight: 1, QueueDepth: 8, TotalWorkers: 1,
		QueueWait:    50 * time.Millisecond,
		QueryTimeout: time.Minute,
	})
	loadCorpus(t, hs.URL, "default")

	pin, err := s.adm.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	status, body, hdr := postFull(t, hs.URL+"/query", &wire.QueryRequest{SQL: `SELECT 1`})
	waited := time.Since(start)
	pin.Release()

	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", status, body)
	}
	if e := decodeError(t, body); e.Code != wire.CodeQueueTimeout {
		t.Fatalf("error code %q, want %q", e.Code, wire.CodeQueueTimeout)
	}
	if waited > 10*time.Second {
		t.Fatalf("queue-wait shed took %v; deadline not applied", waited)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", hdr.Get("Retry-After"))
	}
	checkAdmissionClean(t, s)

	// The shed was pre-execution, so the retry the header promises works.
	if status, body := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: `SELECT 1`}); status != http.StatusOK {
		t.Fatalf("retry after queue_timeout: %d: %s", status, body)
	}
}

// TestServerQueueFullRetryAfter: with queueing disabled, an overload
// rejection must also carry the Retry-After hint.
func TestServerQueueFullRetryAfter(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: -1, TotalWorkers: 1})
	pin, err := s.adm.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	status, body, hdr := postFull(t, hs.URL+"/query", &wire.QueryRequest{SQL: `SELECT 1`})
	pin.Release()
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", status, body)
	}
	if e := decodeError(t, body); e.Code != wire.CodeQueueFull {
		t.Fatalf("error code %q, want %q", e.Code, wire.CodeQueueFull)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", hdr.Get("Retry-After"))
	}
}

// TestServerHealthzDegraded: /healthz stays 200 (liveness) but flips
// Status to "degraded" right after a contained panic, reporting the
// panic count and recency so a balancer can drain the instance.
func TestServerHealthzDegraded(t *testing.T) {
	t.Cleanup(fault.Reset)
	_, hs := newTestServer(t, Config{MaxInFlight: 4, TotalWorkers: 4})
	loadCorpus(t, hs.URL, "default")

	getHealth := func() (int, *HealthResponse) {
		t.Helper()
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, &h
	}

	if status, h := getHealth(); status != http.StatusOK || h.Status != "ok" || h.PanicsRecovered != 0 {
		t.Fatalf("fresh health = %d %+v, want 200/ok/0 panics", status, h)
	}

	if err := fault.Set(fault.Rule{Point: fault.PointExecOperator, Kind: fault.KindPanic}); err != nil {
		t.Fatal(err)
	}
	if status, _ := postJSON(t, hs.URL+"/query", &wire.QueryRequest{SQL: testutil.Queries()[0]}); status != http.StatusInternalServerError {
		t.Fatalf("fault query status %d, want 500", status)
	}
	fault.Reset()

	status, h := getHealth()
	if status != http.StatusOK {
		t.Fatalf("healthz must stay 200 while alive; got %d", status)
	}
	if h.Status != "degraded" || h.PanicsRecovered < 1 || h.SecondsSinceLastPanic <= 0 || h.SecondsSinceLastPanic > degradedPanicWindow.Seconds() {
		t.Fatalf("post-panic health %+v, want degraded with recent panic", h)
	}
}
