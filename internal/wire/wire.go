// Package wire defines the structured result and error encoding shared
// by the gsqld HTTP server and the gsql CLI's --json mode. The encoding
// is deterministic — the same Result always marshals to the same bytes
// — which is what the server's differential tests lean on: an HTTP
// response body must be byte-identical to the wire encoding of the same
// query executed in-process.
//
// Cell mapping (lossless for everything the engine produces):
//
//	NULL              -> null
//	BIGINT            -> JSON number (int64, exact)
//	DOUBLE            -> JSON number (shortest round-trip form)
//	VARCHAR / BOOLEAN -> JSON string / bool
//	DATE              -> "YYYY-MM-DD" string
//	nested-table path -> {"columns": [...], "rows": [[...], ...]}
//
// Large results can alternatively be streamed as a sequence of
// newline-delimited frames (header, row batches, trailer) with the
// identical cell encoding — see stream.go — and hot statements can be
// registered once and re-executed by id via the PrepareRequest /
// ExecuteRequest payloads.
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"graphsql"
	"graphsql/internal/trace"
)

// Error codes. Stable strings, part of the wire contract.
const (
	// CodeInvalidRequest marks malformed HTTP/JSON input.
	CodeInvalidRequest = "invalid_request"
	// CodeSQL marks parse, bind and execution errors.
	CodeSQL = "sql_error"
	// CodeCanceled marks a query stopped by client disconnect.
	CodeCanceled = "canceled"
	// CodeTimeout marks a query stopped by the server's deadline.
	CodeTimeout = "timeout"
	// CodeQueueFull marks admission rejection (queue at capacity).
	CodeQueueFull = "queue_full"
	// CodeQueueTimeout marks a query that waited in the admission queue
	// past the server's queue-wait deadline without starting. Distinct
	// from CodeTimeout: no execution happened, so retrying (after the
	// response's Retry-After hint) is always safe.
	CodeQueueTimeout = "queue_timeout"
	// CodePanic marks a query whose execution panicked server-side; the
	// panic was contained and the server keeps serving. The statement
	// may have partially applied if it was a write.
	CodePanic = "panic"
	// CodeUnknownGraph marks a request naming an unregistered graph.
	CodeUnknownGraph = "unknown_graph"
	// CodeInternal marks server-side failures (encoding, invariants).
	CodeInternal = "internal"
	// CodeTooLarge marks a request body over the endpoint's size limit
	// (HTTP 413); the body was not read past the limit.
	CodeTooLarge = "request_too_large"
)

// Error is the structured error payload.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// QueryRequest is the POST /query payload.
type QueryRequest struct {
	// Graph names the target graph; empty means the server's default.
	Graph string `json:"graph,omitempty"`
	// Session is an opaque client-chosen session id; requests sharing
	// it share prepared plans and SET settings. Empty = one-shot.
	Session string `json:"session,omitempty"`
	// SQL is the statement text (? placeholders bind Args).
	SQL string `json:"sql"`
	// Args are the positional arguments. Decode with DecodeRequest so
	// integral numbers arrive as int64, not float64.
	Args []any `json:"args,omitempty"`
	// Workers caps this statement's worker budget (0 = inherit the
	// session setting, then the server default).
	Workers int `json:"workers,omitempty"`
	// TimeoutMillis bounds execution; 0 inherits the server default.
	TimeoutMillis int `json:"timeout_ms,omitempty"`
	// Stream selects the chunked NDJSON response encoding (see
	// stream.go) instead of one buffered QueryResponse object.
	Stream bool `json:"stream,omitempty"`
	// BatchRows caps the rows per streamed batch frame (0 =
	// DefaultBatchRows, clamped to MaxBatchRows).
	BatchRows int `json:"batch_rows,omitempty"`
	// Trace requests the query's span tree (plan resolution, admission
	// wait, per-operator timings, solver frontier levels) in the
	// response: the `trace` field of the buffered QueryResponse, or of
	// the trailer frame when streaming.
	Trace bool `json:"trace,omitempty"`
}

// PrepareRequest is the POST /prepare payload: parse (and, for SELECT,
// bind and rewrite) a statement into the named session's plan cache and
// register it under a server-assigned statement id. Args optionally
// supply representative values for ? parameter kind inference.
type PrepareRequest struct {
	// Graph names the target graph; empty means the server's default.
	Graph string `json:"graph,omitempty"`
	// Session names the owning session; required (prepared statements
	// live in session state).
	Session string `json:"session"`
	// SQL is the statement text (? placeholders bind /execute args).
	SQL string `json:"sql"`
	// Args are optional representative arguments for kind inference.
	Args []any `json:"args,omitempty"`
}

// PrepareResponse reports a registered statement.
type PrepareResponse struct {
	StatementID string `json:"statement_id,omitempty"`
	NumParams   int    `json:"num_params"`
	Error       *Error `json:"error,omitempty"`
}

// ExecuteRequest is the POST /execute payload: run a statement
// registered by /prepare. The response is a QueryResponse (or a
// chunked stream when Stream is set), exactly like POST /query.
type ExecuteRequest struct {
	// Session names the owning session; required.
	Session string `json:"session"`
	// StatementID is the id /prepare returned.
	StatementID string `json:"statement_id"`
	// Args bind the statement's ? placeholders.
	Args []any `json:"args,omitempty"`
	// Workers, TimeoutMillis, Stream, BatchRows and Trace behave exactly
	// as on QueryRequest.
	Workers       int  `json:"workers,omitempty"`
	TimeoutMillis int  `json:"timeout_ms,omitempty"`
	Stream        bool `json:"stream,omitempty"`
	BatchRows     int  `json:"batch_rows,omitempty"`
	Trace         bool `json:"trace,omitempty"`
}

// QueryResponse is the POST /query result payload. Exactly one of
// (Columns+Rows) and Error is populated. Trace is attached only when
// the request set "trace": true; it never affects the row payload, so
// untraced responses stay byte-identical to earlier releases.
type QueryResponse struct {
	Columns  []string    `json:"columns,omitempty"`
	Rows     [][]any     `json:"rows,omitempty"`
	RowCount int         `json:"row_count"`
	Trace    *trace.Node `json:"trace,omitempty"`
	Error    *Error      `json:"error,omitempty"`
}

// PathValue is the wire form of a nested-table path cell.
type PathValue struct {
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
}

// LoadRequest is the POST /graphs/{name}/load payload: a SQL script
// that builds the graph's dataset from scratch, plus optional graph
// indexes to prebuild. The server constructs a fresh database, runs the
// script, builds the indexes, and only then swaps it in — readers keep
// the previous generation until the swap (copy-on-swap).
type LoadRequest struct {
	Script  string      `json:"script"`
	Indexes []IndexSpec `json:"indexes,omitempty"`
}

// IndexSpec names one graph index to prebuild at load time.
type IndexSpec struct {
	Table string `json:"table"`
	Src   string `json:"src"`
	Dst   string `json:"dst"`
}

// LoadResponse reports a completed load.
type LoadResponse struct {
	Graph      string `json:"graph"`
	Generation int64  `json:"generation"`
	Tables     int    `json:"tables"`
	Error      *Error `json:"error,omitempty"`
}

// FromResult converts a materialized query result into its wire form.
func FromResult(res *graphsql.Result) *QueryResponse {
	out := &QueryResponse{Columns: res.Columns, RowCount: len(res.Rows)}
	if len(res.Rows) > 0 {
		out.Rows = make([][]any, len(res.Rows))
		for i, row := range res.Rows {
			enc := make([]any, len(row))
			for j, v := range row {
				enc[j] = encodeCell(v)
			}
			out.Rows[i] = enc
		}
	}
	return out
}

// FromError wraps an error into a response payload.
func FromError(code string, err error) *QueryResponse {
	return &QueryResponse{Error: &Error{Code: code, Message: err.Error()}}
}

// Encode marshals the response deterministically (json.Marshal emits
// struct fields in declaration order and map-free payloads verbatim).
func (r *QueryResponse) Encode() ([]byte, error) { return json.Marshal(r) }

func encodeCell(v any) any {
	switch t := v.(type) {
	case time.Time:
		return t.Format("2006-01-02")
	case *graphsql.Path:
		p := &PathValue{Columns: t.Columns, Rows: make([][]any, len(t.Rows))}
		for i, row := range t.Rows {
			enc := make([]any, len(row))
			for j, c := range row {
				enc[j] = encodeCell(c)
			}
			p.Rows[i] = enc
		}
		return p
	default:
		return v
	}
}

// DecodeRequest unmarshals a QueryRequest preserving integer arguments:
// a bare json.Unmarshal turns every number into float64, which would
// bind BIGINT vertex keys as DOUBLE. Numbers are decoded as
// json.Number and normalized to int64 when integral.
func DecodeRequest(data []byte) (*QueryRequest, error) {
	var req QueryRequest
	if err := unmarshalUseNumber(data, &req); err != nil {
		return nil, err
	}
	args, err := NormalizeArgs(req.Args)
	if err != nil {
		return nil, err
	}
	req.Args = args
	return &req, nil
}

// DecodePrepareRequest unmarshals a PrepareRequest with the same
// integer-preserving argument handling as DecodeRequest.
func DecodePrepareRequest(data []byte) (*PrepareRequest, error) {
	var req PrepareRequest
	if err := unmarshalUseNumber(data, &req); err != nil {
		return nil, err
	}
	args, err := NormalizeArgs(req.Args)
	if err != nil {
		return nil, err
	}
	req.Args = args
	return &req, nil
}

// DecodeExecuteRequest unmarshals an ExecuteRequest with the same
// integer-preserving argument handling as DecodeRequest.
func DecodeExecuteRequest(data []byte) (*ExecuteRequest, error) {
	var req ExecuteRequest
	if err := unmarshalUseNumber(data, &req); err != nil {
		return nil, err
	}
	args, err := NormalizeArgs(req.Args)
	if err != nil {
		return nil, err
	}
	req.Args = args
	return &req, nil
}

func unmarshalUseNumber(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	return dec.Decode(v)
}

// NormalizeArgs converts decoded JSON argument values into the types
// the facade binds: json.Number becomes int64 when integral and
// float64 otherwise; strings, bools and nulls pass through.
func NormalizeArgs(args []any) ([]any, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]any, len(args))
	for i, a := range args {
		switch t := a.(type) {
		case nil, string, bool:
			out[i] = a
		case json.Number:
			if n, err := t.Int64(); err == nil {
				out[i] = n
				continue
			}
			f, err := t.Float64()
			if err != nil {
				return nil, fmt.Errorf("argument %d: invalid number %q", i+1, t.String())
			}
			out[i] = f
		case float64:
			out[i] = t
		case int64, int:
			out[i] = t
		default:
			return nil, fmt.Errorf("argument %d: unsupported JSON type %T", i+1, a)
		}
	}
	return out, nil
}
