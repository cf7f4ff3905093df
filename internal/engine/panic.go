package engine

import (
	"fmt"
	"runtime/debug"

	"graphsql/internal/par"
)

// QueryPanicError is the typed error the engine boundary converts a
// panic into: any panic escaping statement execution — from a parallel
// pool worker (surfaced as *par.WorkerPanic) or from the calling
// goroutine itself — is recovered at Prepare, ExecPreparedCursor (the
// open), QueryCtx and ExecScriptCtx (open and drain), BuildGraphIndex,
// and the facade's Rows (a drain, via CapturePanic), and returned as
// one of these instead of unwinding into the caller. That makes a panicking query fail
// exactly like a query with a SQL error: the error travels the normal
// return path, locks held by callers are released by their own defers,
// and the process keeps serving.
//
// The guarantee is containment, not rollback: a panic mid-write can
// leave that statement partially applied, which is the same contract
// ordinary write errors already have (DataVersion is bumped before a
// write starts, so result caches never serve state from before a
// failed write).
type QueryPanicError struct {
	// Value is the original panic value.
	Value any
	// Stack is the stack of the panicking goroutine (the worker's when
	// the panic crossed a pool boundary), for server-side logging; it
	// is deliberately not part of Error so wire responses stay small
	// and free of internals.
	Stack []byte
}

func (e *QueryPanicError) Error() string { return fmt.Sprintf("query panicked: %v", e.Value) }

// Unwrap exposes the panic value when it was an error, so errors.As
// can match injected faults and other typed panics through the
// conversion.
func (e *QueryPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// recoverExecPanic is deferred at every engine entry point that runs
// statement code; it converts an in-flight panic into a
// *QueryPanicError assigned to the caller's named error return. A
// *par.WorkerPanic keeps the worker's original value and stack rather
// than the (useless) re-raise stack of the calling goroutine.
func recoverExecPanic(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if wp, ok := r.(*par.WorkerPanic); ok {
		*errp = &QueryPanicError{Value: wp.Value, Stack: wp.Stack}
		return
	}
	*errp = &QueryPanicError{Value: r, Stack: debug.Stack()}
}

// CapturePanic is recoverExecPanic for consumers outside this package:
// with the pull executor, operator code runs while a cursor drains —
// after ExecPreparedCursor returned — so the facade defers this in its
// batch reader to keep the containment contract. It is a function
// variable (not a wrapper) because recover only works when called
// directly by the deferred function.
var CapturePanic = recoverExecPanic
