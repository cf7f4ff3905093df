package trace

import "context"

// The solver sits below packages that only receive a context.Context
// (core.Graph.Match takes no trace argument), so the active
// trace and the span the solver should report into ride the context.

type ctxKey struct{}

type ctxVal struct {
	t    *Trace
	span SpanID
}

// NewContext returns ctx carrying the trace and the span that solver
// frontier samples should attach to. A nil trace returns ctx unchanged.
func NewContext(ctx context.Context, t *Trace, span SpanID) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxVal{t, span})
}

// FromContext extracts the trace installed by NewContext, if any.
func FromContext(ctx context.Context) (*Trace, SpanID, bool) {
	v, ok := ctx.Value(ctxKey{}).(ctxVal)
	if !ok {
		return nil, NoSpan, false
	}
	return v.t, v.span, true
}
