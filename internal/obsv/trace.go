package obsv

import "context"

// RequestIDHeader is the HTTP header carrying the request id — the one
// correlation id of a request. The middleware derives it from the
// request's trace id (its first 16 hex digits) unless the client (or an
// upstream OFMF forwarding to an agent) sent a well-formed one, which is
// adopted verbatim so one compose request keeps one id across process
// boundaries; the response always echoes the id back.
const RequestIDHeader = "X-Request-Id"

// maxRequestIDLen bounds a client-supplied request id: it is echoed,
// logged and forwarded to agents, so it must not be arbitrarily large.
const maxRequestIDLen = 128

// validRequestID reports whether a client-supplied id may be adopted:
// 1..128 bytes of visible ASCII (no spaces, no control bytes).
func validRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] < '!' || id[i] > '~' {
			return false
		}
	}
	return true
}

type ctxKey struct{}

// ContextWithRequestID attaches a request id to the context, for paths
// that carry an id but no span (an untraced middleware, a CLI client).
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// RequestIDFrom returns the request id carried by ctx, or "": the id
// attached with ContextWithRequestID if any, else the one the request's
// entry span was given and its child spans inherited.
func RequestIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	if id, ok := ctx.Value(ctxKey{}).(string); ok {
		return id
	}
	if ref := spanRefFrom(ctx); ref != nil {
		return ref.reqID
	}
	return ""
}
