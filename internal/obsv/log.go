package obsv

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// ParseLevel maps a -log-level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return slog.LevelInfo, fmt.Errorf("obsv: unknown log level %q (want debug, info, warn or error)", s)
}

// ctxHandler decorates an slog.Handler so every record emitted with a
// traced context carries the request_id attribute — the property that
// lets one grep a request's whole path through service, composer and
// agent by the id returned in the X-Request-Id response header.
type ctxHandler struct{ inner slog.Handler }

func (h ctxHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

func (h ctxHandler) Handle(ctx context.Context, rec slog.Record) error {
	if id := RequestIDFrom(ctx); id != "" {
		rec.AddAttrs(slog.String("request_id", id))
	}
	return h.inner.Handle(ctx, rec)
}

func (h ctxHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return ctxHandler{inner: h.inner.WithAttrs(attrs)}
}

func (h ctxHandler) WithGroup(name string) slog.Handler {
	return ctxHandler{inner: h.inner.WithGroup(name)}
}

// WrapHandler decorates any slog.Handler with request-id injection.
func WrapHandler(h slog.Handler) slog.Handler { return ctxHandler{inner: h} }

// NewLogger builds a structured text logger writing to w at the given
// level, with request-id injection from context.
func NewLogger(w io.Writer, level slog.Leveler) *slog.Logger {
	return slog.New(WrapHandler(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})))
}

// nopHandler discards every record without formatting it.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

// NopLogger returns a logger that drops everything — the default when a
// component is constructed without one, keeping tests quiet.
func NopLogger() *slog.Logger { return slog.New(nopHandler{}) }
