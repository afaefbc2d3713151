package server

// HTTP middleware: the API-key check and structured request logging.
// Both wrap every route Handler serves, the coordinator's lease
// routes included.

import (
	"crypto/sha256"
	"crypto/subtle"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"shotgun/internal/client"
)

// authExempt lists routes that must work without a key: health and
// compatibility probes (load balancers, deploy tooling) and the
// metrics scrape.
func authExempt(path string) bool {
	switch path {
	case "/healthz", "/v1/version", "/metrics":
		return true
	}
	return false
}

// bearerKey extracts the API key from an Authorization: Bearer header.
// The scheme comparison is case-insensitive per RFC 7235; everything
// after the single space is the key, verbatim, and must not be empty.
func bearerKey(header string) (string, bool) {
	const prefix = "bearer "
	if len(header) <= len(prefix) || !strings.EqualFold(header[:len(prefix)], prefix) {
		return "", false
	}
	return header[len(prefix):], true
}

// keyMiddleware refuses, with the 401 unauthorized envelope, every
// request to a non-exempt route that does not present the API key. The
// presented and the configured key are compared as SHA-256 digests in
// constant time, so neither their contents nor their lengths leak
// through timing. An empty key turns auth off.
func keyMiddleware(key string, next http.Handler) http.Handler {
	if key == "" {
		return next
	}
	want := sha256.Sum256([]byte(key))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if authExempt(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		got, ok := bearerKey(r.Header.Get("Authorization"))
		if !ok {
			client.WriteError(w, http.StatusUnauthorized, client.CodeUnauthorized,
				"missing or malformed Authorization header (want \"Bearer <api-key>\")")
			return
		}
		sum := sha256.Sum256([]byte(got))
		if subtle.ConstantTimeCompare(sum[:], want[:]) != 1 {
			client.WriteError(w, http.StatusUnauthorized, client.CodeUnauthorized, "wrong API key")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// statusWriter captures the response status for logging and metrics.
// It passes http.Flusher through — the SSE sweep stream needs to flush
// events through this wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush implements http.Flusher when the underlying writer does.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logMiddleware counts the request in the HTTP metrics and emits one
// structured access line per request: route, status and duration.
func logMiddleware(log *slog.Logger, m *httpMetrics, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		m.observe(status)
		log.Info("request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Duration("dur", time.Since(start)),
		)
	})
}

// httpMetrics counts responses by status class for /metrics.
type httpMetrics struct {
	by2xx, by4xx, by5xx, byOther atomic.Uint64
}

func (m *httpMetrics) observe(status int) {
	switch {
	case status >= 200 && status < 300:
		m.by2xx.Add(1)
	case status >= 400 && status < 500:
		m.by4xx.Add(1)
	case status >= 500:
		m.by5xx.Add(1)
	default:
		m.byOther.Add(1)
	}
}
