package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"
)

// RequestIDHeader is the header carrying the request ID; a
// client-supplied value is trusted and echoed, otherwise one is
// generated.
const RequestIDHeader = "X-Request-ID"

type ctxKey int

const requestIDKey ctxKey = iota

// RequestIDFrom returns the request ID injected by the RequestID
// middleware, or "" if none.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// newRequestID returns 8 random bytes hex-encoded.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// RequestID ensures every request carries an ID: the client's
// X-Request-ID if present, else a generated one. The ID is stored in
// the request context and echoed on the response.
func RequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey, id)))
	})
}

// statusWriter records the response status and body size.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// Flush passes through so streaming handlers keep working when wrapped.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Recover converts handler panics into a 500 JSON error (when the
// response has not started) and logs the panic with its stack.
// http.ErrAbortHandler is re-raised: it is the sanctioned way to abort
// a response mid-stream so the client sees truncation, and net/http
// handles it quietly.
func Recover(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if err, ok := v.(error); ok && err == http.ErrAbortHandler {
				panic(v)
			}
			logger.Error("panic in handler",
				"method", r.Method,
				"path", r.URL.Path,
				"panic", v,
				"request_id", RequestIDFrom(r.Context()),
				"stack", string(debug.Stack()),
			)
			if sw.status == 0 {
				// Same envelope shape as the server's writeError, duplicated
				// here so obs stays dependency-free.
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusInternalServerError)
				_ = json.NewEncoder(w).Encode(map[string]map[string]string{"error": {
					"code":       "internal",
					"message":    "internal server error",
					"request_id": RequestIDFrom(r.Context()),
				}})
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// Instrument wraps a handler with a per-endpoint request counter
// (labeled by endpoint and status code) and a latency histogram
// (labeled by endpoint).
func Instrument(reqs *CounterFamily, latency *HistogramFamily, endpoint string, next http.Handler) http.Handler {
	hist := latency.With("endpoint", endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The matched route pattern is what the wide event calls "route".
		EventFrom(r.Context()).SetRoute(endpoint)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		reqs.With("endpoint", endpoint, "code", strconv.Itoa(sw.status)).Inc()
		hist.Observe(time.Since(start))
	})
}
