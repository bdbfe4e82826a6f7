package obs

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"sync"
	"time"
)

// Event is one wide, structured record of a completed HTTP request —
// the single place where everything the middleware chain and the
// handlers learned about a request comes together (route, tenant,
// admission outcome, store commit latency). One slog line is emitted
// per event, and the most recent events are kept in an EventRing for
// GET /debug/events, so an operator can reconstruct "what was this
// daemon doing just before it fell over" without a log pipeline.
//
// Handlers annotate the in-flight event through EventFrom; every
// setter is nil-safe so code paths that run outside the middleware
// (tests, the CLI) need no wiring checks.
type Event struct {
	Time       time.Time `json:"time"`
	RequestID  string    `json:"request_id,omitempty"`
	Method     string    `json:"method"`
	Path       string    `json:"path"`
	Route      string    `json:"route,omitempty"`    // mux pattern, e.g. "POST /v1/learn"
	Tenant     string    `json:"tenant,omitempty"`   // resolved tenant namespace
	Instance   string    `json:"instance,omitempty"` // ingest instance stream, for /v1/ingest requests
	Status     int       `json:"status"`
	Bytes      int64     `json:"bytes"`
	DurationMS float64   `json:"duration_ms"`
	Admission  string    `json:"admission,omitempty"` // admitted | rejected | canceled
	CommitMS   float64   `json:"commit_ms,omitempty"` // time inside store commits
	Slow       bool      `json:"slow,omitempty"`      // duration exceeded the slow threshold
}

const eventKey ctxKey = 1 // requestIDKey is 0

// EventFrom returns the in-flight wide event injected by EventLog, or
// nil when the request is not running under that middleware.
func EventFrom(ctx context.Context) *Event {
	ev, _ := ctx.Value(eventKey).(*Event)
	return ev
}

// SetRoute records the matched route pattern; nil-safe.
func (e *Event) SetRoute(route string) {
	if e != nil {
		e.Route = route
	}
}

// SetTenant records the resolved tenant namespace; nil-safe.
func (e *Event) SetTenant(tenant string) {
	if e != nil {
		e.Tenant = tenant
	}
}

// SetInstance records the ingest instance stream a request targeted;
// nil-safe.
func (e *Event) SetInstance(name string) {
	if e != nil {
		e.Instance = name
	}
}

// SetAdmission records the admission-control outcome; nil-safe.
func (e *Event) SetAdmission(outcome string) {
	if e != nil {
		e.Admission = outcome
	}
}

// AddCommit accumulates time spent waiting on store commits; nil-safe.
func (e *Event) AddCommit(d time.Duration) {
	if e != nil {
		e.CommitMS += float64(d) / float64(time.Millisecond)
	}
}

// EventRing is a fixed-size ring of the most recent events. Writers
// overwrite the oldest entry; Snapshot returns oldest-first copies.
// Safe for concurrent use.
type EventRing struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
}

// NewEventRing returns a ring holding the last n events (n < 1 is
// clamped to 1).
func NewEventRing(n int) *EventRing {
	if n < 1 {
		n = 1
	}
	return &EventRing{buf: make([]Event, n)}
}

// Add records one event, overwriting the oldest when full. A nil ring
// is a valid no-op.
func (r *EventRing) Add(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
	r.mu.Unlock()
}

// Snapshot returns the buffered events oldest-first. A nil ring
// returns nil.
func (r *EventRing) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Len reports how many events are buffered.
func (r *EventRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Handler serves the ring as a JSON array, oldest-first — mount it at
// GET /debug/events, behind the same gating as /debug/pprof (events
// carry tenant names and routes, which are internals).
func (r *EventRing) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(r.Snapshot())
	})
}

// EventLog is the request log: it injects an *Event into the request
// context for handlers to annotate, fills in the base fields when the
// handler returns, emits one structured log line per request, and
// appends the event to ring (nil: no ring). A request slower than
// slowThreshold (> 0) is marked Slow and logged at WARN instead of
// INFO, so an operator tailing the log sees latency outliers without
// grepping durations.
func EventLog(logger *slog.Logger, ring *EventRing, slowThreshold time.Duration, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ev := &Event{
			Time:      time.Now(),
			RequestID: RequestIDFrom(r.Context()),
			Method:    r.Method,
			Path:      r.URL.Path,
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), eventKey, ev)))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		d := time.Since(start)
		ev.Status = sw.status
		ev.Bytes = sw.bytes
		ev.DurationMS = float64(d) / float64(time.Millisecond)
		ev.Slow = slowThreshold > 0 && d >= slowThreshold
		level := slog.LevelInfo
		if ev.Slow {
			level = slog.LevelWarn
		}
		logger.LogAttrs(r.Context(), level, "request",
			slog.String("method", ev.Method),
			slog.String("path", ev.Path),
			slog.String("route", ev.Route),
			slog.String("tenant", ev.Tenant),
			slog.Int("status", ev.Status),
			slog.Int64("bytes", ev.Bytes),
			slog.Float64("duration_ms", ev.DurationMS),
			slog.String("admission", ev.Admission),
			slog.Float64("commit_ms", ev.CommitMS),
			slog.Bool("slow", ev.Slow),
			slog.String("request_id", ev.RequestID),
		)
		ring.Add(*ev)
	})
}
