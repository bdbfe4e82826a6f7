// Package obs is the observability layer of the DBSherlock service:
// diagnosis traces, Prometheus-style metrics, structured logging, and
// HTTP middleware. It is stdlib-only (log/slog, sync/atomic) so the
// diagnostic engine stays dependency-free.
//
// The package has three independent pieces:
//
//   - Trace: per-stage wall time and work counters for one diagnosis
//     (Algorithm 1 stages, domain-knowledge pruning, causal-model
//     ranking). A nil *Trace is valid and free: every method nil-checks
//     first, so the un-instrumented hot path pays one branch and zero
//     allocations.
//   - Registry: named counter, gauge, and histogram families rendered
//     in the Prometheus text exposition format (a /metrics scrape
//     target without importing a client library), plus scrape-time
//     collectors (RegisterRuntimeMetrics) and the StoreMetrics adapter
//     instrumenting the durable store's Observer hook.
//   - Middleware: request-ID injection, panic recovery, per-endpoint
//     request counters / latency histograms, and the wide-event request
//     log (EventLog + EventRing behind GET /debug/events, one structured
//     line per request) for net/http handlers.
package obs
