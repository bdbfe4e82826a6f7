// Package server exposes DBSherlock over HTTP: upload statistics
// datasets, explain anomalies, teach causes, and manage the causal-model
// store — the service-shaped counterpart of the paper's GUI workflow
// (Figure 2). Handlers are stdlib net/http only.
//
// Endpoints (all JSON unless noted):
//
//	GET    /healthz                  liveness
//	GET    /readyz                   readiness (503 while draining or the store refuses writes)
//	GET    /v1/status                build info, uptime, store/WAL state, admission occupancy
//	GET    /metrics                  Prometheus text exposition (per-endpoint counters + latency histograms)
//	GET    /debug/pprof/             net/http/pprof (only with WithPprof)
//	GET    /debug/events             recent wide request events (only with WithPprof)
//	POST   /v1/datasets              upload a CSV dataset -> {"id": ...}
//	GET    /v1/datasets              list uploaded datasets
//	DELETE /v1/datasets/{id}         drop an uploaded dataset
//	POST   /v1/detect                {"dataset","detector"} -> abnormal rows
//	POST   /v1/explain               {"dataset","from","to"|"auto",...} -> predicates + causes (+"trace")
//	POST   /v1/learn                 {"dataset","from","to","cause","remedy"} -> model summary
//	GET    /v1/causes                list learned causes
//	GET    /v1/models                export the model store (SaveModels JSON)
//	PUT    /v1/models                replace the model store (LoadModels JSON)
//	POST   /v1/ingest/{instance}     stream per-second samples (CSV or NDJSON) into the fleet registry
//	GET    /v1/instances             per-instance ingest state (rows, last-sample age, alerts, queue depth)
//	GET    /v1/alerts/stream         Server-Sent Events feed of streaming-detection alerts
//
// Every endpoint is declared once in the route table (routes.go);
// registration, admission gating, metric labels, and the /v1/status
// inventory all derive from it.
//
// Every request is scoped to a tenant namespace via the
// X-DBSherlock-Tenant header (absent = the configured default tenant):
// datasets and learned causal models live per tenant, so one daemon can
// serve many users or databases and tenant A's models never influence
// tenant B's ranking. With WithStore the namespaces are backed by a
// persistent store (internal/store) and survive restarts. Every write
// commits to the store before anything in memory changes, so an upload,
// learn, or model import the store refuses leaves nothing behind and is
// answered with 503 store_unavailable (or 413 payload_too_large when
// the record exceeds the store's frame limit). The route table resolves
// the tenant header once per request, before the handler runs. Dataset
// uploads and model imports share the -max-upload body cap.
//
// Every handler is wrapped in the observability middleware chain
// (request-ID injection, panic recovery, the wide-event request log,
// per-endpoint request counters and latency histograms — see
// internal/obs). Errors use one envelope shape with stable codes:
// {"error":{"code":"dataset_not_found","message":"...","request_id":"..."}}.
//
// The compute endpoints (/v1/explain, /v1/detect, /v1/learn) are guarded
// by admission control when WithMaxInflight is set: a weighted semaphore
// with a small bounded wait queue sheds excess load with 429 +
// Retry-After instead of queueing unboundedly, and WithTimeout bounds
// each admitted request with a deadline the diagnosis engine honors
// mid-flight (context cancellation between work items).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"dbsherlock"
	"dbsherlock/internal/causal"
	"dbsherlock/internal/diagcache"
	"dbsherlock/internal/ingest"
	"dbsherlock/internal/obs"
	"dbsherlock/internal/store"
)

// DefaultMaxUploadBytes caps POST /v1/datasets request bodies (64 MiB);
// override with WithMaxUploadBytes.
const DefaultMaxUploadBytes = 64 << 20

// The metrics adapter must keep satisfying the store's observer hook;
// checked here because obs deliberately does not import store.
var _ store.Observer = (*obs.StoreMetrics)(nil)

// TenantHeader is the request header selecting the tenant namespace; an
// absent header means the server's default tenant.
const TenantHeader = "X-DBSherlock-Tenant"

// DefaultSlowRequestThreshold is the latency above which a request's
// wide event logs at WARN; override with WithSlowRequestThreshold.
const DefaultSlowRequestThreshold = time.Second

// eventRingSize is how many recent wide events GET /debug/events
// retains. 256 events at a few hundred bytes each keeps the ring well
// under a megabyte while covering minutes of traffic at typical rates.
const eventRingSize = 256

// Server is the HTTP façade around one Analyzer and one tenant-scoped
// Store. It is safe for concurrent use: the store and the per-tenant
// model banks are internally synchronized, and the Analyzer itself is
// safe for concurrent use, so overlapping requests — including
// expensive /v1/explain calls — run in parallel instead of being
// serialized behind one lock. Only model writes serialize (modelMu),
// and only for their merge, commit and install. Datasets are immutable
// once uploaded, so handlers resolve them once and use them lock-free.
type Server struct {
	analyzer *dbsherlock.Analyzer
	store    store.Store
	tenant   string // default tenant for requests without the header
	mux      *http.ServeMux
	handler  http.Handler

	// rules is the analyzer behind rules:true explains: the shared
	// analyzer's parameters plus the MySQL/Linux domain knowledge. It
	// ranks each request's tenant bank through a WithModelBank view.
	rules *dbsherlock.Analyzer

	// mu guards banks; the banks themselves are concurrency-safe. The
	// default tenant's bank is the analyzer's own, so single-tenant
	// embedders that talk to the Analyzer directly see the same models
	// the server serves.
	mu    sync.RWMutex
	banks map[string]*dbsherlock.ModelBank

	// modelMu serializes every model write (learn and import, all
	// tenants) from reading the bank to installing the result, so each
	// write merges against the model the store last committed and a
	// learn never interleaves with an import. Algorithm 1 runs before
	// the lock is taken; commits already serialize on the store.
	modelMu sync.Mutex

	logger       *slog.Logger
	registry     *obs.Registry
	httpReqs     *obs.CounterFamily
	httpLat      *obs.HistogramFamily
	httpInflight *obs.GaugeFamily
	httpRejected *obs.CounterFamily
	maxUpload    int64
	maxDatasets  int
	pprof        bool

	sem     *semaphore    // nil: admission control off
	timeout time.Duration // 0: no per-request deadline
	diagLat *latencyRing  // recent diagnosis latencies, for Retry-After

	// Cross-request diagnosis cache (nil: off).
	diagCache        *diagcache.Cache
	diagCacheEntries int
	diagCacheBytes   int64

	jobs   *jobManager   // async batch jobs (always on)
	jobTTL time.Duration // how long finished job results stay fetchable

	// Fleet ingestion plane (always on; tuned via WithIngest). The
	// server owns its lifecycle: Close stops its watchdog and ends SSE
	// subscriptions.
	ingest    *ingest.Registry
	ingestCfg ingest.Config

	// endpoints is the /v1/status API inventory, materialized from the
	// route table by registerRoutes.
	endpoints []endpointInfo

	started       time.Time      // for /v1/status uptime
	build         buildInfo      // resolved once at construction
	draining      atomic.Bool    // set by SetDraining; reported by /readyz
	events        *obs.EventRing // wide-event ring behind GET /debug/events
	slowThreshold time.Duration  // requests slower than this log at WARN
}

// Option configures a Server.
type Option func(*Server)

// WithLogger installs the structured logger used for access logs, panic
// reports, and handler errors. The default discards everything.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) {
		if l != nil {
			s.logger = l
		}
	}
}

// WithMetrics uses the given registry for the per-endpoint counters and
// histograms and the GET /metrics endpoint, so callers can co-register
// their own metrics (e.g. the monitor's) on the same scrape target. The
// default is a fresh private registry.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) {
		if reg != nil {
			s.registry = reg
		}
	}
}

// WithPprof mounts net/http/pprof under GET /debug/pprof/. Off by
// default: profiles expose internals, so the daemon gates this behind
// the -pprof flag.
func WithPprof() Option {
	return func(s *Server) { s.pprof = true }
}

// WithMaxUploadBytes caps POST /v1/datasets request bodies; n <= 0
// keeps the default (64 MiB). Oversized uploads get 413 with a JSON
// error.
func WithMaxUploadBytes(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxUpload = n
		}
	}
}

// WithMaxInflight turns on admission control for the compute endpoints
// (/v1/explain, /v1/detect, /v1/learn): at most n requests run at once,
// up to n more wait in a bounded FIFO queue, and everything beyond that
// is shed with 429 + Retry-After. n <= 0 leaves admission control off.
func WithMaxInflight(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.sem = newSemaphore(int64(n), n)
		}
	}
}

// WithTimeout bounds each compute request with a deadline; the
// diagnosis engine checks it between work items, so an expired request
// stops burning CPU mid-flight and returns 503 with code
// deadline_exceeded. d <= 0 means no deadline.
func WithTimeout(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.timeout = d
		}
	}
}

// WithMaxDatasets caps the number of uploaded datasets held per tenant;
// when a new upload would exceed the cap the tenant's oldest dataset is
// evicted. n <= 0 means unlimited.
func WithMaxDatasets(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxDatasets = n
		}
	}
}

// WithSlowRequestThreshold promotes the wide event of any request
// slower than d from INFO to WARN and flags it slow=true, so slow
// requests surface in log triage without a latency query. d <= 0 keeps
// the default (1s).
func WithSlowRequestThreshold(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.slowThreshold = d
		}
	}
}

// WithStore backs the server's datasets and model banks with st
// (typically a store.Durable, so both survive restarts). The default is
// a fresh in-memory store with the pre-refactor semantics. The server
// does not close the store; the owner does, after draining.
func WithStore(st store.Store) Option {
	return func(s *Server) {
		if st != nil {
			s.store = st
		}
	}
}

// WithDefaultTenant sets the namespace used by requests without an
// X-DBSherlock-Tenant header. Default: "default". The name must satisfy
// store.ValidTenant; an invalid one is ignored.
func WithDefaultTenant(tenant string) Option {
	return func(s *Server) {
		if store.ValidTenant(tenant) == nil {
			s.tenant = tenant
		}
	}
}

// WithIngest tunes the fleet ingestion plane (shard count, window and
// queue budgets, staleness/eviction windows, alert webhook). The plane
// is always on with defaults; this option replaces its configuration.
// Config.Registry and Config.Logger default to the server's own.
func WithIngest(cfg ingest.Config) Option {
	return func(s *Server) { s.ingestCfg = cfg }
}

// New builds a server around the analyzer. It fails when the store
// cannot hydrate — in particular when a model the analyzer was
// pre-loaded with (an embedder's LoadModels before New) cannot be
// persisted: serving a model that would vanish on restart is the one
// state a successful response must never represent.
func New(analyzer *dbsherlock.Analyzer, opts ...Option) (*Server, error) {
	s := &Server{
		analyzer:      analyzer,
		tenant:        store.DefaultTenant,
		banks:         make(map[string]*dbsherlock.ModelBank),
		mux:           http.NewServeMux(),
		logger:        obs.DiscardLogger(),
		registry:      obs.NewRegistry(),
		maxUpload:     DefaultMaxUploadBytes,
		started:       time.Now(),
		build:         readBuildInfo(),
		events:        obs.NewEventRing(eventRingSize),
		slowThreshold: DefaultSlowRequestThreshold,
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.store == nil {
		s.store = store.NewMemory()
	}
	if s.jobTTL <= 0 {
		s.jobTTL = DefaultJobTTL
	}
	s.jobs = newJobManager(s.jobTTL, defaultMaxStoredJobs)
	rules, err := dbsherlock.New(
		dbsherlock.WithParams(analyzer.Params()),
		dbsherlock.WithDomainKnowledge(dbsherlock.MySQLLinuxRules()))
	if err != nil {
		return nil, fmt.Errorf("server: building the rules analyzer: %w", err)
	}
	s.rules = rules
	s.diagLat = newLatencyRing()
	if s.diagCacheEntries > 0 {
		// Constructed after the options so the cache's metric families
		// land in the final registry (WithMetrics may have swapped it).
		s.diagCache = diagcache.New(s.diagCacheEntries, s.diagCacheBytes,
			obs.NewCacheMetrics(s.registry))
	}
	// The default tenant's bank is the analyzer's own repository.
	s.banks[s.tenant] = analyzer.ModelBank()
	if err := s.hydrateBanks(); err != nil {
		return nil, err
	}
	s.httpReqs = s.registry.NewCounterFamily(
		"dbsherlock_http_requests_total",
		"HTTP requests served, by endpoint and status code.")
	s.httpLat = s.registry.NewHistogramFamily(
		"dbsherlock_http_request_duration_seconds",
		"HTTP request latency in seconds, by endpoint.", nil)
	s.httpInflight = s.registry.NewGaugeFamily(
		"dbsherlock_http_inflight",
		"Admitted requests currently executing, by endpoint.")
	s.httpRejected = s.registry.NewCounterFamily(
		"dbsherlock_http_rejected_total",
		"Requests shed by admission control (429), by endpoint.")

	// The ingest registry is constructed after the options so its metric
	// families land in the final registry and its logger is the final
	// logger (both overridable via WithIngest).
	icfg := s.ingestCfg
	if icfg.Registry == nil {
		icfg.Registry = s.registry
	}
	if icfg.Logger == nil {
		icfg.Logger = s.logger
	}
	s.ingest = ingest.New(icfg)

	s.registerRoutes()
	if s.pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		// The event ring shares the pprof gate: like profiles, raw
		// request events (tenants, paths, timings) expose internals.
		s.mux.Handle("GET /debug/events", s.events.Handler())
	}
	// The wide-event log subsumes the old access log: one structured
	// event per request, annotated by the handlers it passes through.
	// Recovery sits innermost so the event still records the 500 it
	// writes; the request ID is injected first so the event sees it.
	s.handler = obs.RequestID(obs.EventLog(s.logger, s.events, s.slowThreshold, obs.Recover(s.logger, s.mux)))
	return s, nil
}

// MustNew is New panicking on error, for callers whose store cannot
// fail hydration (in-memory stores, tests).
func MustNew(analyzer *dbsherlock.Analyzer, opts ...Option) *Server {
	s, err := New(analyzer, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// hydrateBanks loads every tenant's persisted models into live banks
// and persists any model the analyzer was pre-loaded with (e.g. by an
// embedder's LoadModels) that the store does not know yet. On a cause
// known to both, the store wins: it is the durable record. A persist
// failure is fatal — continuing would serve models that are not
// durable and silently vanish on restart.
func (s *Server) hydrateBanks() error {
	for _, tenant := range s.store.Tenants() {
		bank := s.bankFor(tenant)
		for _, m := range s.store.Models(tenant) {
			bank.Set(m)
		}
	}
	stored := make(map[string]bool)
	for _, m := range s.store.Models(s.tenant) {
		stored[m.Cause] = true
	}
	for _, m := range s.banks[s.tenant].Models() {
		if stored[m.Cause] {
			continue
		}
		if err := s.store.PutModel(s.tenant, m); err != nil {
			return fmt.Errorf("server: persisting pre-loaded model %q for tenant %s: %w",
				m.Cause, s.tenant, err)
		}
	}
	return nil
}

// tenantFrom resolves the request's tenant namespace and records it on
// the request's wide event. Only the route wrapper calls it.
func (s *Server) tenantFrom(r *http.Request) (string, error) {
	t := r.Header.Get(TenantHeader)
	if t == "" {
		obs.EventFrom(r.Context()).SetTenant(s.tenant)
		return s.tenant, nil
	}
	if err := store.ValidTenant(t); err != nil {
		return "", err
	}
	obs.EventFrom(r.Context()).SetTenant(t)
	return t, nil
}

// timeCommit runs one store write and charges its latency to the
// request's wide event, so a slow request can be attributed to fsync
// time without correlating logs against /metrics.
func timeCommit(ctx context.Context, fn func() error) error {
	start := time.Now()
	err := fn()
	obs.EventFrom(ctx).AddCommit(time.Since(start))
	return err
}

// bankFor returns (creating if needed) a tenant's model bank.
func (s *Server) bankFor(tenant string) *dbsherlock.ModelBank {
	s.mu.RLock()
	b, ok := s.banks[tenant]
	s.mu.RUnlock()
	if ok {
		return b
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.banks[tenant]; ok {
		return b
	}
	b = dbsherlock.NewModelBank()
	s.banks[tenant] = b
	return b
}

// analyzerFor returns the analyzer view that ranks and learns against
// the tenant's bank. The default tenant gets the shared analyzer
// itself.
func (s *Server) analyzerFor(tenant string) *dbsherlock.Analyzer {
	if tenant == s.tenant {
		return s.analyzer
	}
	return s.analyzer.WithModelBank(s.bankFor(tenant))
}

// writeStoreError maps a persistent-store write failure: an unavailable
// or closed store is a 503 the client should retry later, a record the
// store refuses to frame is the client's payload being too large;
// anything else is unexpected.
func writeStoreError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, store.ErrUnavailable) || errors.Is(err, store.ErrClosed):
		writeError(w, r, http.StatusServiceUnavailable, CodeStoreUnavailable, err)
	case errors.Is(err, store.ErrTooLarge):
		writeError(w, r, http.StatusRequestEntityTooLarge, CodePayloadTooLarge, err)
	default:
		writeError(w, r, http.StatusInternalServerError, CodeInternal, err)
	}
}

// handle registers a handler wrapped with the per-endpoint counter and
// latency histogram, labeled by the route pattern.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.Handle(pattern, obs.Instrument(s.httpReqs, s.httpLat, pattern, h))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Close releases the server's background resources: the ingest
// registry's watchdog and webhook workers stop and every SSE alert
// subscription ends. In-flight requests finish; the owner drains the
// http.Server first (SetDraining + Shutdown), then calls Close.
func (s *Server) Close() {
	if s.ingest != nil {
		s.ingest.Close()
	}
}

// IngestRegistry exposes the fleet ingestion registry, so embedders
// (and the daemon) can subscribe to alerts or inspect instances
// without going through HTTP.
func (s *Server) IngestRegistry() *ingest.Registry { return s.ingest }

// computeCtx derives the context of one unit of compute — a single
// request, or one batch item — from ctx (so a client disconnect cancels
// the work) plus the configured per-request deadline, if any.
func (s *Server) computeCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.timeout > 0 {
		return context.WithTimeout(ctx, s.timeout)
	}
	return ctx, func() {}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request, _ string) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request, tenant string) {
	body := http.MaxBytesReader(w, r.Body, s.maxUpload)
	defer body.Close()
	ds, err := dbsherlock.ReadCSV(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, r, http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
				fmt.Errorf("upload exceeds the %d-byte limit", tooLarge.Limit))
			return
		}
		writeError(w, r, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	var id string
	if err := timeCommit(r.Context(), func() (e error) {
		id, e = s.store.PutDataset(tenant, ds)
		return
	}); err != nil {
		writeStoreError(w, r, err)
		return
	}
	// Build the prepared per-column index now, while the upload request
	// is already paying for a full pass over the data, so the first
	// diagnosis against this dataset starts cold-path-free.
	s.analyzer.Prewarm(ds)
	// Eviction policy lives here, mechanism in the store: drop the
	// tenant's oldest datasets until it is back under the cap.
	var evicted []string
	if s.maxDatasets > 0 {
		for infos := s.store.Datasets(tenant); len(infos) > s.maxDatasets; infos = infos[1:] {
			oldest := infos[0].ID
			if _, err := s.store.DeleteDataset(tenant, oldest); err != nil {
				s.logger.Error("dataset eviction failed",
					"id", oldest, "tenant", tenant, "err", err,
					"request_id", obs.RequestIDFrom(r.Context()))
				break
			}
			s.invalidateDiagCache(tenant, oldest)
			evicted = append(evicted, oldest)
		}
	}
	for _, old := range evicted {
		s.logger.Info("dataset evicted",
			"id", old,
			"tenant", tenant,
			"max_datasets", s.maxDatasets,
			"request_id", obs.RequestIDFrom(r.Context()))
	}
	resp := map[string]any{
		"id": id, "rows": ds.Rows(), "attributes": ds.NumAttrs(),
	}
	if len(evicted) > 0 {
		resp["evicted"] = evicted
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleDeleteDataset(w http.ResponseWriter, r *http.Request, tenant string) {
	id := r.PathValue("id")
	var ok bool
	if err := timeCommit(r.Context(), func() (e error) {
		ok, e = s.store.DeleteDataset(tenant, id)
		return
	}); err != nil {
		writeStoreError(w, r, err)
		return
	}
	if !ok {
		writeError(w, r, http.StatusNotFound, CodeDatasetNotFound,
			fmt.Errorf("unknown dataset %q", id))
		return
	}
	s.invalidateDiagCache(tenant, id)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

type datasetInfo struct {
	ID         string `json:"id"`
	Rows       int    `json:"rows"`
	Attributes int    `json:"attributes"`
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request, tenant string) {
	infos := s.store.Datasets(tenant)
	out := make([]datasetInfo, 0, len(infos))
	for _, info := range infos {
		out = append(out, datasetInfo{ID: info.ID, Rows: info.Rows, Attributes: info.Attributes})
	}
	writeJSON(w, http.StatusOK, out)
}

// dataset resolves an id within a tenant. Datasets are immutable after
// upload, so the returned pointer stays valid without a lock.
func (s *Server) dataset(tenant, id string) (*dbsherlock.Dataset, error) {
	ds, ok := s.store.GetDataset(tenant, id)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", id)
	}
	return ds, nil
}

type detectRequest struct {
	Dataset  string `json:"dataset"`
	Detector string `json:"detector"` // dbscan (default), threshold, perfaugur
}

type rowRange struct {
	From int `json:"from"` // inclusive
	To   int `json:"to"`   // exclusive
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request, tenant string) {
	var req detectRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	ds, err := s.dataset(tenant, req.Dataset)
	if err != nil {
		writeError(w, r, http.StatusNotFound, CodeDatasetNotFound, err)
		return
	}
	det, err := dbsherlock.DetectorByName(req.Detector)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, CodeUnknownDetector, err)
		return
	}
	ctx, cancel := s.computeCtx(r.Context())
	defer cancel()
	region, ok, err := s.analyzer.DetectUsingContext(ctx, ds, det)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			computeAPIError(err).write(w, r)
			return
		}
		writeError(w, r, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	resp := map[string]any{"found": ok, "detector": det.Name()}
	if ok {
		resp["rows"] = regionRanges(region)
		resp["count"] = region.Count()
	}
	writeJSON(w, http.StatusOK, resp)
}

// regionRanges compacts a region into [from, to) ranges, iterating the
// region's runs directly rather than materializing an index slice.
func regionRanges(region *dbsherlock.Region) []rowRange {
	var out []rowRange
	region.Runs(func(lo, hi int) {
		out = append(out, rowRange{From: lo, To: hi})
	})
	return out
}

type explainRequest struct {
	Dataset string `json:"dataset"`
	From    *int   `json:"from,omitempty"`
	To      *int   `json:"to,omitempty"`
	Auto    bool   `json:"auto,omitempty"`
	Rules   bool   `json:"rules,omitempty"` // apply MySQL/Linux domain knowledge
	Trace   bool   `json:"trace,omitempty"` // force a per-stage diagnosis trace for this call
}

type explainResponse struct {
	Predicates []string                  `json:"predicates"`
	Pruned     []prunedJSON              `json:"pruned,omitempty"`
	Causes     []rankedCause             `json:"causes,omitempty"`
	Region     []rowRange                `json:"region"`
	Trace      *dbsherlock.TraceSnapshot `json:"trace,omitempty"`
}

type prunedJSON struct {
	Predicate string  `json:"predicate"`
	Rule      string  `json:"rule"`
	Kappa     float64 `json:"kappa"`
}

type rankedCause struct {
	Cause      string  `json:"cause"`
	Confidence float64 `json:"confidence"`
}

// resolveRegion extracts the abnormal region from a request, running
// detection if auto is set.
func (s *Server) resolveRegion(ctx context.Context, ds *dbsherlock.Dataset, from, to *int, auto bool) (*dbsherlock.Region, error) {
	if auto {
		res, err := s.analyzer.DetectContext(ctx, ds)
		if err != nil {
			return nil, err
		}
		if res.Abnormal.Empty() {
			return nil, fmt.Errorf("automatic detection found no anomaly")
		}
		return res.Abnormal, nil
	}
	if from == nil || to == nil || *to <= *from {
		return nil, fmt.Errorf("specify from/to (half-open row range) or auto")
	}
	return dbsherlock.RegionFromRange(ds.Rows(), *from, *to), nil
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, tenant string) {
	var req explainRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	ctx, cancel := s.computeCtx(r.Context())
	defer cancel()
	resp, apiErr := s.explainOne(ctx, tenant, req)
	if apiErr != nil {
		apiErr.write(w, r)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// apiError is a handler error that has not been written yet: the same
// (status, code, message) triple writeError renders, carried as a value
// so the per-item diagnosis path (explainOne) can serve both the single
// /v1/explain endpoint and the batch fan-out, where errors become
// per-item objects instead of the response status.
type apiError struct {
	status int
	code   ErrorCode
	err    error
}

// write renders the error envelope. A client that already went away
// (status 0, context canceled) gets nothing — there is nobody to read
// it.
func (e *apiError) write(w http.ResponseWriter, r *http.Request) {
	if e.status == 0 {
		return
	}
	writeError(w, r, e.status, e.code, e.err)
}

// payload converts the error to the batch per-item form.
func (e *apiError) payload() *errorPayload {
	code := e.code
	if e.status == 0 {
		code = CodeCanceled
	}
	return &errorPayload{Code: code, Message: e.err.Error()}
}

// computeAPIError maps an error from the diagnosis engine to the
// envelope: an expired deadline becomes 503 deadline_exceeded, a client
// that already went away gets nothing (there is nobody to read it), and
// anything else is a caller mistake (bad region, empty dataset, ...).
func computeAPIError(err error) *apiError {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{http.StatusServiceUnavailable, CodeDeadlineExceeded,
			errors.New("request deadline exceeded during diagnosis")}
	case errors.Is(err, context.Canceled):
		return &apiError{0, "", err}
	default:
		return &apiError{http.StatusBadRequest, CodeInvalidRequest, err}
	}
}

// explainOne runs one explain request end to end: dataset resolution,
// region resolution (detection if auto), the diagnosis itself — through
// the cross-request diagnosis cache when one is configured — and the
// JSON shaping. It is the shared engine of POST /v1/explain and every
// POST /v1/explain/batch item.
func (s *Server) explainOne(ctx context.Context, tenant string, req explainRequest) (*explainResponse, *apiError) {
	ds, err := s.dataset(tenant, req.Dataset)
	if err != nil {
		return nil, &apiError{http.StatusNotFound, CodeDatasetNotFound, err}
	}
	region, err := s.resolveRegion(ctx, ds, req.From, req.To, req.Auto)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return nil, computeAPIError(err)
		}
		return nil, &apiError{http.StatusBadRequest, CodeInvalidRegion, err}
	}

	analyzer := s.analyzerFor(tenant)
	if req.Rules {
		analyzer = s.rules.WithModelBank(analyzer.ModelBank())
	}
	// rules:true diagnoses through the rules analyzer, whose domain
	// knowledge differs from the shared one, so it bypasses the cache;
	// everything else looks up the incident's cached diagnosis state.
	// A captured state never changes, so only a state Diagnose newly
	// captured (a miss, or a reuse it rejected) is Put.
	useCache := s.diagCache != nil && !req.Rules
	var reuse *dbsherlock.DiagnosisState
	var key diagcache.Key
	if useCache {
		key = s.diagKey(tenant, req.Dataset, ds, region)
		if e, ok := s.diagCache.Get(key); ok {
			reuse, _ = e.(*dbsherlock.DiagnosisState)
		}
	}
	start := time.Now()
	res, err := analyzer.Diagnose(ctx, dbsherlock.DiagnoseRequest{
		Dataset: ds, Abnormal: region, Trace: req.Trace,
		Reuse: reuse, CaptureState: useCache,
	})
	if err != nil {
		return nil, computeAPIError(err)
	}
	s.diagLat.observe(time.Since(start))
	if useCache && res.State != nil && res.State != reuse {
		s.diagCache.Put(key, res.State)
	}
	expl := res.Explanation
	resp := &explainResponse{Region: regionRanges(region), Trace: expl.Trace}
	for _, p := range expl.Predicates {
		resp.Predicates = append(resp.Predicates, p.String())
	}
	for _, pr := range expl.Pruned {
		resp.Pruned = append(resp.Pruned, prunedJSON{
			Predicate: pr.Predicate.String(), Rule: pr.Rule.String(), Kappa: pr.Kappa,
		})
	}
	for _, c := range expl.Causes {
		resp.Causes = append(resp.Causes, rankedCause{Cause: c.Cause, Confidence: c.Confidence})
	}
	return resp, nil
}

type learnRequest struct {
	Dataset string `json:"dataset"`
	From    *int   `json:"from"`
	To      *int   `json:"to"`
	Cause   string `json:"cause"`
	Remedy  string `json:"remedy,omitempty"`
}

func (s *Server) handleLearn(w http.ResponseWriter, r *http.Request, tenant string) {
	var req learnRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	if req.Cause == "" {
		writeError(w, r, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("cause is required"))
		return
	}
	ds, err := s.dataset(tenant, req.Dataset)
	if err != nil {
		writeError(w, r, http.StatusNotFound, CodeDatasetNotFound, err)
		return
	}
	region, err := s.resolveRegion(r.Context(), ds, req.From, req.To, false)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, CodeInvalidRegion, err)
		return
	}
	ctx, cancel := s.computeCtx(r.Context())
	defer cancel()
	// Algorithm 1 runs outside modelMu, into a scratch bank, so the
	// model it returns holds this incident's predicates only.
	learned, err := s.analyzer.WithModelBank(dbsherlock.NewModelBank()).
		LearnCauseContext(ctx, req.Cause, ds, region, nil)
	if err != nil {
		computeAPIError(err).write(w, r)
		return
	}
	if req.Remedy != "" {
		learned.AddRemediation(req.Remedy)
	}
	model, err := s.commitLearned(r.Context(), tenant, learned)
	if err != nil {
		writeStoreError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"cause": model.Cause, "merged": model.Merged, "predicates": len(model.Predicates),
	})
}

// commitLearned folds a learned model into the tenant's bank (Section
// 6.2): merge with the current model, commit the result to the store,
// and only then install it. A refused commit leaves the bank as it was,
// so nothing is ever rolled back.
func (s *Server) commitLearned(ctx context.Context, tenant string, learned *dbsherlock.CausalModel) (*dbsherlock.CausalModel, error) {
	s.modelMu.Lock()
	defer s.modelMu.Unlock()
	bank := s.bankFor(tenant)
	model := learned
	if prev := bank.Model(learned.Cause); prev != nil {
		var err error
		if model, err = causal.Merge(prev, learned); err != nil {
			return nil, err
		}
	}
	if err := timeCommit(ctx, func() error { return s.store.PutModel(tenant, model) }); err != nil {
		return nil, err
	}
	bank.Set(model)
	return model, nil
}

type causeInfo struct {
	Cause        string   `json:"cause"`
	Merged       int      `json:"merged"`
	Predicates   []string `json:"predicates"`
	Remediations []string `json:"remediations,omitempty"`
}

func (s *Server) handleCauses(w http.ResponseWriter, r *http.Request, tenant string) {
	bank := s.bankFor(tenant)
	out := make([]causeInfo, 0)
	for _, cause := range bank.Causes() {
		m := bank.Model(cause)
		if m == nil {
			// A concurrent PUT /v1/models replaced the store between the
			// cause listing and the model lookup.
			continue
		}
		info := causeInfo{Cause: cause, Merged: m.Merged, Remediations: m.Remediations}
		for _, p := range m.Predicates {
			info.Predicates = append(info.Predicates, p.String())
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// exportErrorTrailer is the HTTP trailer carrying a model-export
// failure, declared up front so clients that read trailers can detect
// truncation even when the status line already said 200.
const exportErrorTrailer = "X-DBSherlock-Export-Error"

func (s *Server) handleExportModels(w http.ResponseWriter, r *http.Request, tenant string) {
	w.Header().Set("Trailer", exportErrorTrailer)
	w.Header().Set("Content-Type", "application/json")
	if err := s.bankFor(tenant).Save(w); err != nil {
		// The status line is already out, so the error cannot become a
		// 500. Log it, record it in the declared trailer, and abort the
		// response so the connection closes without the terminating
		// chunk — both signals let clients detect the truncation.
		s.logger.Error("model export truncated",
			"err", err,
			"request_id", obs.RequestIDFrom(r.Context()))
		w.Header().Set(exportErrorTrailer, err.Error())
		panic(http.ErrAbortHandler)
	}
}

func (s *Server) handleImportModels(w http.ResponseWriter, r *http.Request, tenant string) {
	// The same body cap as dataset uploads: an import the durable store
	// cannot frame must be refused here, not fsync'd and then discarded
	// as a torn tail on the next replay.
	body := http.MaxBytesReader(w, r.Body, s.maxUpload)
	defer body.Close()
	repo, err := causal.LoadRepository(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, r, http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
				fmt.Errorf("model import exceeds the %d-byte limit", tooLarge.Limit))
			return
		}
		writeError(w, r, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	models := repo.Models()
	// Commit first, install second, under the lock every model write
	// holds: an import the store refuses never reaches the live bank, and
	// no learn lands between the commit and the install.
	bank := s.bankFor(tenant)
	s.modelMu.Lock()
	err = timeCommit(r.Context(), func() error { return s.store.ReplaceModels(tenant, models) })
	if err == nil {
		bank.ReplaceAll(models)
	}
	s.modelMu.Unlock()
	if err != nil {
		writeStoreError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"causes": len(bank.Causes())})
}
