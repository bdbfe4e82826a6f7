// Command dbsherlockd serves DBSherlock over HTTP: upload per-second
// statistics datasets, detect and explain anomalies, teach causes, and
// manage the causal-model store.
//
//	dbsherlockd -addr :8080 -data-dir /var/lib/dbsherlock
//
// Quick tour with curl (after generating a trace with cmd/datagen):
//
//	curl -s -XPOST --data-binary @trace.csv localhost:8080/v1/datasets
//	curl -s -XPOST -d '{"dataset":"ds-1","from":120,"to":180}' localhost:8080/v1/explain
//	curl -s -XPOST -d '{"dataset":"ds-1","from":120,"to":180,"cause":"Lock Contention"}' localhost:8080/v1/learn
//	curl -s localhost:8080/v1/causes
//	curl -s localhost:8080/metrics
//
// Observability flags: -log-level and -log-format shape the structured
// request log on stderr (one wide event per request;
// -slow-request-threshold promotes slow ones to WARN), -trace attaches
// per-stage diagnosis traces to every /v1/explain response, -pprof
// mounts net/http/pprof under /debug/pprof/ and the recent-event ring
// under /debug/events, and -max-upload caps dataset upload bodies.
// GET /readyz reports readiness (503 while draining or after the
// durable store latches read-only) and GET /v1/status reports build
// info, uptime, store state, and admission occupancy; /metrics carries
// Go runtime and durable-store series alongside the HTTP families.
//
// Request-lifecycle flags: -max-inflight turns on admission control for
// the compute endpoints (excess load is shed with 429 + Retry-After),
// -timeout bounds each compute request with a deadline the diagnosis
// engine honors mid-flight, -max-datasets caps the in-memory dataset
// registry (oldest evicted first), and -drain bounds how long a
// SIGINT/SIGTERM shutdown waits for in-flight requests. -cache-size
// budgets the cross-request diagnosis cache that makes repeat
// /v1/explain calls sub-millisecond (0 disables it), and -job-ttl
// bounds how long finished async batch results (POST /v1/explain/batch
// with "async": true) stay fetchable from GET /v1/jobs/{id}.
//
// Fleet-ingestion flags: agents push per-second samples to
// POST /v1/ingest/{instance} (CSV or NDJSON); -ingest-window sizes the
// per-instance detection window in rows, -ingest-queue bounds each
// instance's pending rows before pushes shed with 429 + Retry-After,
// -ingest-stale-after and -ingest-evict-after tune the watchdog that
// flags and then drops silent instances, -ingest-max-instances caps the
// fleet, and -alert-webhook POSTs every streaming-detection alert as
// JSON (alerts also fan out over GET /v1/alerts/stream as Server-Sent
// Events; GET /v1/instances lists per-instance state).
//
// Persistence flags: -data-dir opens a durable store (write-ahead log +
// snapshots) in the given directory; every dataset upload, learned
// model, and model import is committed there before it is answered and
// replayed on restart, so `dbsherlock learn -data-dir D` can seed the
// models a `dbsherlockd -data-dir D` serves, and PUT /v1/models imports
// a models.json. -tenant-default names the tenant unlabelled requests
// (no X-DBSherlock-Tenant header) belong to. Without -data-dir all
// state is in-memory and lost on exit.
//
// Shutdown is graceful: the listener closes, in-flight requests drain
// (up to -drain), the durable store is flushed and closed, logs flush,
// and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dbsherlock"
	"dbsherlock/internal/ingest"
	"dbsherlock/internal/obs"
	"dbsherlock/internal/server"
	"dbsherlock/internal/store"
)

// config collects the daemon's flag values.
type config struct {
	addr        string
	theta       float64
	workers     int
	logLevel    string
	logFormat   string
	trace       bool
	pprof       bool
	maxUpload   int64
	maxInflight int
	maxDatasets int
	timeout     time.Duration
	drain       time.Duration
	dataDir     string
	tenant      string
	slowReq     time.Duration
	cacheSize   int64
	jobTTL      time.Duration

	ingestWindow       int
	ingestQueue        int
	ingestStaleAfter   time.Duration
	ingestEvictAfter   time.Duration
	ingestMaxInstances int
	alertWebhook       string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.Float64Var(&cfg.theta, "theta", 0.05, "normalized difference threshold for learned models")
	flag.IntVar(&cfg.workers, "workers", 0, "diagnosis worker pool size per request (0 = GOMAXPROCS, 1 = sequential)")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "log level: debug|info|warn|error")
	flag.StringVar(&cfg.logFormat, "log-format", "text", "log format: text|json")
	flag.BoolVar(&cfg.trace, "trace", false, "attach per-stage diagnosis traces to /v1/explain responses")
	flag.BoolVar(&cfg.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Int64Var(&cfg.maxUpload, "max-upload", server.DefaultMaxUploadBytes, "maximum dataset upload body size in bytes")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 0, "admission control: max concurrent compute requests (0 = unlimited)")
	flag.IntVar(&cfg.maxDatasets, "max-datasets", 0, "max uploaded datasets held in memory, oldest evicted (0 = unlimited)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "per-request deadline for compute endpoints (0 = none)")
	flag.DurationVar(&cfg.drain, "drain", 5*time.Second, "graceful-shutdown drain window for in-flight requests")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "durable store directory (WAL + snapshots); empty = in-memory only")
	flag.StringVar(&cfg.tenant, "tenant-default", store.DefaultTenant, "tenant that requests without an X-DBSherlock-Tenant header belong to")
	flag.DurationVar(&cfg.slowReq, "slow-request-threshold", server.DefaultSlowRequestThreshold, "requests slower than this log their wide event at WARN")
	flag.Int64Var(&cfg.cacheSize, "cache-size", 64<<20, "diagnosis-cache byte budget for repeat /v1/explain requests (0 = cache off)")
	flag.DurationVar(&cfg.jobTTL, "job-ttl", server.DefaultJobTTL, "how long finished async batch results stay fetchable from /v1/jobs")
	flag.IntVar(&cfg.ingestWindow, "ingest-window", 0, "per-instance sliding-window length in rows for /v1/ingest streams (0 = default 600)")
	flag.IntVar(&cfg.ingestQueue, "ingest-queue", 0, "per-instance pending-row budget before ingest sheds with 429 (0 = default 4096)")
	flag.DurationVar(&cfg.ingestStaleAfter, "ingest-stale-after", 0, "flag an instance stale after this long without samples (0 = default 1m)")
	flag.DurationVar(&cfg.ingestEvictAfter, "ingest-evict-after", 0, "evict an instance after this long without samples (0 = default 15m, negative = never)")
	flag.IntVar(&cfg.ingestMaxInstances, "ingest-max-instances", 0, "cap on live instance streams across all tenants (0 = unlimited)")
	flag.StringVar(&cfg.alertWebhook, "alert-webhook", "", "URL POSTed one JSON body per streaming-detection alert (empty = off)")
	flag.Parse()
	if err := run(cfg); err != nil {
		log.Fatal(err)
	}
}

func run(cfg config) error {
	level, err := obs.ParseLevel(cfg.logLevel)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, level, cfg.logFormat)
	if err != nil {
		return err
	}

	analyzerOpts := []dbsherlock.Option{
		dbsherlock.WithTheta(cfg.theta),
		dbsherlock.WithWorkers(cfg.workers),
	}
	if cfg.trace {
		analyzerOpts = append(analyzerOpts, dbsherlock.WithTracing())
	}
	analyzer, err := dbsherlock.New(analyzerOpts...)
	if err != nil {
		return err
	}
	if err := store.ValidTenant(cfg.tenant); err != nil {
		return fmt.Errorf("invalid -tenant-default %q: %w", cfg.tenant, err)
	}
	// One registry carries everything /metrics exposes: the server's
	// per-endpoint families, the Go runtime collector, and the store
	// observer for whichever backend is in use.
	registry := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(registry)
	var st store.Store
	if cfg.dataDir != "" {
		storeMetrics := obs.NewStoreMetrics(registry, "durable", obs.DefaultTenantLabelCap)
		durable, err := store.OpenDurable(cfg.dataDir, store.WithObserver(storeMetrics))
		if err != nil {
			return fmt.Errorf("open data dir: %w", err)
		}
		st = durable
	} else {
		st = store.NewMemory()
	}
	defer st.Close()

	serverOpts := []server.Option{
		server.WithLogger(logger),
		server.WithMetrics(registry),
		server.WithMaxUploadBytes(cfg.maxUpload),
		server.WithStore(st),
		server.WithDefaultTenant(cfg.tenant),
		server.WithSlowRequestThreshold(cfg.slowReq),
	}
	if cfg.pprof {
		serverOpts = append(serverOpts, server.WithPprof())
	}
	if cfg.maxInflight > 0 {
		serverOpts = append(serverOpts, server.WithMaxInflight(cfg.maxInflight))
	}
	if cfg.maxDatasets > 0 {
		serverOpts = append(serverOpts, server.WithMaxDatasets(cfg.maxDatasets))
	}
	if cfg.timeout > 0 {
		serverOpts = append(serverOpts, server.WithTimeout(cfg.timeout))
	}
	if cfg.cacheSize > 0 {
		serverOpts = append(serverOpts, server.WithDiagnosisCache(server.DefaultDiagCacheEntries, cfg.cacheSize))
	}
	if cfg.jobTTL > 0 {
		serverOpts = append(serverOpts, server.WithJobTTL(cfg.jobTTL))
	}
	serverOpts = append(serverOpts, server.WithIngest(ingest.Config{
		WindowRows:    cfg.ingestWindow,
		MaxQueuedRows: cfg.ingestQueue,
		StaleAfter:    cfg.ingestStaleAfter,
		EvictAfter:    cfg.ingestEvictAfter,
		MaxInstances:  cfg.ingestMaxInstances,
		Webhook:       cfg.alertWebhook,
	}))
	// Write/idle timeouts protect the daemon from slow or dead clients;
	// the write timeout leaves headroom beyond the compute deadline so a
	// slow diagnosis is cut off by its own context, not by a mid-response
	// connection reset.
	writeTimeout := 2 * time.Minute
	if cfg.timeout > 0 && cfg.timeout+30*time.Second > writeTimeout {
		writeTimeout = cfg.timeout + 30*time.Second
	}
	handler, err := server.New(analyzer, serverOpts...)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("dbsherlockd listening",
		slog.String("addr", cfg.addr),
		slog.String("data_dir", storeName(cfg.dataDir)),
		slog.String("tenant_default", cfg.tenant),
		slog.Bool("tracing", cfg.trace),
		slog.Bool("pprof", cfg.pprof),
		slog.Int("max_inflight", cfg.maxInflight),
		slog.Duration("timeout", cfg.timeout))

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-stop:
		logger.Info("shutting down", slog.String("signal", sig.String()))
	}

	// Graceful drain: flip /readyz to unready first so load balancers
	// stop routing here, then stop accepting, let in-flight requests
	// finish within the drain window, and force-close whatever is left
	// so the process still exits cleanly under a wedged client.
	handler.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("drain window expired, closing remaining connections",
			slog.Duration("drain", cfg.drain), slog.Any("err", err))
		_ = srv.Close()
	}
	// Stop the ingest plane's watchdog/webhook workers and end every SSE
	// subscription after the listener has drained.
	handler.Close()
	// Flush and close the durable log before reporting a clean stop; a
	// failed final sync must fail the process, not vanish into a defer.
	if err := st.Close(); err != nil {
		return fmt.Errorf("close store: %w", err)
	}
	if cfg.dataDir != "" {
		logger.Info("durable store closed", slog.String("data_dir", cfg.dataDir))
	}
	logger.Info("dbsherlockd stopped")
	return nil
}

func storeName(dir string) string {
	if dir == "" {
		return "none"
	}
	return dir
}
