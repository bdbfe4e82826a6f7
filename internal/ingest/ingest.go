// Package ingest is the fleet ingestion plane: one daemon accepting
// per-second statistics pushed by thousands of database agents and
// running the Section 7 detection pipeline incrementally per instance.
// Where a Monitor (internal/monitor) watches one in-process metric
// stream, the Registry here keeps a detect.Watch (the same alert
// policy) and a detect.Stream per instance for an entire fleet behind
// mutex-striped shards, with bounded per-instance queues that shed
// overload instead of buffering it, a watchdog that flags and
// eventually evicts streams that stopped reporting, and alert fan-out
// to SSE subscribers and an optional webhook.
//
// Concurrency model: every instance owns a bounded queue of pending
// chunks. Ingest appends to the queue under the instance lock and the
// first goroutine to find no drainer active becomes the drainer,
// processing the queue to empty (watch append, detect.Stream append,
// detection tick) before handing the token back. Detection state is
// therefore touched by exactly one goroutine at a time without a
// dedicated goroutine per instance — the daemon's goroutine count stays
// flat no matter how many instances are live, which is what the soak
// test pins.
package ingest

import (
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dbsherlock/internal/detect"
	"dbsherlock/internal/metrics"
	"dbsherlock/internal/obs"
)

// Sentinel errors the HTTP layer maps to response codes.
var (
	// ErrShed means the instance's pending queue is over budget; the
	// agent should back off and retry (429 + Retry-After upstream).
	ErrShed = errors.New("ingest: instance queue over budget, retry later")
	// ErrTooManyInstances means the registry is at its instance cap and
	// refuses to register new streams (429 upstream: the fleet is
	// oversubscribed, existing streams keep working).
	ErrTooManyInstances = errors.New("ingest: instance cap reached")
	// errClosed is an internal retry signal: the looked-up instance was
	// evicted between lookup and enqueue.
	errClosed = errors.New("ingest: instance evicted")
)

// Config tunes the registry. Zero values take defaults.
type Config struct {
	// Shards is the number of mutex stripes (rounded up to a power of
	// two; default 64). Each shard owns an independent map segment of
	// the tenant+instance keyspace, so ingest for different instances
	// contends only 1/Shards of the time.
	Shards int
	// WindowRows is the per-instance sliding-window length in rows
	// (default 600, the monitor's default window).
	WindowRows int
	// CheckEvery runs detection after this many appended rows per
	// instance (default 30).
	CheckEvery int
	// WarmupRows suppresses detection until the window holds at least
	// this many rows (default max(120, 4*CheckEvery)), clamped to
	// WindowRows so a short window starts detecting once full.
	WarmupRows int
	// MinAnomalyRows ignores findings whose largest contiguous run is
	// shorter than this (default 10).
	MinAnomalyRows int
	// CooldownSeconds suppresses a new alert overlapping the previous
	// alert's span within this horizon (default 120).
	CooldownSeconds int
	// MaxQueuedRows bounds each instance's pending queue; appends that
	// would exceed it are shed with ErrShed (default 4096 rows).
	MaxQueuedRows int
	// MaxInstances caps live instances across all tenants; 0 means
	// unlimited. At the cap, samples for unknown instances are refused
	// with ErrTooManyInstances.
	MaxInstances int
	// StaleAfter is the staleness window: an instance with no accepted
	// samples for longer is flagged stale (default 60s).
	StaleAfter time.Duration
	// EvictAfter drops an instance that has been silent this long,
	// freeing its window state (default 15m; <0 disables eviction).
	EvictAfter time.Duration
	// SweepEvery is the watchdog scan interval (default 10s).
	SweepEvery time.Duration
	// Workers bounds the per-attribute fan-out of each detection pass
	// (default 1: fleet parallelism comes from concurrent instances,
	// not from fanning out within one small window).
	Workers int
	// Detect are the Section 7 detection parameters (zero value:
	// detect.DefaultParams()).
	Detect detect.Params
	// Registry receives the ingest metric families (nil: no metrics).
	Registry *obs.Registry
	// Logger receives structured warnings (nil: silent).
	Logger *slog.Logger
	// Webhook, when non-empty, receives every alert as a JSON POST.
	Webhook string
	// WebhookTimeout bounds each webhook delivery (default 5s).
	WebhookTimeout time.Duration
	// Now is the clock (default time.Now); tests inject a fake to drive
	// staleness deterministically.
	Now func() time.Time
}

// fillDefaults applies the defaults in place and returns the alert
// policy half of the config.
func (c *Config) fillDefaults() detect.Policy {
	p := detect.Policy{
		WindowRows: c.WindowRows, CheckEvery: c.CheckEvery, WarmupRows: c.WarmupRows,
		MinAnomalyRows: c.MinAnomalyRows, CooldownSeconds: c.CooldownSeconds,
	}.WithDefaults()
	c.WindowRows, c.CheckEvery, c.WarmupRows, c.MinAnomalyRows, c.CooldownSeconds =
		p.WindowRows, p.CheckEvery, p.WarmupRows, p.MinAnomalyRows, p.CooldownSeconds
	if c.Shards <= 0 {
		c.Shards = 64
	}
	// Round up to a power of two so the shard index is a mask.
	n := 1
	for n < c.Shards {
		n <<= 1
	}
	c.Shards = n
	if c.MaxQueuedRows <= 0 {
		c.MaxQueuedRows = 4096
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = time.Minute
	}
	if c.EvictAfter == 0 {
		c.EvictAfter = 15 * time.Minute
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = 10 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Detect == (detect.Params{}) {
		c.Detect = detect.DefaultParams()
	}
	if c.WebhookTimeout <= 0 {
		c.WebhookTimeout = 5 * time.Second
	}
	if c.Logger == nil {
		c.Logger = obs.DiscardLogger()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return p
}

// ValidInstance rejects instance names outside [A-Za-z0-9._-]{1,128} —
// the same alphabet as tenant names, so the composite registry key (and
// every log line and metric label derived from it) stays unambiguous.
func ValidInstance(name string) error {
	if name == "" {
		return errors.New("ingest: empty instance name")
	}
	if len(name) > 128 {
		return fmt.Errorf("ingest: instance name longer than 128 bytes")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("ingest: instance name contains %q (allowed: letters, digits, '.', '_', '-')", c)
		}
	}
	return nil
}

// shard is one mutex stripe of the instance map.
type shard struct {
	mu        sync.Mutex
	instances map[string]*instance
}

// instance is one database's streaming state. Queue fields are guarded
// by mu; detection state (watch, stream) is guarded by the single-flight
// drain token; status fields are atomics so the watchdog and the
// listing endpoints read them lock-free.
type instance struct {
	tenant, name string

	mu         sync.Mutex
	queue      []*metrics.Dataset
	queuedRows int
	draining   bool
	closed     bool

	// Detection state — drainer-only.
	watch  *detect.Watch
	stream *detect.Stream

	// Status — read lock-free by List/watchdog.
	rows        atomic.Int64 // rows accepted
	windowRows  atomic.Int64 // rows currently in the window
	lastSample  atomic.Int64 // unix nanos of the last accepted chunk
	stale       atomic.Bool
	alerts      atomic.Int64
	lastAlert   atomic.Int64 // unix seconds of the last alert
	lastError   atomic.Pointer[string]
	lastErrorAt atomic.Int64 // unix seconds
}

// Registry is the sharded fleet state. Safe for concurrent use.
type Registry struct {
	cfg    Config
	policy detect.Policy
	shards []shard
	count  atomic.Int64 // live instances, for the MaxInstances cap

	// Fleet-wide totals, kept independently of the optional obs
	// registry so Stats works in metric-less embeddings.
	rowsTotal   atomic.Int64
	shedTotal   atomic.Int64
	alertsTotal atomic.Int64

	m instruments

	// Alert fan-out (alerts.go).
	subMu     sync.Mutex
	subs      map[*Subscription]struct{}
	subClosed bool
	webhookCh chan Alert

	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds a registry and starts its watchdog (and webhook worker,
// when configured). Callers own the registry's lifecycle: Close stops
// the background goroutines and ends every alert subscription.
func New(cfg Config) *Registry {
	policy := cfg.fillDefaults()
	r := &Registry{
		cfg:    cfg,
		policy: policy,
		shards: make([]shard, cfg.Shards),
		subs:   make(map[*Subscription]struct{}),
		stop:   make(chan struct{}),
	}
	for i := range r.shards {
		r.shards[i].instances = make(map[string]*instance)
	}
	r.m.init(cfg.Registry)
	if cfg.Webhook != "" {
		r.webhookCh = make(chan Alert, webhookQueueDepth)
		r.wg.Add(1)
		go r.webhookLoop()
	}
	r.wg.Add(1)
	go r.watchdog()
	return r
}

// Close stops the watchdog and webhook workers and closes every alert
// subscription. In-flight Ingest calls finish normally; the registry
// remains readable afterwards.
func (r *Registry) Close() {
	select {
	case <-r.stop:
		return // already closed
	default:
	}
	close(r.stop)
	r.closeSubscriptions()
	r.wg.Wait()
}

// key builds the composite shard key. Tenant names cannot contain NUL,
// so the join is unambiguous.
func key(tenant, name string) string { return tenant + "\x00" + name }

func (r *Registry) shardFor(k string) *shard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(k))
	return &r.shards[h.Sum32()&uint32(len(r.shards)-1)]
}

// instanceFor returns (creating if needed) the live instance for
// tenant/name, enforcing the registry-wide cap on creation.
func (r *Registry) instanceFor(tenant, name string) (*instance, error) {
	k := key(tenant, name)
	sh := r.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if inst, ok := sh.instances[k]; ok {
		return inst, nil
	}
	if max := r.cfg.MaxInstances; max > 0 {
		if r.count.Add(1) > int64(max) {
			r.count.Add(-1)
			return nil, ErrTooManyInstances
		}
	} else {
		r.count.Add(1)
	}
	inst := &instance{
		tenant: tenant, name: name,
		watch:  detect.NewWatch(r.policy),
		stream: detect.NewStream(r.cfg.Detect, r.cfg.WindowRows, r.cfg.Workers),
	}
	inst.lastSample.Store(r.cfg.Now().UnixNano())
	sh.instances[k] = inst
	r.m.instances.Set(float64(r.count.Load()))
	return inst, nil
}

// Ingest queues one decoded chunk for tenant/name and drains the
// instance's queue if no other goroutine is. It returns ErrShed when
// the queue is over budget, ErrTooManyInstances at the registry cap,
// and any schema/timeline error hit while this call was the drainer
// (errors in chunks drained on behalf of other callers are recorded on
// the instance and surfaced via List).
func (r *Registry) Ingest(tenant, name string, ds *metrics.Dataset) error {
	if ds == nil || ds.Rows() == 0 {
		return nil
	}
	for {
		inst, err := r.instanceFor(tenant, name)
		if err != nil {
			r.shedTotal.Add(1)
			r.m.shed.Inc()
			return err
		}
		drainer, err := r.enqueue(inst, ds)
		if errors.Is(err, errClosed) {
			continue // evicted between lookup and enqueue; re-register
		}
		if err != nil {
			return err
		}
		if drainer {
			return r.drain(inst)
		}
		return nil
	}
}

// enqueue pushes a chunk under the instance lock, claiming the drain
// token when free.
func (r *Registry) enqueue(inst *instance, ds *metrics.Dataset) (drainer bool, err error) {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.closed {
		return false, errClosed
	}
	if inst.queuedRows+ds.Rows() > r.cfg.MaxQueuedRows {
		r.shedTotal.Add(1)
		r.m.shed.Inc()
		return false, ErrShed
	}
	inst.queue = append(inst.queue, ds)
	inst.queuedRows += ds.Rows()
	inst.lastSample.Store(r.cfg.Now().UnixNano())
	inst.stale.Store(false)
	if !inst.draining {
		inst.draining = true
		drainer = true
	}
	return drainer, nil
}

// drain processes the instance's queue to empty, then releases the
// drain token. Exactly one goroutine runs it per instance at a time.
// The first append error is returned (later chunks still drain, so the
// queue cannot wedge behind one bad chunk).
func (r *Registry) drain(inst *instance) error {
	var firstErr error
	for {
		inst.mu.Lock()
		if len(inst.queue) == 0 {
			inst.draining = false
			inst.mu.Unlock()
			return firstErr
		}
		ds := inst.queue[0]
		inst.queue[0] = nil
		inst.queue = inst.queue[1:]
		inst.queuedRows -= ds.Rows()
		inst.mu.Unlock()

		if err := r.append(inst, ds); err != nil {
			r.m.appendErrors.Inc()
			msg := err.Error()
			inst.lastError.Store(&msg)
			inst.lastErrorAt.Store(r.cfg.Now().Unix())
			r.cfg.Logger.Warn("ingest: chunk rejected",
				"tenant", inst.tenant, "instance", inst.name, "err", err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
}

// append advances one instance's detection state by one chunk. Called
// only by the drain-token holder.
func (r *Registry) append(inst *instance, ds *metrics.Dataset) error {
	check, err := inst.watch.Append(ds)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	inst.stream.Append(ds)
	inst.rows.Add(int64(ds.Rows()))
	inst.windowRows.Store(int64(inst.watch.Rows()))
	r.rowsTotal.Add(int64(ds.Rows()))
	r.m.rows.Add(int64(ds.Rows()))
	if check {
		r.detectTick(inst)
	}
	return nil
}

// detectTick runs one incremental detection pass and publishes an alert
// for a finding the instance's watch accepts.
func (r *Registry) detectTick(inst *instance) {
	start := time.Now()
	res := inst.stream.Detect()
	r.m.detectSeconds.Observe(time.Since(start))
	from, to, ok := inst.watch.Span(res.Abnormal)
	if !ok {
		return
	}
	inst.watch.Commit(from, to)
	inst.alerts.Add(1)
	inst.lastAlert.Store(r.cfg.Now().Unix())
	r.alertsTotal.Add(1)
	r.m.alerts.Inc()
	r.Publish(Alert{
		Tenant:        inst.tenant,
		Instance:      inst.name,
		FromTime:      from,
		ToTime:        to,
		SelectedAttrs: append([]string(nil), res.SelectedAttrs...),
		WindowRows:    inst.watch.Rows(),
		At:            r.cfg.Now().Unix(),
	})
}

// watchdog periodically sweeps for stale and dead instances.
func (r *Registry) watchdog() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.Sweep()
		}
	}
}

// Sweep runs one watchdog pass: instances silent beyond StaleAfter are
// flagged stale (counted on the transition), and those silent beyond
// EvictAfter are evicted, freeing their window state. The watchdog
// calls it on a ticker; tests call it directly under an injected clock.
func (r *Registry) Sweep() (flagged, evicted int) {
	now := r.cfg.Now()
	for si := range r.shards {
		sh := &r.shards[si]
		sh.mu.Lock()
		for k, inst := range sh.instances {
			age := now.Sub(time.Unix(0, inst.lastSample.Load()))
			if r.cfg.EvictAfter > 0 && age > r.cfg.EvictAfter {
				inst.mu.Lock()
				inst.closed = true
				inst.queue, inst.queuedRows = nil, 0
				inst.mu.Unlock()
				delete(sh.instances, k)
				r.count.Add(-1)
				r.m.evicted.Inc()
				evicted++
				r.cfg.Logger.Info("ingest: instance evicted",
					"tenant", inst.tenant, "instance", inst.name, "silent", age)
				continue
			}
			if age > r.cfg.StaleAfter {
				if inst.stale.CompareAndSwap(false, true) {
					r.m.stale.Inc()
					flagged++
					r.cfg.Logger.Warn("ingest: instance stale",
						"tenant", inst.tenant, "instance", inst.name, "silent", age)
				}
			}
		}
		sh.mu.Unlock()
	}
	r.m.instances.Set(float64(r.count.Load()))
	return flagged, evicted
}

// InstanceStatus is one instance's state as reported by List and the
// GET /v1/instances endpoint.
type InstanceStatus struct {
	Instance      string  `json:"instance"`
	Rows          int64   `json:"rows"`
	WindowRows    int64   `json:"window_rows"`
	QueuedRows    int     `json:"queued_rows"`
	LastSampleAge float64 `json:"last_sample_age_seconds"`
	Stale         bool    `json:"stale"`
	Alerts        int64   `json:"alerts"`
	LastAlertUnix int64   `json:"last_alert_unix,omitempty"`
	LastError     string  `json:"last_error,omitempty"`
}

// List reports every live instance of a tenant, sorted by name.
// Staleness is computed live against StaleAfter so the answer does not
// depend on watchdog timing.
func (r *Registry) List(tenant string) []InstanceStatus {
	now := r.cfg.Now()
	out := []InstanceStatus{}
	for si := range r.shards {
		sh := &r.shards[si]
		sh.mu.Lock()
		for _, inst := range sh.instances {
			if inst.tenant != tenant {
				continue
			}
			inst.mu.Lock()
			queued := inst.queuedRows
			inst.mu.Unlock()
			age := now.Sub(time.Unix(0, inst.lastSample.Load()))
			st := InstanceStatus{
				Instance:      inst.name,
				Rows:          inst.rows.Load(),
				WindowRows:    inst.windowRows.Load(),
				QueuedRows:    queued,
				LastSampleAge: age.Seconds(),
				Stale:         inst.stale.Load() || age > r.cfg.StaleAfter,
				Alerts:        inst.alerts.Load(),
				LastAlertUnix: inst.lastAlert.Load(),
			}
			if msg := inst.lastError.Load(); msg != nil {
				st.LastError = *msg
			}
			out = append(out, st)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Instance < out[j].Instance })
	return out
}

// Stats is the registry-wide roll-up for GET /v1/status.
type Stats struct {
	Instances int64 `json:"instances"`
	Rows      int64 `json:"rows_total"`
	Shed      int64 `json:"shed_total"`
	Alerts    int64 `json:"alerts_total"`
}

// Stats reports fleet-wide totals.
func (r *Registry) Stats() Stats {
	return Stats{
		Instances: r.count.Load(),
		Rows:      r.rowsTotal.Load(),
		Shed:      r.shedTotal.Load(),
		Alerts:    r.alertsTotal.Load(),
	}
}

// instruments are the registry's obs families; all nil (no-op) when no
// obs.Registry is configured.
type instruments struct {
	rows          *obs.Counter
	shed          *obs.Counter
	appendErrors  *obs.Counter
	alerts        *obs.Counter
	alertsDropped *obs.Counter
	stale         *obs.Counter
	evicted       *obs.Counter
	instances     *obs.Gauge
	detectSeconds *obs.Histogram
	webhookOK     *obs.Counter
	webhookErr    *obs.Counter
}

func (m *instruments) init(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.rows = reg.NewCounterFamily("dbsherlock_ingest_rows_total",
		"Rows accepted by the fleet ingestion plane.").With()
	m.shed = reg.NewCounterFamily("dbsherlock_ingest_shed_total",
		"Ingest appends shed by backpressure (queue over budget or instance cap).").With()
	m.appendErrors = reg.NewCounterFamily("dbsherlock_ingest_append_errors_total",
		"Ingest chunks rejected after queueing (schema mismatch, non-monotonic timestamps).").With()
	m.alerts = reg.NewCounterFamily("dbsherlock_ingest_alerts_total",
		"Anomaly alerts raised by per-instance streaming detection.").With()
	m.alertsDropped = reg.NewCounterFamily("dbsherlock_ingest_alerts_dropped_total",
		"Alerts dropped because a subscriber or the webhook queue was full.").With()
	m.stale = reg.NewCounterFamily("dbsherlock_ingest_stale_transitions_total",
		"Instances flagged stale by the watchdog (fresh-to-stale transitions).").With()
	m.evicted = reg.NewCounterFamily("dbsherlock_ingest_evicted_total",
		"Instances evicted after exceeding the eviction silence window.").With()
	m.instances = reg.NewGaugeFamily("dbsherlock_ingest_instances",
		"Live instance streams currently registered.").With()
	m.detectSeconds = reg.NewHistogramFamily("dbsherlock_ingest_detection_seconds",
		"Per-instance streaming detection pass latency in seconds.", obs.IOBuckets).With()
	webhook := reg.NewCounterFamily("dbsherlock_ingest_webhook_total",
		"Webhook alert deliveries, by outcome.")
	m.webhookOK = webhook.With("outcome", "ok")
	m.webhookErr = webhook.With("outcome", "error")
}
