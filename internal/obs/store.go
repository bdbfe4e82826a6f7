package obs

import "time"

// DefaultTenantLabelCap bounds the number of distinct tenant label
// values the per-tenant store counters may create. Tenant names are
// client-supplied, so without a cap one misbehaving client could grow
// the registry — and every /metrics scrape — without limit; tenants
// past the cap are folded into tenant="_other".
const DefaultTenantLabelCap = 100

// TenantOverflow is the tenant label value absorbing ops from tenants
// beyond the cardinality cap.
const TenantOverflow = "_other"

// StoreMetrics adapts a metrics registry onto the durable store's
// Observer hook (internal/store.Observer — the interface speaks only
// std types precisely so this package need not import the store). All
// families are labeled by backend so a process hosting several stores
// can share one registry. Histogram families use IOBuckets: WAL
// appends and fsyncs live in the tens-of-microseconds to
// tens-of-milliseconds range that DefBuckets cannot resolve.
type StoreMetrics struct {
	appendHist  *Histogram
	fsyncHist   *Histogram
	replayHist  *Histogram
	compactHist *Histogram

	walBytes    *Gauge
	walSeq      *Gauge
	snapBytes   *Gauge
	readOnly    *Gauge
	replayBytes *Gauge

	commits    *CounterFamily
	tenantOps  *CounterFamily
	rollbacks  *Counter
	tornBytes  *Counter
	tooLarge   *Counter
	compactOK  *Counter
	compactErr *Counter
	replays    *Counter

	backend   string
	tenantCap int
}

// NewStoreMetrics registers the store metric families into reg and
// returns the observer to pass to store.WithObserver. backend labels
// every series (the daemon uses "durable"); tenantCap bounds the
// per-tenant op counter cardinality (<= 0 takes
// DefaultTenantLabelCap).
func NewStoreMetrics(reg *Registry, backend string, tenantCap int) *StoreMetrics {
	if tenantCap <= 0 {
		tenantCap = DefaultTenantLabelCap
	}
	bl := []string{"backend", backend}
	m := &StoreMetrics{backend: backend, tenantCap: tenantCap}
	m.appendHist = reg.NewHistogramFamily(
		"dbsherlock_store_wal_append_seconds",
		"Time writing one WAL frame, excluding fsync, by backend.", IOBuckets).With(bl...)
	m.fsyncHist = reg.NewHistogramFamily(
		"dbsherlock_store_fsync_seconds",
		"Time in the per-commit fsync, by backend.", IOBuckets).With(bl...)
	m.replayHist = reg.NewHistogramFamily(
		"dbsherlock_store_replay_seconds",
		"WAL+snapshot recovery time at open, by backend.", IOBuckets).With(bl...)
	m.compactHist = reg.NewHistogramFamily(
		"dbsherlock_store_compaction_seconds",
		"Snapshot compaction duration, by backend.", IOBuckets).With(bl...)
	m.walBytes = reg.NewGaugeFamily(
		"dbsherlock_store_wal_size_bytes",
		"Current size of every live WAL segment (what a restart replays), by backend.").With(bl...)
	m.walSeq = reg.NewGaugeFamily(
		"dbsherlock_store_wal_sequence",
		"Last committed WAL sequence number, by backend.").With(bl...)
	m.snapBytes = reg.NewGaugeFamily(
		"dbsherlock_store_snapshot_size_bytes",
		"Current snapshot file size (0 = none), by backend.").With(bl...)
	m.readOnly = reg.NewGaugeFamily(
		"dbsherlock_store_read_only",
		"1 when the store refuses writes (read-only open or latched after a double log failure).").With(bl...)
	m.replayBytes = reg.NewGaugeFamily(
		"dbsherlock_store_replay_bytes",
		"Bytes scanned (WAL + snapshot) by the last recovery, by backend.").With(bl...)
	m.commits = reg.NewCounterFamily(
		"dbsherlock_store_commits_total",
		"Acknowledged mutations, by backend and op.")
	m.tenantOps = reg.NewCounterFamily(
		"dbsherlock_store_tenant_ops_total",
		"Acknowledged mutations by tenant; tenants beyond the cardinality cap fold into tenant=\"_other\".")
	m.rollbacks = reg.NewCounterFamily(
		"dbsherlock_store_rollbacks_total",
		"Failed WAL appends rolled back, by backend.").With(bl...)
	m.tornBytes = reg.NewCounterFamily(
		"dbsherlock_store_torn_tail_bytes_total",
		"Torn WAL bytes truncated during recovery, by backend.").With(bl...)
	m.tooLarge = reg.NewCounterFamily(
		"dbsherlock_store_rejected_too_large_total",
		"Writes rejected because the encoded record exceeds the frame limit, by backend.").With(bl...)
	compactions := reg.NewCounterFamily(
		"dbsherlock_store_compactions_total",
		"Snapshot compaction attempts, by backend and result (ok or error).")
	m.compactOK = compactions.With("backend", backend, "result", "ok")
	m.compactErr = compactions.With("backend", backend, "result", "error")
	m.replays = reg.NewCounterFamily(
		"dbsherlock_store_replays_total",
		"Recovery replays performed at open, by backend.").With(bl...)
	return m
}

// ObserveAppend implements store.Observer.
func (m *StoreMetrics) ObserveAppend(write, sync time.Duration, bytes int) {
	m.appendHist.Observe(write)
	if sync > 0 {
		m.fsyncHist.Observe(sync)
	}
}

// ObserveCommit implements store.Observer.
func (m *StoreMetrics) ObserveCommit(tenant, op string) {
	m.commits.With("backend", m.backend, "op", op).Inc()
	m.tenantOps.WithCap(m.tenantCap,
		[]string{"backend", m.backend, "tenant", TenantOverflow},
		"backend", m.backend, "tenant", tenant).Inc()
}

// ObserveRollback implements store.Observer.
func (m *StoreMetrics) ObserveRollback() { m.rollbacks.Inc() }

// ObserveReplay implements store.Observer.
func (m *StoreMetrics) ObserveReplay(d time.Duration, records int, bytes int64) {
	m.replays.Inc()
	m.replayHist.Observe(d)
	m.replayBytes.Set(float64(bytes))
}

// ObserveCompaction implements store.Observer. Compaction runs in the
// background, so a failed one reaches no request: the result label is
// where it shows.
func (m *StoreMetrics) ObserveCompaction(d time.Duration, snapshotBytes int64, err error) {
	if err != nil {
		m.compactErr.Inc()
	} else {
		m.compactOK.Inc()
	}
	m.compactHist.Observe(d)
}

// ObserveTornTail implements store.Observer.
func (m *StoreMetrics) ObserveTornTail(bytes int64) { m.tornBytes.Add(bytes) }

// ObserveTooLarge implements store.Observer.
func (m *StoreMetrics) ObserveTooLarge() { m.tooLarge.Inc() }

// SetWALState implements store.Observer.
func (m *StoreMetrics) SetWALState(sizeBytes int64, seq uint64) {
	m.walBytes.Set(float64(sizeBytes))
	m.walSeq.Set(float64(seq))
}

// SetSnapshotSize implements store.Observer.
func (m *StoreMetrics) SetSnapshotSize(bytes int64) { m.snapBytes.Set(float64(bytes)) }

// SetReadOnly implements store.Observer.
func (m *StoreMetrics) SetReadOnly(readOnly bool) {
	v := 0.0
	if readOnly {
		v = 1
	}
	m.readOnly.Set(v)
}
