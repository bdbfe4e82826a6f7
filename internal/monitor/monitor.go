// Package monitor runs DBSherlock's anomaly detection continuously over
// one in-process stream of per-second statistics — the always-on
// counterpart of the interactive workflow, mirroring how DBSeer watches
// a production system. The alert policy (schema and timeline checks,
// check cadence, warmup, min-run floor, cooldown dedup) and the window
// itself are detect.Watch, shared with the fleet ingestion plane in
// internal/ingest. A Monitor adds what is its own: the alert callback
// and the window snapshot it carries, the dispatch to a custom
// Detector, and the dbsherlock_monitor_* instruments.
//
// With the default DBSCAN detector, detection runs on the watch's
// incremental stream: per-attribute state advances with the window and
// no dataset is materialized until an alert actually fires. Custom
// detectors run on a window snapshot every pass. The emitted alerts are
// byte-identical to running the batch detector on a deep window
// snapshot every tick (pinned by golden tests).
package monitor

import (
	"errors"
	"fmt"
	"time"

	"dbsherlock/internal/detect"
	"dbsherlock/internal/metrics"
	"dbsherlock/internal/obs"
)

// Alert reports one detected anomaly.
type Alert struct {
	// Window is a snapshot of the sliding window the detection ran on.
	Window *metrics.Dataset
	// Region selects the anomalous rows of Window.
	Region *metrics.Region
	// FromTime / ToTime are the anomaly's timestamps (unix seconds,
	// half-open).
	FromTime, ToTime int64
	// SelectedAttrs are the attributes the detector keyed on (when the
	// detector reports them).
	SelectedAttrs []string
}

// Config tunes the monitor. Zero values take defaults.
type Config struct {
	// WindowSeconds is the sliding-window length (default 600, the
	// paper's Appendix E trace length).
	WindowSeconds int
	// CheckEvery runs detection after this many appended rows
	// (default 30).
	CheckEvery int
	// CooldownSeconds suppresses a new alert whose region overlaps the
	// previous alert's time span within this horizon (default 120).
	CooldownSeconds int
	// Detector is the detection algorithm (default: the Section 7
	// DBSCAN detector, which runs on the incremental streaming path).
	Detector detect.Detector
	// MinAnomalyRows ignores findings whose largest contiguous run is
	// shorter than this (default 10): isolated spike rows and short
	// bursts are noise, not anomalies (the paper's injected anomalies
	// run 30-80 seconds).
	MinAnomalyRows int
	// WarmupRows suppresses detection until the window holds at least
	// this many rows (default max(120, 4*CheckEvery)): tiny windows
	// mistake startup transients for anomalies. It is clamped to
	// WindowSeconds, so a short window starts detecting once full.
	WarmupRows int
	// Registry, when non-nil, receives the monitor's counters
	// (dbsherlock_monitor_rows_ingested_total, _detections_run_total,
	// _alerts_total, _attrs_selected_total, _points_clustered_total),
	// the _detection_seconds histogram, and the _last_epsilon gauge, so
	// they show up on the service's /metrics scrape.
	Registry *obs.Registry
	// Workers bounds the per-attribute fan-out of each streaming
	// detection pass (<= 0: one worker per CPU). Detection output is
	// byte-identical for any worker count.
	Workers int
}

// fillDefaults applies the defaults in place and returns the alert
// policy half of the config.
func (c *Config) fillDefaults() detect.Policy {
	p := detect.Policy{
		WindowRows: c.WindowSeconds, CheckEvery: c.CheckEvery, WarmupRows: c.WarmupRows,
		MinAnomalyRows: c.MinAnomalyRows, CooldownSeconds: c.CooldownSeconds,
	}.WithDefaults()
	c.WindowSeconds, c.CheckEvery, c.WarmupRows, c.MinAnomalyRows, c.CooldownSeconds =
		p.WindowRows, p.CheckEvery, p.WarmupRows, p.MinAnomalyRows, p.CooldownSeconds
	if c.Detector == nil {
		c.Detector = detect.NewDBSCANDetector()
	}
	return p
}

// Monitor ingests rows and emits alerts through a callback. It is not
// safe for concurrent use; serialize Append calls.
type Monitor struct {
	cfg     Config
	onAlert func(Alert)

	watch *detect.Watch
	// streaming is set when Detector is the Section 7 DBSCAN detector,
	// which runs on the watch's incremental stream.
	streaming bool

	// Optional observability instruments (nil when Config.Registry is
	// nil; the obs types are nil-safe no-ops in that case).
	rowsIngested     *obs.Counter
	detectionsRun    *obs.Counter
	alertsRaised     *obs.Counter
	attrsSelected    *obs.Counter
	pointsClustered  *obs.Counter
	detectionSeconds *obs.Histogram
	lastEpsilon      *obs.Gauge
}

// New builds a monitor; onAlert fires synchronously from Append.
func New(cfg Config, onAlert func(Alert)) (*Monitor, error) {
	if onAlert == nil {
		return nil, errors.New("monitor: onAlert must be non-nil")
	}
	policy := cfg.fillDefaults()
	// A custom detector never runs the stream's detection, so the zero
	// Params it then gets are never read.
	dd, streaming := cfg.Detector.(detect.DBSCANDetector)
	m := &Monitor{
		cfg: cfg, onAlert: onAlert, streaming: streaming,
		watch: detect.NewWatch(policy, dd.Params, cfg.Workers),
	}
	if reg := cfg.Registry; reg != nil {
		m.rowsIngested = reg.NewCounterFamily(
			"dbsherlock_monitor_rows_ingested_total",
			"Statistics rows appended to the monitor's sliding window.").With()
		m.detectionsRun = reg.NewCounterFamily(
			"dbsherlock_monitor_detections_run_total",
			"Anomaly detection passes executed over the window.").With()
		m.alertsRaised = reg.NewCounterFamily(
			"dbsherlock_monitor_alerts_total",
			"Alerts raised after deduplication and cooldown.").With()
		m.attrsSelected = reg.NewCounterFamily(
			"dbsherlock_monitor_attrs_selected_total",
			"Attributes selected by potential power, summed over detection passes.").With()
		m.pointsClustered = reg.NewCounterFamily(
			"dbsherlock_monitor_points_clustered_total",
			"Rows clustered with DBSCAN, summed over detection passes.").With()
		m.detectionSeconds = reg.NewHistogramFamily(
			"dbsherlock_monitor_detection_seconds",
			"Wall-clock duration of one detection pass over the window.", nil).With()
		m.lastEpsilon = reg.NewGaugeFamily(
			"dbsherlock_monitor_last_epsilon",
			"DBSCAN epsilon chosen from the k-dist list by the most recent clustering pass.").With()
	}
	return m, nil
}

// Stats returns the monitor's lifetime counters: rows ingested,
// detection passes run, and alerts raised. All zero when no Registry
// was configured.
func (m *Monitor) Stats() (rowsIngested, detectionsRun, alertsRaised int64) {
	return m.rowsIngested.Value(), m.detectionsRun.Value(), m.alertsRaised.Value()
}

// WindowSize returns the number of rows currently buffered.
func (m *Monitor) WindowSize() int { return m.watch.Rows() }

// Append ingests a chunk of aligned statistics (e.g. one collector
// flush). The first chunk fixes the schema; later chunks must match it
// and continue the timeline.
func (m *Monitor) Append(ds *metrics.Dataset) error {
	if ds == nil || ds.Rows() == 0 {
		return nil
	}
	check, err := m.watch.Append(ds)
	if err != nil {
		return fmt.Errorf("monitor: %w", err)
	}
	m.rowsIngested.Add(int64(ds.Rows()))
	if check {
		m.runDetection()
	}
	return nil
}

// runDetection runs one detection pass over the window and raises an
// alert for a finding the watch accepts.
func (m *Monitor) runDetection() {
	m.detectionsRun.Inc()
	start := time.Now()
	defer func() { m.detectionSeconds.Observe(time.Since(start)) }()

	var window *metrics.Dataset // materialized lazily, on the alert path
	var region *metrics.Region
	var selected []string
	if m.streaming {
		// Incremental Section 7 pipeline: no window copy, and the alert
		// can carry the selected attributes without a second pass.
		res := m.watch.Detect()
		region, selected = res.Abnormal, res.SelectedAttrs
		m.attrsSelected.Add(int64(len(selected)))
		if res.Epsilon > 0 {
			m.pointsClustered.Add(int64(m.watch.Rows()))
			m.lastEpsilon.Set(res.Epsilon)
		}
	} else {
		window = m.watch.Window()
		var ok bool
		if region, ok = m.cfg.Detector.FindRegion(window); !ok {
			return
		}
	}
	from, to, ok := m.watch.Span(region)
	if !ok {
		return
	}
	if window == nil {
		window = m.watch.Window()
	}
	m.alertsRaised.Inc()
	// The streaming detector reuses its region and attribute scratch
	// across ticks; clone what escapes into the alert.
	m.onAlert(Alert{
		Window: window, Region: region.Clone(),
		FromTime: from, ToTime: to,
		SelectedAttrs: append([]string(nil), selected...),
	})
}
