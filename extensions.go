package dbsherlock

import (
	"context"
	"errors"
	"fmt"
	"io"

	"dbsherlock/internal/actions"
	"dbsherlock/internal/causal"
	"dbsherlock/internal/detect"
	"dbsherlock/internal/monitor"
)

// This file exposes the reproduction's extensions beyond the paper's
// core pipeline: the future-work features of Section 10 (remediation
// actions, remembered DBA fixes), model persistence, and pluggable
// anomaly detectors (Section 9 future work).

// Action, Recommendation, and friends re-export the remediation layer.
type (
	// Action is one corrective measure for a diagnosed cause.
	Action = actions.Action
	// Recommendation pairs a diagnosed cause with an action.
	Recommendation = actions.Recommendation
	// ActionPolicy sets the confidence bars for recommending and for
	// automatic triggering.
	ActionPolicy = actions.Policy
	// ActionTrigger executes an automatic action.
	ActionTrigger = actions.Trigger
	// Detector is a pluggable anomaly-region finder.
	Detector = detect.Detector
)

// DefaultActionPolicy recommends above the 20% confidence threshold and
// auto-triggers only near-certain diagnoses (>= 90%).
func DefaultActionPolicy() ActionPolicy { return actions.DefaultPolicy() }

// RecordRemediation stores the corrective action a DBA took for a
// diagnosed cause; it is replayed as a suggestion on future occurrences
// of the same cause (paper Section 10) and survives SaveModels.
func (a *Analyzer) RecordRemediation(cause, action string) error {
	if action == "" {
		return errors.New("dbsherlock: empty remediation")
	}
	if !a.repository().AddRemediation(cause, action) {
		return fmt.Errorf("dbsherlock: unknown cause %q", cause)
	}
	return nil
}

// Recommend turns a diagnosis into corrective-action recommendations:
// built-in remedies for the paper's ten anomaly classes plus any
// remediations recorded with RecordRemediation, gated by the policy.
func (a *Analyzer) Recommend(causes []RankedCause, policy ActionPolicy) ([]Recommendation, error) {
	rec, err := actions.NewRecommender(policy)
	if err != nil {
		return nil, err
	}
	return rec.Recommend(causes), nil
}

// SaveModels writes every learned causal model (with remediation notes)
// as versioned JSON.
func (a *Analyzer) SaveModels(w io.Writer) error { return a.repository().Save(w) }

// LoadModels replaces the analyzer's causal models with the contents of
// a SaveModels stream. The new repository is parsed fully before being
// published, so concurrent readers see either the old store or the new
// one, never a partial load.
func (a *Analyzer) LoadModels(r io.Reader) error {
	repo, err := causal.LoadRepository(r)
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.repo = repo
	a.mu.Unlock()
	return nil
}

// Built-in detectors for DetectUsing. NewDBSCANDetector is the paper's
// Section 7 algorithm (the same one Detect uses); the others are the
// "additional outlier detection algorithms" the paper leaves as future
// work.
func NewDBSCANDetector() Detector { return detect.NewDBSCANDetector() }

// NewThresholdDetector flags rows whose indicator deviates from the
// robust baseline by more than z robust standard deviations.
func NewThresholdDetector(indicator string, z float64) Detector {
	return detect.ThresholdDetector{Indicator: indicator, Z: z}
}

// NewPerfAugurDetector runs the Appendix E interval-search baseline
// over one indicator.
func NewPerfAugurDetector(indicator string) Detector {
	return detect.NewPerfAugurDetector(indicator)
}

// DetectorByName returns the built-in detector with the given name:
// "dbscan" (also the empty name), or "threshold" or "perfaugur" over
// AvgLatencyAttr, the threshold detector at z = 3.
func DetectorByName(name string) (Detector, error) {
	switch name {
	case "", "dbscan":
		return NewDBSCANDetector(), nil
	case "threshold":
		return NewThresholdDetector(AvgLatencyAttr, 3), nil
	case "perfaugur":
		return NewPerfAugurDetector(AvgLatencyAttr), nil
	default:
		return nil, fmt.Errorf("dbsherlock: unknown detector %q (want dbscan, threshold, or perfaugur)", name)
	}
}

// DetectUsing finds the abnormal region with a caller-chosen detector.
// ok is false when the detector finds nothing actionable.
func (a *Analyzer) DetectUsing(ds *Dataset, d Detector) (region *Region, ok bool, err error) {
	return a.DetectUsingContext(context.Background(), ds, d)
}

// DetectUsingContext is DetectUsing under a context. Detectors that
// implement the ctx-aware extension (the DBSCAN detector) honor
// cancellation mid-scan; for the cheap ones the context is checked
// before the scan starts.
func (a *Analyzer) DetectUsingContext(ctx context.Context, ds *Dataset, d Detector) (region *Region, ok bool, err error) {
	if ds == nil {
		return nil, false, errors.New("dbsherlock: nil dataset")
	}
	if d == nil {
		return nil, false, errors.New("dbsherlock: nil detector")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cd, isCtx := d.(detect.CtxDetector); isCtx {
		return cd.FindRegionCtx(ctx, ds)
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	region, ok = d.FindRegion(ds)
	return region, ok, nil
}

// Streaming monitoring (the always-on counterpart of the interactive
// workflow): feed collector output chunks into a Monitor and receive
// alerts as anomalies develop; diagnose each alert with Diagnose.
type (
	// Monitor watches a statistics stream with a sliding window.
	Monitor = monitor.Monitor
	// MonitorConfig tunes the window, cadence, and detector.
	MonitorConfig = monitor.Config
	// MonitorAlert reports one detected anomaly.
	MonitorAlert = monitor.Alert
)

// NewMonitor builds a streaming monitor; onAlert fires synchronously
// from Monitor.Append whenever a sustained anomaly is detected.
func NewMonitor(cfg MonitorConfig, onAlert func(MonitorAlert)) (*Monitor, error) {
	return monitor.New(cfg, onAlert)
}
