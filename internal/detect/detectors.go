package detect

import (
	"context"
	"fmt"
	"math"

	"dbsherlock/internal/metrics"
	"dbsherlock/internal/perfaugur"
	"dbsherlock/internal/stats"
)

// Detector is a pluggable anomaly-region finder. The paper's Section 9
// names support for alternative outlier-detection algorithms as future
// work; this interface is that extension point.
type Detector interface {
	// Name identifies the algorithm.
	Name() string
	// FindRegion returns the abnormal rows. ok is false when the
	// detector finds nothing actionable.
	FindRegion(ds *metrics.Dataset) (*metrics.Region, bool)
}

// CtxDetector is an optional Detector extension: detectors whose scan
// is expensive enough to honor cancellation mid-flight. Callers that
// hold a context should prefer FindRegionCtx when available.
type CtxDetector interface {
	Detector
	// FindRegionCtx is FindRegion under a context; it returns ctx.Err()
	// once the context fires.
	FindRegionCtx(ctx context.Context, ds *metrics.Dataset) (*metrics.Region, bool, error)
}

// DBSCANDetector is the paper's own algorithm (Section 7): potential
// power selection plus DBSCAN clustering.
type DBSCANDetector struct {
	Params Params
}

// NewDBSCANDetector returns the default Section 7 detector.
func NewDBSCANDetector() DBSCANDetector { return DBSCANDetector{Params: DefaultParams()} }

// Name implements Detector.
func (DBSCANDetector) Name() string { return "dbscan" }

// FindRegion implements Detector.
func (d DBSCANDetector) FindRegion(ds *metrics.Dataset) (*metrics.Region, bool) {
	res := Detect(ds, d.Params)
	return res.Abnormal, !res.Abnormal.Empty()
}

// FindRegionCtx implements CtxDetector: the per-attribute scan honors
// cancellation.
func (d DBSCANDetector) FindRegionCtx(ctx context.Context, ds *metrics.Dataset) (*metrics.Region, bool, error) {
	res, err := DetectCtx(ctx, ds, d.Params)
	if err != nil {
		return nil, false, err
	}
	return res.Abnormal, !res.Abnormal.Empty(), nil
}

// ThresholdDetector flags rows whose indicator deviates from the trace's
// robust baseline by more than Z robust standard deviations
// (|x - median| > Z * 1.4826 * MAD). The simplest alternative detector:
// cheap, single-indicator, spike-prone.
type ThresholdDetector struct {
	// Indicator is the attribute to threshold (e.g. average latency).
	Indicator string
	// Z is the robust z-score threshold; values <= 0 default to 3.
	Z float64
}

// Name implements Detector.
func (t ThresholdDetector) Name() string { return fmt.Sprintf("threshold(%s)", t.Indicator) }

// FindRegion implements Detector.
func (t ThresholdDetector) FindRegion(ds *metrics.Dataset) (*metrics.Region, bool) {
	rows := ds.Rows()
	col, ok := ds.Column(t.Indicator)
	if !ok || col.Num == nil {
		return metrics.NewRegion(rows), false
	}
	z := t.Z
	if z <= 0 {
		z = 3
	}
	med := stats.Median(col.Num)
	// 1.4826 scales MAD to the standard deviation of a normal
	// distribution.
	sigma := 1.4826 * stats.MAD(col.Num)
	if math.IsNaN(med) || math.IsNaN(sigma) || sigma == 0 {
		return metrics.NewRegion(rows), false
	}
	out := metrics.NewRegion(rows)
	for i, v := range col.Num {
		if !math.IsNaN(v) && math.Abs(v-med) > z*sigma {
			out.Add(i)
		}
	}
	return out, !out.Empty()
}

// PerfAugurDetector adapts the Appendix E baseline to the Detector
// interface: the single best robust interval over one indicator.
type PerfAugurDetector struct {
	Indicator string
	Params    perfaugur.Params
}

// NewPerfAugurDetector returns the baseline with its default interval
// bounds.
func NewPerfAugurDetector(indicator string) PerfAugurDetector {
	return PerfAugurDetector{Indicator: indicator, Params: perfaugur.DefaultParams()}
}

// Name implements Detector.
func (p PerfAugurDetector) Name() string { return "perfaugur" }

// FindRegion implements Detector.
func (p PerfAugurDetector) FindRegion(ds *metrics.Dataset) (*metrics.Region, bool) {
	res, ok := perfaugur.Detect(ds, p.Indicator, p.Params)
	if !ok {
		return metrics.NewRegion(ds.Rows()), false
	}
	return res.Abnormal, true
}
