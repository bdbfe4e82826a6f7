// Package detect implements DBSherlock's automatic anomaly detection
// (paper Section 7): attributes with high "potential power" — an abrupt
// sustained change measured with a sliding median filter — are selected,
// the rows are clustered with DBSCAN in the selected-attribute space,
// and small clusters (and noise points) are reported as the anomaly.
package detect

import (
	"context"

	"dbsherlock/internal/metrics"
)

// Params configure the detector. The zero value is not usable; start
// from DefaultParams.
type Params struct {
	// Tau is the sliding-window length of the median filter.
	Tau int
	// PotentialThreshold is PPt: attributes with potential power below
	// it are excluded.
	PotentialThreshold float64
	// MinPts is DBSCAN's density threshold.
	MinPts int
	// SmallClusterFraction: clusters smaller than this fraction of all
	// rows are reported as abnormal (the paper assumes the abnormal
	// region is relatively small).
	SmallClusterFraction float64
}

// DefaultParams returns the paper's defaults: tau=20, PPt=0.3, minPts=3,
// small-cluster threshold 20%.
func DefaultParams() Params {
	return Params{Tau: 20, PotentialThreshold: 0.3, MinPts: 3, SmallClusterFraction: 0.2}
}

// Result is the outcome of automatic detection.
type Result struct {
	// Abnormal selects the detected anomalous rows.
	Abnormal *metrics.Region
	// SelectedAttrs are the attributes whose potential power exceeded
	// the threshold, in dataset order.
	SelectedAttrs []string
	// Epsilon is the DBSCAN radius chosen from the k-dist list.
	Epsilon float64
}

// Detect finds anomalous rows of the dataset. It returns an empty region
// when no attribute shows potential (a flat, healthy trace).
func Detect(ds *metrics.Dataset, p Params) Result {
	res, _ := DetectCtx(context.Background(), ds, p)
	return res
}

// DetectCtx is Detect with cooperative cancellation: ctx is checked
// between the per-attribute potential-power passes and between the
// clustering stages, returning ctx.Err() promptly once it fires. An
// uncancelled call is byte-identical to Detect.
//
// Batch detection is a one-shot Stream whose window is the whole
// dataset, so it runs the same pipeline as every monitoring tick. The
// stream is discarded, so the caller owns the result.
func DetectCtx(ctx context.Context, ds *metrics.Dataset, p Params) (Result, error) {
	s := NewStream(p, ds.Rows(), 1)
	s.Append(ds)
	return s.detect(ctx)
}

// epsilon is the Section 7 rule for DBSCAN's radius over the ascending
// k-dist list Lk (k = minPts). The paper uses max(Lk)/4, which assumes
// a heavy-tailed k-dist curve (sparse outliers). When many attributes
// are selected, distances concentrate and max(Lk)/4 can fall below
// every point's k-dist, declaring everything noise; the 1.5*median(Lk)
// floor keeps eps above the dense-region neighbour distance in that
// regime.
func epsilon(lk []float64) float64 {
	eps := lk[len(lk)-1] / 4
	if floor := 1.5 * lk[len(lk)/2]; floor > eps {
		eps = floor
	}
	return eps
}
