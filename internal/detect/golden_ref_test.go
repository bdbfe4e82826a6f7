package detect

import (
	"context"
	"math"
	"sort"

	"dbsherlock/internal/dbscan"
	"dbsherlock/internal/metrics"
	"dbsherlock/internal/stats"
)

// This file holds the reference the detector is pinned to: the batch
// Section 7 pipeline as it was before batch detection became a one-shot
// Stream and both went through dbscan.KDistCluster, with verbatim
// copies of the naive k-dist, DBSCAN and cluster-size code it called,
// so the reference runs none of the code it checks. Detect, every
// Stream tick (stream_test.go) and, through them, the monitor and
// ingest goldens are held byte-identical to it. internal/monitor's
// refMonitor still calls detect.Detect, which is now the new pass; the
// pre-change numerics are pinned here.

// PotentialPower computes Equation (4) for one attribute: the maximum
// absolute difference between the overall median and the median of any
// sliding window of length tau, over the normalized values. It is high
// for attributes with an abrupt, sustained level shift and low for flat
// or white-noise attributes.
func PotentialPower(values []float64, tau int) float64 {
	norm := stats.Normalize(values)
	overall := stats.Median(norm)
	if math.IsNaN(overall) {
		return 0
	}
	var pp float64
	for _, m := range stats.SlidingWindowMedians(norm, tau) {
		if d := math.Abs(overall - m); d > pp {
			pp = d
		}
	}
	return pp
}

// refDetect is the batch Detect from before batch detection became a
// one-shot Stream, verbatim.
func refDetect(ds *metrics.Dataset, p Params) Result {
	res, _ := refDetectCtx(context.Background(), ds, p)
	return res
}

// refDetectCtx is the batch DetectCtx body from before batch detection
// became a one-shot Stream, verbatim but for the refKDist, refCluster
// and refSizes names.
func refDetectCtx(ctx context.Context, ds *metrics.Dataset, p Params) (Result, error) {
	done := ctx.Done()
	rows := ds.Rows()
	res := Result{Abnormal: metrics.NewRegion(rows)}
	if rows == 0 {
		return res, nil
	}

	// Select attributes with an abrupt sustained change (Equation 4).
	var cols [][]float64
	for i := 0; i < ds.NumAttrs(); i++ {
		if done != nil {
			select {
			case <-done:
				return res, ctx.Err()
			default:
			}
		}
		col := ds.ColumnAt(i)
		if col.Attr.Type != metrics.Numeric {
			continue
		}
		if PotentialPower(col.Num, p.Tau) > p.PotentialThreshold {
			res.SelectedAttrs = append(res.SelectedAttrs, col.Attr.Name)
			cols = append(cols, stats.Normalize(col.Num))
		}
	}
	if len(cols) == 0 {
		return res, nil
	}

	points := make([]dbscan.Point, rows)
	for i := 0; i < rows; i++ {
		pt := make(dbscan.Point, len(cols))
		for c, col := range cols {
			v := col[i]
			if math.IsNaN(v) {
				v = 0
			}
			pt[c] = v
		}
		points[i] = pt
	}
	if done != nil {
		select {
		case <-done:
			return res, ctx.Err()
		default:
		}
	}

	// eps from the k-dist list with k = minPts (Section 7). The paper
	// uses max(Lk)/4, which assumes a heavy-tailed k-dist curve (sparse
	// outliers). When many attributes are selected, distances
	// concentrate and max(Lk)/4 can fall below every point's k-dist,
	// declaring everything noise; the 1.5*median(Lk) floor keeps eps
	// above the dense-region neighbour distance in that regime.
	lk := refKDist(points, p.MinPts)
	eps := lk[len(lk)-1] / 4
	if floor := 1.5 * lk[len(lk)/2]; floor > eps {
		eps = floor
	}
	if eps <= 0 {
		// Degenerate geometry (all selected attributes constant over the
		// selected rows); nothing separates.
		return res, nil
	}
	res.Epsilon = eps
	if done != nil {
		select {
		case <-done:
			return res, ctx.Err()
		default:
		}
	}

	labels := refCluster(points, eps, p.MinPts)
	sizes := refSizes(labels)
	small := int(p.SmallClusterFraction * float64(rows))
	for i, l := range labels {
		if l == dbscan.Noise || sizes[l] < small {
			res.Abnormal.Add(i)
		}
	}
	return res, nil
}

// refKDist is the naive O(n² log n) k-dist list, verbatim.
func refKDist(points []dbscan.Point, k int) []float64 {
	if len(points) == 0 || k <= 0 {
		return nil
	}
	out := make([]float64, 0, len(points))
	dists := make([]float64, 0, len(points)-1)
	for i := range points {
		dists = dists[:0]
		for j := range points {
			if i != j {
				dists = append(dists, refDistance(points[i], points[j]))
			}
		}
		if len(dists) == 0 {
			out = append(out, 0)
			continue
		}
		sort.Float64s(dists)
		idx := k - 1
		if idx >= len(dists) {
			idx = len(dists) - 1
		}
		out = append(out, dists[idx])
	}
	sort.Float64s(out)
	return out
}

// refCluster is the seed DBSCAN, verbatim.
func refCluster(points []dbscan.Point, eps float64, minPts int) []int {
	const unvisited = -2
	labels := make([]int, len(points))
	for i := range labels {
		labels[i] = unvisited
	}
	neighbours := func(i int) []int {
		var out []int
		for j := range points {
			if refDistance(points[i], points[j]) <= eps {
				out = append(out, j)
			}
		}
		return out
	}
	next := 0
	for i := range points {
		if labels[i] != unvisited {
			continue
		}
		seeds := neighbours(i)
		if len(seeds) < minPts {
			labels[i] = dbscan.Noise
			continue
		}
		id := next
		next++
		labels[i] = id
		for q := 0; q < len(seeds); q++ {
			j := seeds[q]
			if labels[j] == dbscan.Noise {
				labels[j] = id
			}
			if labels[j] != unvisited {
				continue
			}
			labels[j] = id
			jn := neighbours(j)
			if len(jn) >= minPts {
				seeds = append(seeds, jn...)
			}
		}
	}
	for i, l := range labels {
		if l == unvisited {
			labels[i] = dbscan.Noise
		}
	}
	return labels
}

// refSizes returns the number of points in each cluster id (noise
// excluded), verbatim.
func refSizes(labels []int) map[int]int {
	out := make(map[int]int)
	for _, l := range labels {
		if l != dbscan.Noise {
			out[l]++
		}
	}
	return out
}

// refDistance is the Euclidean distance, verbatim.
func refDistance(a, b dbscan.Point) float64 {
	if len(a) != len(b) {
		panic("dbscan: dimension mismatch")
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
