package detect

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"dbsherlock/internal/anomaly"
	"dbsherlock/internal/collector"
	"dbsherlock/internal/metrics"
	"dbsherlock/internal/workload"
)

// anomalyTrace is a 600-row simulated trace, the default detection
// window, with one 60-s injection of kind starting at row 400.
func anomalyTrace(kind anomaly.Kind, seed int64) *metrics.Dataset {
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	injs := []anomaly.Injection{{Kind: kind, Start: 400, Duration: 60}}
	ds, err := collector.Align(workload.NewSimulator(cfg).Run(1000, 600, anomaly.Perturb(injs)))
	if err != nil {
		panic(err)
	}
	return ds
}

// scaleColumn copies ds with column col multiplied by f.
func scaleColumn(ds *metrics.Dataset, col int, f float64) *metrics.Dataset {
	out := metrics.MustNewDataset(ds.Timestamps())
	for i := 0; i < ds.NumAttrs(); i++ {
		c := ds.ColumnAt(i)
		var err error
		if c.Attr.Type != metrics.Numeric {
			err = out.AddCategorical(c.Attr.Name, c.Cat)
		} else {
			vals := slices.Clone(c.Num)
			if i == col {
				for r := range vals {
					vals[r] *= f
				}
			}
			err = out.AddNumeric(c.Attr.Name, vals)
		}
		if err != nil {
			panic(err)
		}
	}
	return out
}

// TestDetectPowerOfTwoScaling is a metamorphic property of Section 7.
// Multiplying a column by 2^k is exact while its values stay normal,
// and Equation 2 subtracts the scaled minimum and divides by the scaled
// span, so the scale divides out exactly and every normalized value is
// unchanged. Potential power, the point set, the k-dist list and the
// clusters are then the same: Detect's selected attributes, abnormal
// region and epsilon must be bit-identical when the first selected
// column is scaled by 2^3, 2^−3 and 2^10. It covers the ten anomaly
// kinds at seeds 1–3, each of which selects attributes and clusters,
// and guards the stream's raw-unit state, where a normalization slip
// would hide.
func TestDetectPowerOfTwoScaling(t *testing.T) {
	p := DefaultParams()
	for _, kind := range anomaly.Kinds() {
		for seed := int64(1); seed <= 3; seed++ {
			ds := anomalyTrace(kind, seed)
			base := Detect(ds, p)
			if base.Epsilon <= 0 {
				t.Fatalf("%s/seed=%d: detection selected %d attributes and did not cluster; the property would be vacuous",
					kind, seed, len(base.SelectedAttrs))
			}
			col := -1
			for i := 0; i < ds.NumAttrs() && col < 0; i++ {
				if ds.ColumnAt(i).Attr.Name == base.SelectedAttrs[0] {
					col = i
				}
			}
			name := ds.ColumnAt(col).Attr.Name
			for _, k := range []int{3, -3, 10} {
				f := math.Ldexp(1, k)
				for _, v := range ds.ColumnAt(col).Num {
					if s := v * f; v != 0 && !math.IsNaN(v) && (math.Abs(v) < 0x1p-1022 || math.Abs(s) < 0x1p-1022 || math.IsInf(s, 0)) {
						t.Fatalf("%s/seed=%d: %s scaled by 2^%d leaves the normal range (%v)", kind, seed, name, k, v)
					}
				}
				got := Detect(scaleColumn(ds, col, f), p)
				requireSameResult(t, fmt.Sprintf("%s/seed=%d/%s*2^%d", kind, seed, name, k), got, base)
			}
		}
	}
}
