package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"dbsherlock/internal/metrics"
)

// syntheticDataset builds a dataset with `rows` rows where the attribute
// "signal" sits near normalMean outside the anomaly window and near
// abnormalMean inside it (Gaussian noise sd), plus a pure-noise attribute
// "noise".
func syntheticDataset(t *testing.T, rows, aStart, aEnd int, normalMean, abnormalMean, sd float64, seed int64) (*metrics.Dataset, *metrics.Region, *metrics.Region) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ts := make([]int64, rows)
	signal := make([]float64, rows)
	noise := make([]float64, rows)
	for i := range ts {
		ts[i] = int64(i)
		mean := normalMean
		if i >= aStart && i < aEnd {
			mean = abnormalMean
		}
		signal[i] = mean + sd*rng.NormFloat64()
		noise[i] = 50 + 10*rng.NormFloat64()
	}
	ds := metrics.MustNewDataset(ts)
	if err := ds.AddNumeric("signal", signal); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddNumeric("noise", noise); err != nil {
		t.Fatal(err)
	}
	abnormal := metrics.RegionFromRange(rows, aStart, aEnd)
	normal := abnormal.Complement()
	return ds, abnormal, normal
}

func TestGenerateFindsShiftedAttribute(t *testing.T) {
	ds, a, n := syntheticDataset(t, 200, 120, 160, 100, 500, 15, 1)
	preds, err := Generate(ds, a, n, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 {
		t.Fatalf("got %d predicates (%v), want exactly 1 (signal only)", len(preds), preds)
	}
	p := preds[0]
	if p.Attr != "signal" || !p.HasLower {
		t.Fatalf("predicate = %v, want lower-bounded predicate on signal", p)
	}
	// The bound must separate the two clusters.
	if p.Lower < 150 || p.Lower > 480 {
		t.Errorf("lower bound %v should fall between the clusters", p.Lower)
	}
	if sp := SeparationPower(p, ds, a, n); sp < 0.9 {
		t.Errorf("separation power = %v, want > 0.9", sp)
	}
}

func TestGenerateDirectionDownward(t *testing.T) {
	// An attribute that DROPS during the anomaly (network congestion
	// style) must produce an upper-bounded predicate.
	ds, a, n := syntheticDataset(t, 200, 100, 150, 800, 100, 20, 2)
	preds, err := Generate(ds, a, n, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 || !preds[0].HasUpper || preds[0].HasLower {
		t.Fatalf("preds = %v, want single upper-bounded predicate", preds)
	}
}

func TestGenerateThetaFiltersWeakShifts(t *testing.T) {
	// Shift is real but small relative to range: normalized difference
	// ~0.1 < theta 0.2 -> no predicate. One wild outlier row stretches
	// the range so the shift normalizes small.
	ds, a, n := syntheticDataset(t, 200, 100, 150, 100, 140, 2, 3)
	col, _ := ds.Column("signal")
	col.Num[0] = 500 // outlier stretches [min,max]
	preds, err := Generate(ds, a, n, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range preds {
		if p.Attr == "signal" {
			t.Errorf("theta should have filtered the weak shift, got %v", p)
		}
	}
	// With a permissive theta the predicate appears.
	params := DefaultParams()
	params.Theta = 0.01
	preds, err = Generate(ds, a, n, params)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range preds {
		if p.Attr == "signal" {
			found = true
		}
	}
	if !found {
		t.Error("theta=0.01 should admit the weak shift")
	}
}

func TestGenerateCategorical(t *testing.T) {
	rows := 100
	ts := make([]int64, rows)
	vals := make([]string, rows)
	for i := range ts {
		ts[i] = int64(i)
		if i >= 60 && i < 80 {
			vals[i] = "sync_flush"
		} else {
			vals[i] = "normal"
		}
	}
	ds := metrics.MustNewDataset(ts)
	if err := ds.AddCategorical("state", vals); err != nil {
		t.Fatal(err)
	}
	a := metrics.RegionFromRange(rows, 60, 80)
	n := a.Complement()
	preds, err := Generate(ds, a, n, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 || preds[0].Type != metrics.Categorical {
		t.Fatalf("preds = %v, want one categorical predicate", preds)
	}
	if len(preds[0].Categories) != 1 || preds[0].Categories[0] != "sync_flush" {
		t.Errorf("categories = %v, want [sync_flush]", preds[0].Categories)
	}
}

func TestGenerateCategoricalConstantYieldsNothing(t *testing.T) {
	rows := 50
	ts := make([]int64, rows)
	vals := make([]string, rows)
	for i := range ts {
		ts[i] = int64(i)
		vals[i] = "on"
	}
	ds := metrics.MustNewDataset(ts)
	if err := ds.AddCategorical("cfg", vals); err != nil {
		t.Fatal(err)
	}
	a := metrics.RegionFromRange(rows, 10, 20)
	preds, err := Generate(ds, a, a.Complement(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// The single value occurs more often in the (larger) normal region:
	// its partition is Normal, so no predicate (invariants are not
	// explanations, Section 2.4).
	if len(preds) != 0 {
		t.Errorf("constant categorical produced %v", preds)
	}
}

func TestGenerateInputValidation(t *testing.T) {
	ds, a, n := syntheticDataset(t, 20, 5, 10, 0, 10, 1, 4)
	if _, err := Generate(nil, a, n, DefaultParams()); err == nil {
		t.Error("nil dataset: want error")
	}
	if _, err := Generate(ds, metrics.NewRegion(20), n, DefaultParams()); err == nil {
		t.Error("empty abnormal region: want error")
	}
	if _, err := Generate(ds, a, metrics.NewRegion(20), DefaultParams()); err == nil {
		t.Error("empty normal region: want error")
	}
	if _, err := Generate(ds, a, a, DefaultParams()); err == nil {
		t.Error("overlapping regions: want error")
	}
	bad := DefaultParams()
	bad.NumPartitions = 1
	if _, err := Generate(ds, a, n, bad); err == nil {
		t.Error("bad params: want error")
	}
	bad = DefaultParams()
	bad.Delta = 0
	if _, err := Generate(ds, a, n, bad); err == nil {
		t.Error("zero delta: want error")
	}
	bad = DefaultParams()
	bad.Theta = 1.5
	if _, err := Generate(ds, a, n, bad); err == nil {
		t.Error("theta > 1: want error")
	}
}

func TestGenerateWithoutGapFillingCollapses(t *testing.T) {
	// Table 6 (Appendix D): without gap-filling, abnormal partitions are
	// scattered across the space and almost never form one block.
	ds, a, n := syntheticDataset(t, 200, 120, 160, 100, 500, 15, 5)
	params := DefaultParams()
	params.DisableGapFilling = true
	preds, err := Generate(ds, a, n, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 0 {
		t.Errorf("without gap filling got %v, want none (sparse partitions)", preds)
	}
}

func TestGenerateNoisyBoundaryStillFindsPredicate(t *testing.T) {
	// Overlapping clusters plus a sloppy region boundary: filtering and
	// gap-filling must still recover a single block (Section 4.3-4.4).
	ds, a, n := syntheticDataset(t, 300, 150, 210, 100, 260, 35, 6)
	// User error: abnormal region off by 5 seconds on each side.
	sloppy := metrics.RegionFromRange(300, 145, 205)
	normal := sloppy.Complement()
	preds, err := Generate(ds, sloppy, normal, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var sig *Predicate
	for i := range preds {
		if preds[i].Attr == "signal" {
			sig = &preds[i]
		}
	}
	if sig == nil {
		t.Fatalf("no predicate on signal despite 160-sigma shift; preds=%v", preds)
	}
	if sp := SeparationPower(*sig, ds, a, n); sp < 0.7 {
		t.Errorf("separation power vs TRUE regions = %v, want > 0.7", sp)
	}
}

func TestPredicateMatching(t *testing.T) {
	p := Predicate{Attr: "x", Type: metrics.Numeric, HasLower: true, Lower: 10}
	if p.MatchesNumeric(10) || !p.MatchesNumeric(10.01) {
		t.Error("lower bound must be strict")
	}
	p = Predicate{Attr: "x", Type: metrics.Numeric, HasUpper: true, Upper: 5}
	if p.MatchesNumeric(5) || !p.MatchesNumeric(4.99) {
		t.Error("upper bound must be strict")
	}
	p = Predicate{Attr: "x", Type: metrics.Numeric, HasLower: true, Lower: 1, HasUpper: true, Upper: 3}
	if !p.MatchesNumeric(2) || p.MatchesNumeric(0) || p.MatchesNumeric(4) {
		t.Error("range predicate mismatch")
	}
	empty := Predicate{Attr: "x", Type: metrics.Numeric}
	if empty.MatchesNumeric(1) {
		t.Error("empty numeric predicate matches nothing")
	}
	c := Predicate{Attr: "c", Type: metrics.Categorical, Categories: []string{"a", "b"}}
	if !c.MatchesCategorical("a") || c.MatchesCategorical("z") {
		t.Error("categorical matching broken")
	}
	if c.MatchesNumeric(1) {
		t.Error("categorical predicate must not match numerics")
	}
}

func TestPredicateString(t *testing.T) {
	tests := []struct {
		p    Predicate
		want string
	}{
		{Predicate{Attr: "x", Type: metrics.Numeric, HasLower: true, Lower: 10}, "x > 10"},
		{Predicate{Attr: "x", Type: metrics.Numeric, HasUpper: true, Upper: 5}, "x < 5"},
		{Predicate{Attr: "x", Type: metrics.Numeric, HasLower: true, Lower: 1, HasUpper: true, Upper: 2}, "1 < x < 2"},
		{Predicate{Attr: "c", Type: metrics.Categorical, Categories: []string{"a", "b"}}, "c ∈ {a, b}"},
		// Bounds render as fmt's %.4g renders them, edge values
		// included, and a name longer than String's stack buffer.
		{Predicate{Attr: "x", Type: metrics.Numeric, HasLower: true, Lower: math.Inf(-1), HasUpper: true, Upper: math.Inf(1)}, "-Inf < x < +Inf"},
		{Predicate{Attr: "x", Type: metrics.Numeric, HasLower: true, Lower: math.NaN()}, "x > NaN"},
		{Predicate{Attr: "x", Type: metrics.Numeric, HasUpper: true, Upper: math.Copysign(0, -1)}, "x < -0"},
		{Predicate{Attr: "x", Type: metrics.Numeric, HasLower: true, Lower: 5e-324, HasUpper: true, Upper: math.MaxFloat64}, "4.941e-324 < x < 1.798e+308"},
		{Predicate{Attr: "x", Type: metrics.Numeric, HasLower: true, Lower: 1e21}, "x > 1e+21"},
		{Predicate{Attr: "cpu_usage", Type: metrics.Numeric, HasLower: true, Lower: 123456, HasUpper: true, Upper: 0.00012345}, "1.235e+05 < cpu_usage < 0.0001234"},
		{Predicate{Attr: "x", Type: metrics.Numeric, HasUpper: true, Upper: -2.5}, "x < -2.5"},
		{Predicate{Attr: strings.Repeat("a", 70), Type: metrics.Numeric, HasLower: true, Lower: 1, HasUpper: true, Upper: 2}, "1 < " + strings.Repeat("a", 70) + " < 2"},
	}
	for _, tc := range tests {
		if got := tc.p.String(); got != tc.want {
			t.Errorf("String = %q, want %q", got, tc.want)
		}
	}
}

func TestMatchesAll(t *testing.T) {
	ds, a, _ := syntheticDataset(t, 50, 20, 30, 0, 100, 1, 7)
	preds := []Predicate{{Attr: "signal", Type: metrics.Numeric, HasLower: true, Lower: 50}}
	for _, i := range a.Indices() {
		if !MatchesAll(preds, ds, i) {
			t.Errorf("row %d should match", i)
		}
	}
	if MatchesAll(nil, ds, 25) {
		t.Error("empty conjunct matches nothing")
	}
}

func TestSeparationPowerBounds(t *testing.T) {
	ds, a, n := syntheticDataset(t, 100, 40, 60, 0, 100, 1, 8)
	perfect := Predicate{Attr: "signal", Type: metrics.Numeric, HasLower: true, Lower: 50}
	if sp := SeparationPower(perfect, ds, a, n); math.Abs(sp-1) > 0.01 {
		t.Errorf("perfect predicate SP = %v, want ~1", sp)
	}
	inverted := Predicate{Attr: "signal", Type: metrics.Numeric, HasUpper: true, Upper: 50}
	if sp := SeparationPower(inverted, ds, a, n); math.Abs(sp+1) > 0.01 {
		t.Errorf("inverted predicate SP = %v, want ~-1", sp)
	}
	if sp := SeparationPower(perfect, ds, metrics.NewRegion(100), n); sp != 0 {
		t.Errorf("empty region SP = %v, want 0", sp)
	}
}

func TestPartitionSeparation(t *testing.T) {
	ds, a, n := syntheticDataset(t, 200, 100, 150, 100, 500, 10, 9)
	p := Predicate{Attr: "signal", Type: metrics.Numeric, HasLower: true, Lower: 300}
	if sep := PartitionSeparation(p, ds, a, n, DefaultParams()); sep < 0.9 {
		t.Errorf("partition separation = %v, want > 0.9", sep)
	}
	wrong := Predicate{Attr: "noise", Type: metrics.Numeric, HasLower: true, Lower: 300}
	if sep := PartitionSeparation(wrong, ds, a, n, DefaultParams()); sep > 0.3 {
		t.Errorf("irrelevant predicate separation = %v, want near 0", sep)
	}
	missing := Predicate{Attr: "ghost", Type: metrics.Numeric, HasLower: true, Lower: 1}
	if sep := PartitionSeparation(missing, ds, a, n, DefaultParams()); sep != 0 {
		t.Errorf("missing attribute separation = %v, want 0", sep)
	}
}

func TestPartitionSeparationCategorical(t *testing.T) {
	rows := 100
	ts := make([]int64, rows)
	vals := make([]string, rows)
	for i := range ts {
		ts[i] = int64(i)
		if i >= 60 && i < 80 {
			vals[i] = "bad"
		} else {
			vals[i] = "ok"
		}
	}
	ds := metrics.MustNewDataset(ts)
	if err := ds.AddCategorical("state", vals); err != nil {
		t.Fatal(err)
	}
	a := metrics.RegionFromRange(rows, 60, 80)
	n := a.Complement()
	p := Predicate{Attr: "state", Type: metrics.Categorical, Categories: []string{"bad"}}
	if sep := PartitionSeparation(p, ds, a, n, DefaultParams()); sep != 1 {
		t.Errorf("categorical separation = %v, want 1", sep)
	}
}
