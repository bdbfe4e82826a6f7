package collector

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"dbsherlock/internal/metrics"
	"dbsherlock/internal/workload"
)

func simLogs(t *testing.T, seconds int) *workload.RawLogs {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Seed = 17
	return workload.NewSimulator(cfg).Run(5000, seconds, nil)
}

func TestAlignProducesOneRowPerSecond(t *testing.T) {
	logs := simLogs(t, 30)
	ds, err := Align(logs)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Rows() != 30 {
		t.Errorf("Rows = %d, want 30", ds.Rows())
	}
	want := len(workload.TxAttrs(logs.Mix)) + len(workload.OSAttrs()) +
		len(workload.DBAttrs()) + len(workload.CategoricalAttrs())
	if ds.NumAttrs() != want {
		t.Errorf("NumAttrs = %d, want %d", ds.NumAttrs(), want)
	}
	ts := ds.Timestamps()
	for i := 1; i < len(ts); i++ {
		if ts[i] != ts[i-1]+1 {
			t.Fatalf("timestamps not contiguous at %d: %d after %d", i, ts[i], ts[i-1])
		}
	}
}

func TestAlignColumnOrderIsStable(t *testing.T) {
	a, err := Align(simLogs(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Align(simLogs(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	aAttrs, bAttrs := a.Attributes(), b.Attributes()
	for i := range aAttrs {
		if aAttrs[i] != bAttrs[i] {
			t.Fatalf("column %d differs: %v vs %v", i, aAttrs[i], bAttrs[i])
		}
	}
	if aAttrs[0].Name != workload.AttrTxCount {
		t.Errorf("first column = %q, want %q", aAttrs[0].Name, workload.AttrTxCount)
	}
}

func TestAlignDropsIncompleteSeconds(t *testing.T) {
	logs := simLogs(t, 10)
	logs.OS = logs.OS[:9] // drop one OS sample: that second is incomplete
	ds, err := Align(logs)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Rows() != 9 {
		t.Errorf("Rows = %d, want 9 (incomplete second dropped)", ds.Rows())
	}
}

func TestAlignEmptyFails(t *testing.T) {
	if _, err := Align(&workload.RawLogs{Mix: workload.TPCCMix()}); err == nil {
		t.Error("Align on empty logs: want error")
	}
}

// edgeDataset holds the values a decimal round trip most easily gets
// wrong: signed zero, the smallest subnormal, the float64 extremes,
// 2^53+1 (which float64 rounds to 2^53), NaN and both infinities, next
// to categorical values that need CSV quoting.
func edgeDataset(t *testing.T) *metrics.Dataset {
	t.Helper()
	ds := metrics.MustNewDataset([]int64{-3, 0, 1, 2, 3, 4, 5, 1 << 40})
	if err := ds.AddNumeric("edge", []float64{
		math.Copysign(0, -1), 5e-324, math.MaxFloat64, -math.MaxFloat64,
		1<<53 + 1, math.NaN(), math.Inf(1), math.Inf(-1),
	}); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddCategorical("state", []string{"", "a,b", `say "hi"`, "line\nbreak", " pad ", "ok", "ok", "x"}); err != nil {
		t.Fatal(err)
	}
	return ds
}

// datasetDiff describes the first difference of got from want, or
// returns "": the schema, every timestamp and categorical value exactly,
// and every numeric cell bit for bit, so -0 differs from +0 and a NaN
// matches only the same NaN.
func datasetDiff(want, got *metrics.Dataset) string {
	if got.Rows() != want.Rows() || got.NumAttrs() != want.NumAttrs() {
		return fmt.Sprintf("shape %dx%d, want %dx%d", got.Rows(), got.NumAttrs(), want.Rows(), want.NumAttrs())
	}
	wts, gts := want.Timestamps(), got.Timestamps()
	for i := range wts {
		if gts[i] != wts[i] {
			return fmt.Sprintf("row %d timestamp %d, want %d", i, gts[i], wts[i])
		}
	}
	for j := 0; j < want.NumAttrs(); j++ {
		w, g := want.ColumnAt(j), got.ColumnAt(j)
		if g.Attr != w.Attr {
			return fmt.Sprintf("column %d is %v, want %v", j, g.Attr, w.Attr)
		}
		for i := range wts {
			if w.Attr.Type == metrics.Numeric {
				if math.Float64bits(g.Num[i]) != math.Float64bits(w.Num[i]) {
					return fmt.Sprintf("column %q row %d: %v (%#016x), want %v (%#016x)", w.Attr.Name, i,
						g.Num[i], math.Float64bits(g.Num[i]), w.Num[i], math.Float64bits(w.Num[i]))
				}
			} else if g.Cat[i] != w.Cat[i] {
				return fmt.Sprintf("column %q row %d: %q, want %q", w.Attr.Name, i, g.Cat[i], w.Cat[i])
			}
		}
	}
	return ""
}

func TestCSVRoundTrip(t *testing.T) {
	sim, err := Align(simLogs(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	for name, ds := range map[string]*metrics.Dataset{"simulated": sim, "edge values": edgeDataset(t)} {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, ds); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := datasetDiff(ds, back); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
}

func TestReadCSVRejectsMalformed(t *testing.T) {
	cases := []string{
		"",
		"nope,a\n1,2\n",
		"timestamp,a\nxx,2\n",
		"timestamp,a\n1,notanumber\n",
		"timestamp,a\n1,1e400\n", // out of float64 range
		"timestamp,a\n1,1e\n",
	}
	for _, in := range cases {
		if _, err := ReadCSV(bytes.NewBufferString(in)); err == nil {
			t.Errorf("ReadCSV(%q): want error", in)
		}
	}
}
