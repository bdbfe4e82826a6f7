package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func seqTimestamps(n int) []int64 {
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = int64(1000 + i)
	}
	return ts
}

func TestNewDatasetRejectsUnsortedTimestamps(t *testing.T) {
	cases := [][]int64{
		{5, 4},
		{1, 2, 2},
		{10, 20, 15},
	}
	for _, ts := range cases {
		if _, err := NewDataset(ts); err == nil {
			t.Errorf("NewDataset(%v): want error, got nil", ts)
		}
	}
}

func TestNewDatasetAcceptsValidTimestamps(t *testing.T) {
	for _, ts := range [][]int64{nil, {}, {7}, {1, 2, 3}} {
		if _, err := NewDataset(ts); err != nil {
			t.Errorf("NewDataset(%v): unexpected error %v", ts, err)
		}
	}
}

func TestAddColumnValidation(t *testing.T) {
	ds := MustNewDataset(seqTimestamps(3))
	if err := ds.AddNumeric("a", []float64{1, 2, 3}); err != nil {
		t.Fatalf("AddNumeric: %v", err)
	}
	if err := ds.AddNumeric("a", []float64{1, 2, 3}); err == nil {
		t.Error("duplicate column name: want error")
	}
	if err := ds.AddNumeric("b", []float64{1, 2}); err == nil {
		t.Error("wrong length: want error")
	}
	if err := ds.AddNumeric("", []float64{1, 2, 3}); err == nil {
		t.Error("empty name: want error")
	}
	if err := ds.AddCategorical("c", []string{"x", "y", "x"}); err != nil {
		t.Fatalf("AddCategorical: %v", err)
	}
	if ds.NumAttrs() != 2 {
		t.Errorf("NumAttrs = %d, want 2", ds.NumAttrs())
	}
}

func TestColumnLookup(t *testing.T) {
	ds := MustNewDataset(seqTimestamps(2))
	if err := ds.AddNumeric("lat", []float64{1.5, 2.5}); err != nil {
		t.Fatal(err)
	}
	col, ok := ds.Column("lat")
	if !ok {
		t.Fatal("Column(lat) not found")
	}
	if col.Attr.Type != Numeric || col.Num[1] != 2.5 {
		t.Errorf("unexpected column %+v", col)
	}
	if _, ok := ds.Column("missing"); ok {
		t.Error("Column(missing): want !ok")
	}
	if !ds.HasColumn("lat") || ds.HasColumn("missing") {
		t.Error("HasColumn mismatch")
	}
}

func TestNumericRange(t *testing.T) {
	ds := MustNewDataset(seqTimestamps(4))
	if err := ds.AddNumeric("v", []float64{3, math.NaN(), -1, 7}); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddCategorical("c", []string{"a", "a", "b", "a"}); err != nil {
		t.Fatal(err)
	}
	min, max, ok := ds.NumericRange("v")
	if !ok || min != -1 || max != 7 {
		t.Errorf("NumericRange(v) = %v,%v,%v; want -1,7,true", min, max, ok)
	}
	if _, _, ok := ds.NumericRange("c"); ok {
		t.Error("NumericRange on categorical: want !ok")
	}
	ds2 := MustNewDataset(seqTimestamps(2))
	if err := ds2.AddNumeric("nan", []float64{math.NaN(), math.NaN()}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ds2.NumericRange("nan"); ok {
		t.Error("NumericRange all-NaN: want !ok")
	}
}

func TestRowsInTimeRange(t *testing.T) {
	ds := MustNewDataset([]int64{10, 11, 12, 13, 14})
	tests := []struct {
		from, to int64
		lo, hi   int
	}{
		{10, 15, 0, 5},
		{11, 13, 1, 3},
		{0, 10, 0, 0},
		{15, 99, 5, 5},
		{12, 12, 2, 2},
	}
	for _, tc := range tests {
		lo, hi := ds.RowsInTimeRange(tc.from, tc.to)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("RowsInTimeRange(%d,%d) = %d,%d; want %d,%d",
				tc.from, tc.to, lo, hi, tc.lo, tc.hi)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	ds := MustNewDataset(seqTimestamps(2))
	if err := ds.AddNumeric("v", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddCategorical("c", []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	cp := ds.Clone()
	col, _ := cp.Column("v")
	col.Num[0] = 99
	ccol, _ := cp.Column("c")
	ccol.Cat[0] = "z"
	orig, _ := ds.Column("v")
	if orig.Num[0] != 1 {
		t.Error("Clone shares numeric storage with original")
	}
	origC, _ := ds.Column("c")
	if origC.Cat[0] != "x" {
		t.Error("Clone shares categorical storage with original")
	}
}

func TestUniqueCategories(t *testing.T) {
	ds := MustNewDataset(seqTimestamps(4))
	if err := ds.AddCategorical("c", []string{"b", "a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	got, ok := ds.UniqueCategories("c")
	if !ok {
		t.Fatal("UniqueCategories: !ok")
	}
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("UniqueCategories = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("UniqueCategories = %v, want %v", got, want)
		}
	}
}

func TestAttributesOrder(t *testing.T) {
	ds := MustNewDataset(seqTimestamps(1))
	names := []string{"z", "a", "m"}
	for _, n := range names {
		if err := ds.AddNumeric(n, []float64{0}); err != nil {
			t.Fatal(err)
		}
	}
	attrs := ds.Attributes()
	for i, n := range names {
		if attrs[i].Name != n {
			t.Errorf("attrs[%d] = %q, want %q (insertion order)", i, attrs[i].Name, n)
		}
	}
}

// Property: for any pair (from, to), RowsInTimeRange returns a range that
// contains exactly the rows with from <= ts < to.
func TestRowsInTimeRangeProperty(t *testing.T) {
	ds := MustNewDataset(seqTimestamps(50))
	f := func(a, b int16) bool {
		from, to := int64(a), int64(b)
		lo, hi := ds.RowsInTimeRange(from, to)
		if lo > hi && from <= to {
			// lo can exceed hi only when from > to (degenerate query).
			return false
		}
		for i, ts := range ds.Timestamps() {
			in := ts >= from && ts < to
			got := i >= lo && i < hi
			if in != got {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRowsInTimeRangeBoundaries pins the degenerate query shapes: an
// empty dataset, from == to, and ranges falling entirely outside the
// timestamp span must all yield valid (possibly empty) half-open
// ranges.
func TestRowsInTimeRangeBoundaries(t *testing.T) {
	empty := MustNewDataset(nil)
	if lo, hi := empty.RowsInTimeRange(0, 100); lo != 0 || hi != 0 {
		t.Errorf("empty dataset: RowsInTimeRange(0,100) = %d,%d; want 0,0", lo, hi)
	}
	ds := MustNewDataset([]int64{10, 20, 30})
	tests := []struct {
		name     string
		from, to int64
		lo, hi   int
	}{
		{"from==to on a timestamp", 20, 20, 1, 1},
		{"from==to between timestamps", 15, 15, 1, 1},
		{"entirely before", -50, 5, 0, 0},
		{"entirely after", 31, 99, 3, 3},
		{"to before first", 0, 10, 0, 0},
		{"from past last", 30, 30, 2, 2},
		{"inverted (from > to)", 25, 15, 2, 1},
		{"full span plus slack", -100, 100, 0, 3},
	}
	for _, tc := range tests {
		lo, hi := ds.RowsInTimeRange(tc.from, tc.to)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("%s: RowsInTimeRange(%d,%d) = %d,%d; want %d,%d",
				tc.name, tc.from, tc.to, lo, hi, tc.lo, tc.hi)
		}
	}
}

// TestCategoricalDictionary pins the dictionary encoding AddCategorical
// builds: ids index a first-occurrence-ordered dictionary that decodes
// back to the original values, and the input slice is never mutated.
func TestCategoricalDictionary(t *testing.T) {
	in := []string{"b", "a", "b", "c", "a"}
	orig := append([]string(nil), in...)
	ds := MustNewDataset(seqTimestamps(len(in)))
	if err := ds.AddCategorical("c", in); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != orig[i] {
			t.Fatal("AddCategorical mutated its input slice")
		}
	}
	col, _ := ds.Column("c")
	wantDict := []string{"b", "a", "c"}
	if len(col.CatDict) != len(wantDict) {
		t.Fatalf("CatDict = %v, want %v", col.CatDict, wantDict)
	}
	for i := range wantDict {
		if col.CatDict[i] != wantDict[i] {
			t.Fatalf("CatDict = %v, want %v (first-occurrence order)", col.CatDict, wantDict)
		}
	}
	if len(col.CatIDs) != len(in) {
		t.Fatalf("CatIDs has %d entries, want %d", len(col.CatIDs), len(in))
	}
	for i, id := range col.CatIDs {
		if id < 0 || int(id) >= len(col.CatDict) {
			t.Fatalf("CatIDs[%d] = %d out of dictionary range", i, id)
		}
		if col.CatDict[id] != in[i] {
			t.Errorf("row %d decodes to %q, want %q", i, col.CatDict[id], in[i])
		}
	}
}

// TestCategoricalDictionaryEmpty covers the zero-row column: encoding
// must not invent entries and UniqueCategories keeps its nil contract.
func TestCategoricalDictionaryEmpty(t *testing.T) {
	ds := MustNewDataset(nil)
	if err := ds.AddCategorical("c", nil); err != nil {
		t.Fatal(err)
	}
	col, _ := ds.Column("c")
	if len(col.CatIDs) != 0 || len(col.CatDict) != 0 {
		t.Fatalf("empty column encoded as ids=%v dict=%v", col.CatIDs, col.CatDict)
	}
	vals, ok := ds.UniqueCategories("c")
	if !ok || vals != nil {
		t.Fatalf("UniqueCategories = %v, %v; want nil, true", vals, ok)
	}
}

// TestPreparedIndexSlot pins the dataset's one derived-index slot: a
// build per (generation, partition count), shared by later calls; a
// different partition count replaces the index; a mutation empties the
// slot; and neither ContentEqual nor Clone sees the slot.
func TestPreparedIndexSlot(t *testing.T) {
	ds := MustNewDataset(seqTimestamps(3))
	if err := ds.AddNumeric("v", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	builds := 0
	build := func(d *Dataset, r int) any {
		builds++
		return &[2]uint64{d.Generation(), uint64(r)}
	}
	first := PreparedIndex(ds, 10, build)
	if again := PreparedIndex(ds, 10, build); again != first || builds != 1 {
		t.Fatalf("second lookup at the same R: same index %v, builds %d; want true, 1", again == first, builds)
	}
	if !ds.Clone().ContentEqual(ds) {
		t.Error("a filled slot made the dataset unequal to its clone")
	}
	if other := PreparedIndex(ds, 20, build); other == first || builds != 2 {
		t.Fatalf("another R: reused the R=10 index or skipped the build (builds %d)", builds)
	}
	if PreparedIndex(ds, 10, build) == first || builds != 3 {
		t.Fatalf("R=10 index survived its replacement by R=20 (builds %d)", builds)
	}
	if err := ds.AddNumeric("w", []float64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if ds.prepared.Load() != nil {
		t.Fatal("a mutation kept the prepared index")
	}
	if got := PreparedIndex(ds, 10, build).(*[2]uint64); got[0] != ds.Generation() || builds != 4 {
		t.Fatalf("after a mutation: index for generation %d (builds %d), want %d (4)", got[0], builds, ds.Generation())
	}
}

// TestPreparedIndexRacingBuilders: goroutines racing to fill an empty
// slot may each build, but all of them return the first index stored,
// and so does every later lookup.
func TestPreparedIndexRacingBuilders(t *testing.T) {
	ds := MustNewDataset(seqTimestamps(3))
	if err := ds.AddNumeric("v", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	build := func(*Dataset, int) any { return new(int) }
	got := make([]any, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = PreparedIndex(ds, 10, build)
		}()
	}
	wg.Wait()
	for g := range got {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d returned a different index than goroutine 0", g)
		}
	}
	if PreparedIndex(ds, 10, build) != got[0] {
		t.Fatal("a later lookup did not return the stored index")
	}
}
