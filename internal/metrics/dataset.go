package metrics

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
)

// datasetGen issues globally unique generation numbers: every dataset
// mutation takes the next value, so a (dataset id, generation) pair
// identifies one exact state of one exact dataset instance process-wide.
// Caches key on it to stay coherent without retaining dataset pointers.
var datasetGen atomic.Uint64

// Column stores all samples of one attribute, columnar.
//
// Exactly one of Num or Cat is populated, matching Attr.Type. Both slices
// are indexed by row and have length Dataset.Rows().
//
// Categorical columns are additionally dictionary-encoded at add time:
// CatIDs[row] indexes CatDict, which holds the distinct values in
// first-occurrence order. Hot paths (partition-space labeling, distinct
// collection) work over the small integer ids instead of hashing the
// row strings again on every request; Cat remains the canonical,
// row-aligned representation for serialization and row access.
type Column struct {
	Attr Attribute
	Num  []float64
	Cat  []string

	CatIDs  []int32
	CatDict []string
}

// Dataset is the timestamp-aligned statistics table produced by the
// collector (paper Section 2.1) and consumed by every algorithm in this
// repository. Rows are one-second samples in increasing time order.
type Dataset struct {
	time   []int64
	cols   []Column
	byName map[string]int
	gen    uint64 // see Generation

	// prepared is the one derived-index slot (see PreparedIndex). Every
	// mutation empties it, so an index lives exactly as long as the
	// dataset state it indexes.
	prepared atomic.Pointer[preparedSlot]
}

// preparedSlot is one derived index and the (generation, partition
// count) it was built for.
type preparedSlot struct {
	gen uint64
	r   int
	v   any
}

// NewDataset creates a dataset over the given timestamps. Timestamps must
// be strictly increasing; the collector guarantees this after alignment.
func NewDataset(timestamps []int64) (*Dataset, error) {
	for i := 1; i < len(timestamps); i++ {
		if timestamps[i] <= timestamps[i-1] {
			return nil, fmt.Errorf("metrics: timestamps not strictly increasing at row %d (%d after %d)",
				i, timestamps[i], timestamps[i-1])
		}
	}
	ts := make([]int64, len(timestamps))
	copy(ts, timestamps)
	return &Dataset{time: ts, byName: make(map[string]int)}, nil
}

// MustNewDataset is NewDataset for known-good inputs (tests, generators);
// it panics on error.
func MustNewDataset(timestamps []int64) *Dataset {
	ds, err := NewDataset(timestamps)
	if err != nil {
		panic(err)
	}
	return ds
}

// Rows returns the number of one-second samples.
func (d *Dataset) Rows() int { return len(d.time) }

// NumAttrs returns the number of attributes (columns).
func (d *Dataset) NumAttrs() int { return len(d.cols) }

// Timestamps returns the row timestamps. The slice is shared; callers
// must not modify it.
func (d *Dataset) Timestamps() []int64 { return d.time }

// AddNumeric appends a numeric column. The values slice is retained.
func (d *Dataset) AddNumeric(name string, values []float64) error {
	if len(values) != d.Rows() {
		return fmt.Errorf("metrics: column %q has %d values, dataset has %d rows", name, len(values), d.Rows())
	}
	return d.addColumn(Column{Attr: NumericAttr(name), Num: values})
}

// AddCategorical appends a categorical column. The values slice is
// retained (never mutated) and dictionary-encoded once here, so every
// later diagnosis can count ids instead of hashing row strings.
func (d *Dataset) AddCategorical(name string, values []string) error {
	if len(values) != d.Rows() {
		return fmt.Errorf("metrics: column %q has %d values, dataset has %d rows", name, len(values), d.Rows())
	}
	ids := make([]int32, len(values))
	var dict []string
	lookup := make(map[string]int32)
	for i, v := range values {
		id, ok := lookup[v]
		if !ok {
			id = int32(len(dict))
			dict = append(dict, v)
			lookup[v] = id
		}
		ids[i] = id
	}
	return d.addColumn(Column{Attr: CategoricalAttr(name), Cat: values, CatIDs: ids, CatDict: dict})
}

func (d *Dataset) addColumn(c Column) error {
	if c.Attr.Name == "" {
		return errors.New("metrics: column must have a name")
	}
	if _, dup := d.byName[c.Attr.Name]; dup {
		return fmt.Errorf("metrics: duplicate column %q", c.Attr.Name)
	}
	d.byName[c.Attr.Name] = len(d.cols)
	d.cols = append(d.cols, c)
	d.gen = datasetGen.Add(1)
	d.prepared.Store(nil)
	return nil
}

// PreparedIndex returns the derived index the dataset holds for
// partition count r, calling build and storing its result when the slot
// is empty or holds an index for another partition count. The dataset
// keeps one index: a different r replaces it, and a mutation drops it.
// Racing builders may each call build, but all of them return the first
// index stored. It is a function rather than a method so the public
// Dataset alias gains no method.
func PreparedIndex(d *Dataset, r int, build func(*Dataset, int) any) any {
	cur := d.prepared.Load()
	if cur != nil && cur.gen == d.gen && cur.r == r {
		return cur.v
	}
	next := &preparedSlot{gen: d.gen, r: r, v: build(d, r)}
	for !d.prepared.CompareAndSwap(cur, next) {
		cur = d.prepared.Load()
		if cur != nil && cur.gen == d.gen && cur.r == r {
			return cur.v
		}
	}
	return next.v
}

// Generation returns a monotonic mutation counter for this dataset:
// every successful mutation (column append) bumps it to a fresh,
// process-globally unique value. Two observations of the same
// generation therefore saw the identical dataset state — and no two
// distinct dataset instances ever share a non-zero generation — which
// is what lets the diagnosis cache key derived state on (id,
// generation) without pinning or comparing dataset contents.
func (d *Dataset) Generation() uint64 { return d.gen }

// ContentEqual reports whether two datasets hold identical content —
// timestamps, attribute order and descriptors, and every value — while
// ignoring the generation stamp, which is unique per instance by
// design, and the prepared index derived from the content. Tests
// comparing independently built datasets want this, not
// reflect.DeepEqual.
func (d *Dataset) ContentEqual(o *Dataset) bool {
	if d == nil || o == nil {
		return d == o
	}
	return reflect.DeepEqual(d.time, o.time) &&
		reflect.DeepEqual(d.cols, o.cols) &&
		reflect.DeepEqual(d.byName, o.byName)
}

// Attributes returns descriptors for all columns in insertion order.
func (d *Dataset) Attributes() []Attribute {
	attrs := make([]Attribute, len(d.cols))
	for i, c := range d.cols {
		attrs[i] = c.Attr
	}
	return attrs
}

// Column returns the column with the given name, or false if absent.
func (d *Dataset) Column(name string) (Column, bool) {
	i, ok := d.byName[name]
	if !ok {
		return Column{}, false
	}
	return d.cols[i], true
}

// ColumnAt returns the i-th column.
func (d *Dataset) ColumnAt(i int) Column { return d.cols[i] }

// ColumnIndex returns the insertion-order index of the named column, or
// false if absent. Prepared per-dataset indexes store per-column state
// by this index.
func (d *Dataset) ColumnIndex(name string) (int, bool) {
	i, ok := d.byName[name]
	return i, ok
}

// HasColumn reports whether a column with the given name exists.
func (d *Dataset) HasColumn(name string) bool {
	_, ok := d.byName[name]
	return ok
}

// NumericRange returns the observed min and max of a numeric column,
// ignoring NaNs. ok is false if the column is missing, categorical, or
// has no finite values.
func (d *Dataset) NumericRange(name string) (min, max float64, ok bool) {
	col, found := d.Column(name)
	if !found || col.Attr.Type != Numeric {
		return 0, 0, false
	}
	return numRange(col.Num)
}

func numRange(vals []float64) (min, max float64, ok bool) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		ok = true
	}
	if !ok {
		return 0, 0, false
	}
	return min, max, true
}

// RowsInTimeRange returns the half-open row index range [lo, hi) of rows
// whose timestamps fall in [from, to).
func (d *Dataset) RowsInTimeRange(from, to int64) (lo, hi int) {
	lo = sort.Search(len(d.time), func(i int) bool { return d.time[i] >= from })
	hi = sort.Search(len(d.time), func(i int) bool { return d.time[i] >= to })
	return lo, hi
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	out := MustNewDataset(d.time)
	for _, c := range d.cols {
		switch c.Attr.Type {
		case Numeric:
			vals := make([]float64, len(c.Num))
			copy(vals, c.Num)
			if err := out.AddNumeric(c.Attr.Name, vals); err != nil {
				panic(err) // unreachable: source dataset is well-formed
			}
		case Categorical:
			vals := make([]string, len(c.Cat))
			copy(vals, c.Cat)
			if err := out.AddCategorical(c.Attr.Name, vals); err != nil {
				panic(err)
			}
		}
	}
	return out
}

// UniqueCategories returns the sorted distinct values of a categorical
// column. ok is false if the column is missing or numeric.
func (d *Dataset) UniqueCategories(name string) (values []string, ok bool) {
	col, found := d.Column(name)
	if !found || col.Attr.Type != Categorical {
		return nil, false
	}
	if len(col.CatDict) == 0 {
		return nil, true
	}
	values = make([]string, len(col.CatDict))
	copy(values, col.CatDict)
	slices.Sort(values)
	return values, true
}
