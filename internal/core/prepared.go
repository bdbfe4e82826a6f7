package core

import "dbsherlock/internal/metrics"

// PreparedColumn is the immutable columnar index of one numeric
// attribute: the observed range plus every row's partition id at a
// fixed partition count R. With it, NumericSpace construction
// degenerates to a counting pass over the diagnosis regions — no
// min/max scan, no per-row IndexOf.
//
// Bucket[i] is exactly IndexOf(values[i]) for the space the column
// induces (same min/max scan, same inverse-span fast path), or -1 for
// NaN rows, so labels built from it are bit-identical to the reference
// per-row loop. Constant marks columns with no usable span (constant or
// all-NaN); such columns never yield a partition space.
type PreparedColumn struct {
	Min, Max float64
	NaNs     int
	Constant bool
	Bucket   []int32

	invSpan float64
}

// PreparedDataset indexes every numeric column of one dataset state —
// one exact (dataset, generation) pair — at one partition count. It is
// immutable after construction and safe for unsynchronized concurrent
// use. Categorical columns carry no entry: their dictionary encoding
// (metrics.Column.CatIDs/CatDict) already is the prepared form.
type PreparedDataset struct {
	gen  uint64
	r    int
	cols []*PreparedColumn // by column index; nil for categorical columns
}

// Generation returns the dataset generation this index was built from.
func (p *PreparedDataset) Generation() uint64 { return p.gen }

// Partitions returns the partition count R the bucket ids encode.
func (p *PreparedDataset) Partitions() int { return p.r }

// column returns the prepared state of column i, nil-safe on both the
// receiver and out-of-range indexes (a dataset mutated after
// preparation has more columns than the index).
func (p *PreparedDataset) column(i int) *PreparedColumn {
	if p == nil || i < 0 || i >= len(p.cols) {
		return nil
	}
	return p.cols[i]
}

// prepareColumn builds the per-column index. The min/max scan and the
// per-row IndexOf are the exact routines newNumericSpace runs, so every
// downstream consumer sees identical floating-point state.
func prepareColumn(values []float64, r int) *PreparedColumn {
	min, max, nans, ok := minMaxNaN(values)
	if !ok || min >= max {
		return &PreparedColumn{Min: min, Max: max, NaNs: nans, Constant: true}
	}
	pc := &PreparedColumn{
		Min: min, Max: max, NaNs: nans,
		Bucket:  make([]int32, len(values)),
		invSpan: 1 / (max - min),
	}
	ps := NumericSpace{Min: min, Max: max, R: r, invSpan: pc.invSpan}
	for i, v := range values {
		if v != v { // NaN
			pc.Bucket[i] = -1
			continue
		}
		pc.Bucket[i] = int32(ps.IndexOf(v))
	}
	return pc
}

// prepareDataset builds the full index for one dataset state.
func prepareDataset(ds *metrics.Dataset, r int) *PreparedDataset {
	p := &PreparedDataset{gen: ds.Generation(), r: r, cols: make([]*PreparedColumn, ds.NumAttrs())}
	for i := range p.cols {
		col := ds.ColumnAt(i)
		if col.Attr.Type == metrics.Numeric {
			p.cols[i] = prepareColumn(col.Num, r)
		}
	}
	return p
}

// PreparedFor returns the prepared index of the dataset at partition
// count r. The index lives on the dataset (metrics.PreparedIndex): the
// first call for a dataset state builds it, every later call — from any
// analyzer — shares it, a different r replaces it, and a mutation drops
// it, so the index is freed with its dataset. Returns nil for nil or
// empty datasets and for r < 2.
func PreparedFor(ds *metrics.Dataset, r int) *PreparedDataset {
	if ds == nil || ds.Rows() == 0 || r < 2 {
		return nil
	}
	return metrics.PreparedIndex(ds, r, func(ds *metrics.Dataset, r int) any {
		return prepareDataset(ds, r)
	}).(*PreparedDataset)
}
