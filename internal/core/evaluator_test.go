package core

import (
	"context"
	"testing"

	"dbsherlock/internal/metrics"
	"dbsherlock/internal/obs"
)

// TestEvaluatorColumnAddedAfterConstruction pins the slot bound: a
// column the dataset gains after the evaluator was built has no slot,
// so it yields no space and separates nothing, and preparing it by name
// neither panics nor counts a build.
func TestEvaluatorColumnAddedAfterConstruction(t *testing.T) {
	ds, abnormal, normal := wideDataset(t, 200, 6, 120, 160, 17)
	p := DefaultParams()
	ev := NewEvaluator(ds, abnormal, normal, p)
	if _, err := ev.Generate(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	late := make([]float64, ds.Rows())
	lateCat := make([]string, ds.Rows())
	for i := range late {
		late[i], lateCat[i] = 1, "steady"
		if abnormal.Contains(i) {
			late[i], lateCat[i] = 100, "burst"
		}
	}
	if err := ds.AddNumeric("late", late); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddCategorical("late_cat", lateCat); err != nil {
		t.Fatal(err)
	}
	// A fresh evaluator over the grown dataset separates both columns
	// perfectly; the old one must not see them.
	num := Predicate{Attr: "late", Type: metrics.Numeric, HasLower: true, Lower: 50}
	cat := Predicate{Attr: "late_cat", Type: metrics.Categorical, Categories: []string{"burst"}}
	fresh := NewEvaluator(ds, abnormal, normal, p)
	if fresh.Separation(num) != 1 || fresh.Separation(cat) != 1 {
		t.Fatalf("fresh evaluator: separations %v / %v, want 1 / 1", fresh.Separation(num), fresh.Separation(cat))
	}

	tr := obs.NewTrace(1)
	if err := ev.PrepareCtx(context.Background(), []string{"late", "late_cat", "late"}, 2, tr); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	if built, reused := snap.Counters["spaces_built"], snap.Counters["spaces_reused"]; built != 0 || reused != 0 {
		t.Errorf("preparing columns added after construction counted %d built / %d reused, want 0 / 0", built, reused)
	}
	if ps := ev.NumericSpaceFor("late"); ps != nil {
		t.Errorf("NumericSpaceFor(late) = %+v, want nil", ps)
	}
	if got := ev.Separation(num); got != 0 {
		t.Errorf("Separation(late) = %v, want 0", got)
	}
	if got := ev.Separation(cat); got != 0 {
		t.Errorf("Separation(late_cat) = %v, want 0", got)
	}
}

// TestEvaluatorSizeBytesCountsEveryStoredSpace: the size estimate grows
// by at least the label bytes of each space stored, counts a space once
// however many times it is asked for, and does not depend on whether
// Generate or lazy building stored it.
func TestEvaluatorSizeBytesCountsEveryStoredSpace(t *testing.T) {
	ds, abnormal, normal := wideDataset(t, 200, 12, 120, 160, 19)
	p := DefaultParams()
	var attrs []string
	for i := 0; i < ds.NumAttrs(); i++ {
		attrs = append(attrs, ds.ColumnAt(i).Attr.Name)
	}

	lazy := NewEvaluator(ds, abnormal, normal, p)
	size := lazy.SizeBytes()
	for i, attr := range attrs {
		if err := lazy.PrepareCtx(context.Background(), []string{attr}, 1, nil); err != nil {
			t.Fatal(err)
		}
		s := lazy.slots[i]
		var labels int64
		if s.num != nil {
			labels = int64(len(s.num.Labels))
		}
		if s.cat != nil {
			labels = int64(len(s.cat.Labels))
		}
		grown := lazy.SizeBytes()
		if grown-size < labels || (labels > 0) != (grown > size) {
			t.Errorf("storing %s (%d labels) grew SizeBytes by %d", attr, labels, grown-size)
		}
		size = grown
	}
	if err := lazy.PrepareCtx(context.Background(), attrs, 2, nil); err != nil {
		t.Fatal(err)
	}
	if got := lazy.SizeBytes(); got != size {
		t.Errorf("re-preparing stored spaces changed SizeBytes %d -> %d", size, got)
	}

	generated := NewEvaluator(ds, abnormal, normal, p)
	if _, err := generated.Generate(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if got := generated.SizeBytes(); got != size {
		t.Errorf("Generate-filled evaluator is %d bytes, lazily filled %d", got, size)
	}
}
