package core_test

import (
	"context"
	"testing"
	"unsafe"

	"dbsherlock/internal/causal"
	"dbsherlock/internal/core"
	"dbsherlock/internal/metrics"
)

// TestEvaluatorSizeBytesCountsEveryStoredSpace: an evaluator's size
// estimate covers at least the label bytes of every attribute's space,
// does not depend on the worker count that built them, and stays put
// while Generate and model ranking read the spaces.
func TestEvaluatorSizeBytesCountsEveryStoredSpace(t *testing.T) {
	ds, abnormal, normal := core.WideDataset(t, 200, 12, 120, 160, 19)
	p := core.DefaultParams()
	var labels int64
	for i := 0; i < ds.NumAttrs(); i++ {
		col := ds.ColumnAt(i)
		if col.Attr.Type == metrics.Numeric {
			if ps := core.NewNumericSpace(col.Attr.Name, col.Num, abnormal, normal, p.NumPartitions); ps != nil {
				labels += int64(len(ps.Labels))
			}
		} else if cs := core.NewCategoricalSpace(col.Attr.Name, col.Cat, abnormal, normal); cs != nil {
			labels += int64(len(cs.Labels))
		}
	}
	labelBytes := labels * int64(unsafe.Sizeof(core.Label(0)))
	preds, err := core.Generate(ds, abnormal, normal, p)
	if err != nil {
		t.Fatal(err)
	}
	repo := causal.NewRepository()
	if err := repo.Add(causal.New("generated", preds)); err != nil {
		t.Fatal(err)
	}

	var want int64
	for _, workers := range []int{1, 2, 8} {
		p.Workers = workers
		ev, err := core.NewEvaluator(context.Background(), ds, abnormal, normal, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		size := ev.SizeBytes()
		if size < labelBytes {
			t.Errorf("workers=%d: SizeBytes %d is below the %d label bytes of the built spaces", workers, size, labelBytes)
		}
		if workers == 1 {
			want = size
		} else if size != want {
			t.Errorf("workers=%d: SizeBytes %d, sequential build %d", workers, size, want)
		}
		if _, err := ev.Generate(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		if got := ev.SizeBytes(); got != size {
			t.Errorf("workers=%d: Generate changed SizeBytes %d -> %d", workers, size, got)
		}
		if _, err := repo.RankEvalCtx(context.Background(), ev, nil); err != nil {
			t.Fatal(err)
		}
		if got := ev.SizeBytes(); got != size {
			t.Errorf("workers=%d: RankEvalCtx changed SizeBytes %d -> %d", workers, size, got)
		}
	}
}
