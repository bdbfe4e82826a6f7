package detect

import (
	"strings"
	"testing"

	"dbsherlock/internal/metrics"
)

// seqChunk builds n rows with timestamps start..start+n-1 and the given
// numeric columns (all zero).
func seqChunk(start int64, n int, cols ...string) *metrics.Dataset {
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = start + int64(i)
	}
	ds := metrics.MustNewDataset(ts)
	for _, c := range cols {
		if err := ds.AddNumeric(c, make([]float64, n)); err != nil {
			panic(err)
		}
	}
	return ds
}

func TestPolicyDefaults(t *testing.T) {
	for _, tc := range []struct {
		in, want Policy
	}{
		{Policy{}, Policy{WindowRows: 600, CheckEvery: 30, WarmupRows: 120, MinAnomalyRows: 10, CooldownSeconds: 120}},
		{Policy{CheckEvery: 50}, Policy{WindowRows: 600, CheckEvery: 50, WarmupRows: 200, MinAnomalyRows: 10, CooldownSeconds: 120}},
		// A window shorter than the default warmup checks once full.
		{Policy{WindowRows: 100}, Policy{WindowRows: 100, CheckEvery: 30, WarmupRows: 100, MinAnomalyRows: 10, CooldownSeconds: 120}},
		{Policy{WindowRows: 300, WarmupRows: 500}, Policy{WindowRows: 300, CheckEvery: 30, WarmupRows: 300, MinAnomalyRows: 10, CooldownSeconds: 120}},
		{Policy{WindowRows: 50, CheckEvery: 5, WarmupRows: 20, MinAnomalyRows: 3, CooldownSeconds: 7}, Policy{WindowRows: 50, CheckEvery: 5, WarmupRows: 20, MinAnomalyRows: 3, CooldownSeconds: 7}},
	} {
		if got := tc.in.WithDefaults(); got != tc.want {
			t.Errorf("%+v.WithDefaults() = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestWatchRejectsBadChunks(t *testing.T) {
	w := NewWatch(Policy{WindowRows: 50})
	if _, err := w.Append(seqChunk(100, 10, "a", "b")); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		ds   *metrics.Dataset
		want string
	}{
		"fewer attributes": {seqChunk(200, 5, "a"), "chunk has 1 attributes, stream schema has 2"},
		"renamed":          {seqChunk(200, 5, "a", "c"), "attribute 1 is"},
		"time rewind":      {seqChunk(105, 5, "a", "b"), "chunk starts at 105, window already ends at 109"},
		"time repeat":      {seqChunk(109, 5, "a", "b"), "window already ends at 109"},
	} {
		if _, err := w.Append(tc.ds); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
	// Rejected chunks changed nothing; empty chunks are no-ops.
	if _, err := w.Append(nil); err != nil {
		t.Fatal(err)
	}
	if got := w.Times(); len(got) != 10 || got[0] != 100 || got[9] != 109 {
		t.Fatalf("window times %v, want 100..109", got)
	}
	if _, err := w.Append(seqChunk(110, 5, "a", "b")); err != nil {
		t.Fatalf("continuation rejected: %v", err)
	}
}

// TestWatchCadenceAndWarmup: a check falls due every CheckEvery rows,
// the cadence keeps counting during warmup, and the window (and its
// timestamps) slide once full.
func TestWatchCadenceAndWarmup(t *testing.T) {
	w := NewWatch(Policy{WindowRows: 50, CheckEvery: 10, WarmupRows: 30})
	var due []bool
	for i := 0; i < 8; i++ {
		check, err := w.Append(seqChunk(int64(10*i), 10, "a"))
		if err != nil {
			t.Fatal(err)
		}
		due = append(due, check)
	}
	want := []bool{false, false, true, true, true, true, true, true}
	for i := range want {
		if due[i] != want[i] {
			t.Fatalf("checks due %v, want %v", due, want)
		}
	}
	if got := w.Times(); w.Rows() != 50 || len(got) != 50 || got[0] != 30 || got[49] != 79 {
		t.Fatalf("window rows %d times [%d..%d], want 50 rows [30..79]", w.Rows(), got[0], got[len(got)-1])
	}
	// Chunks smaller than CheckEvery accumulate toward the next check.
	w = NewWatch(Policy{WindowRows: 50, CheckEvery: 10, WarmupRows: 10})
	for i, want := range []bool{false, false, true, false, false, true} {
		if check, _ := w.Append(seqChunk(int64(4*i), 4, "a")); check != want {
			t.Fatalf("chunk %d: check %v, want %v", i, check, want)
		}
	}
}

// TestWatchSpanFloorAndDedup walks the policy's alert decisions over a
// 100-row window holding timestamps 1000..1099.
func TestWatchSpanFloorAndDedup(t *testing.T) {
	w := NewWatch(Policy{WindowRows: 100, MinAnomalyRows: 5, CooldownSeconds: 50})
	if _, err := w.Append(seqChunk(1000, 100, "a")); err != nil {
		t.Fatal(err)
	}
	region := func(lo, hi int) *metrics.Region {
		r := metrics.NewRegion(100)
		r.AddRange(lo, hi)
		return r
	}
	if _, _, ok := w.Span(region(10, 14)); ok {
		t.Fatal("a 4-row run passed the 5-row floor")
	}
	// The largest run decides the span, not the first.
	r := region(10, 15)
	r.AddRange(20, 28)
	from, to, ok := w.Span(r)
	if !ok || from != 1020 || to != 1028 {
		t.Fatalf("span [%d,%d) ok=%v, want [1020,1028)", from, to, ok)
	}
	// Without Commit nothing is remembered.
	if _, _, alerted := w.LastAlert(); alerted {
		t.Fatal("Span committed an alert")
	}
	if _, _, ok := w.Span(r); !ok {
		t.Fatal("uncommitted span deduplicated")
	}
	w.Commit(from, to)
	// Overlapping and cooldown-adjacent findings are suppressed and
	// extend the remembered span.
	if _, _, ok := w.Span(region(25, 40)); ok {
		t.Fatal("overlapping finding alerted")
	}
	if _, _, ok := w.Span(region(90, 95)); ok { // from = 1040+50 exactly
		t.Fatal("finding at the cooldown boundary alerted")
	}
	if from, to, _ := w.LastAlert(); from != 1020 || to != 1095 {
		t.Fatalf("remembered span [%d,%d), want [1020,1095)", from, to)
	}
	// A finding entirely before the remembered span alerts.
	if from, to, ok := w.Span(region(0, 10)); !ok || from != 1000 || to != 1010 {
		t.Fatalf("earlier finding: [%d,%d) ok=%v, want [1000,1010)", from, to, ok)
	}
}
