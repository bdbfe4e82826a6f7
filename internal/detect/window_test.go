package detect

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"dbsherlock/internal/metrics"
)

// windowTrace builds n rows with irregularly spaced timestamps and
// every value shape a window must carry bit for bit: a level shift for
// detection to find, NaN, ±Inf, −0, and two categorical columns.
func windowTrace(n int) *metrics.Dataset {
	ts := make([]int64, n)
	shift := make([]float64, n)
	nan := make([]float64, n)
	inf := make([]float64, n)
	zero := make([]float64, n)
	state := make([]string, n)
	phase := make([]string, n)
	negZero := math.Copysign(0, -1)
	for i := range ts {
		ts[i] = 1000 + 3*int64(i) + int64(i%3)
		shift[i] = 10 + float64(i%5)
		if i%97 >= 60 && i%97 < 75 {
			shift[i] += 40
		}
		nan[i] = float64(i % 11)
		if i%4 == 0 {
			nan[i] = math.NaN()
		}
		inf[i] = float64(i % 7)
		switch i % 13 {
		case 3:
			inf[i] = math.Inf(1)
		case 8:
			inf[i] = math.Inf(-1)
		}
		zero[i] = negZero
		if i%2 == 1 {
			zero[i] = 0
		}
		state[i] = fmt.Sprintf("s%d", i%3)
		if i%10 < 4 {
			phase[i] = "busy"
		}
	}
	ds := metrics.MustNewDataset(ts)
	for _, c := range []struct {
		name string
		vals []float64
	}{{"shift", shift}, {"nan", nan}, {"inf", inf}, {"zero", zero}} {
		if err := ds.AddNumeric(c.name, c.vals); err != nil {
			panic(err)
		}
	}
	if err := ds.AddCategorical("state", state); err != nil {
		panic(err)
	}
	if err := ds.AddCategorical("phase", phase); err != nil {
		panic(err)
	}
	return ds
}

// requireSameWindow asserts got holds exactly want's rows: the same
// timestamps, schema and categorical values, and bitwise the same
// numeric values (ContentEqual would call two NaNs unequal).
func requireSameWindow(t *testing.T, ctx string, got, want *metrics.Dataset) {
	t.Helper()
	if !slices.Equal(got.Timestamps(), want.Timestamps()) {
		t.Fatalf("%s: timestamps %v, want %v", ctx, got.Timestamps(), want.Timestamps())
	}
	if !slices.Equal(got.Attributes(), want.Attributes()) {
		t.Fatalf("%s: schema %v, want %v", ctx, got.Attributes(), want.Attributes())
	}
	for i := 0; i < want.NumAttrs(); i++ {
		g, w := got.ColumnAt(i), want.ColumnAt(i)
		if !slices.Equal(g.Cat, w.Cat) {
			t.Fatalf("%s: column %s is %q, want %q", ctx, w.Attr.Name, g.Cat, w.Cat)
		}
		if len(g.Num) != len(w.Num) {
			t.Fatalf("%s: column %s has %d values, want %d", ctx, w.Attr.Name, len(g.Num), len(w.Num))
		}
		for r := range w.Num {
			if math.Float64bits(g.Num[r]) != math.Float64bits(w.Num[r]) {
				t.Fatalf("%s: column %s row %d is %v, want %v", ctx, w.Attr.Name, r, g.Num[r], w.Num[r])
			}
		}
	}
}

// scribble overwrites every value of a window the caller owns.
func scribble(ds *metrics.Dataset) {
	ts := ds.Timestamps()
	for i := range ts {
		ts[i] = -1
	}
	for i := 0; i < ds.NumAttrs(); i++ {
		col := ds.ColumnAt(i)
		for r := range col.Num {
			col.Num[r] = 1e9
		}
		for r := range col.Cat {
			col.Cat[r] = "scribbled"
		}
	}
}

// TestWatchWindowIsLastRows: after every accepted Append the window
// holds the input's last min(total, cap) rows, oldest first, across
// ring wrap-around; a rejected chunk changes nothing; and a returned
// window is the caller's own, so writing to it changes neither the
// next Window nor the next Detect.
func TestWatchWindowIsLastRows(t *testing.T) {
	p := DefaultParams()
	for _, capRows := range []int{1, 7, 300} {
		trace := windowTrace(2*capRows + 40)
		rewind := windowSlice(trace, 0, 1)
		for _, chunk := range []int{1, 29, capRows + 5} {
			w := NewWatch(Policy{WindowRows: capRows}, p, 1)
			for lo := 0; lo < trace.Rows(); lo += chunk {
				hi := min(lo+chunk, trace.Rows())
				ctx := fmt.Sprintf("cap=%d chunk=%d rows=%d", capRows, chunk, hi)
				if _, err := w.Append(windowSlice(trace, lo, hi)); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				want := windowSlice(trace, max(0, hi-capRows), hi)
				got := w.Window()
				requireSameWindow(t, ctx, got, want)
				scribble(got)
				if _, err := w.Append(rewind); err == nil {
					t.Fatalf("%s: a chunk before the window's end was accepted", ctx)
				}
				requireSameWindow(t, ctx+" after scribble and rejected chunk", w.Window(), want)
				requireSameResult(t, ctx, w.Detect(), Detect(want, p))
			}
		}
	}

	// A stream's capacity is at least one row.
	small := windowTrace(3)
	s := NewStream(p, 0, 1)
	s.Append(small)
	requireSameWindow(t, "cap=0", s.window(), windowSlice(small, 2, 3))
}
