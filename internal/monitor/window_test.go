package monitor

import (
	"fmt"
	"slices"
	"testing"

	"dbsherlock/internal/detect"
	"dbsherlock/internal/metrics"
)

// The monitor's window lives in its watch's detect.Stream: one ring per
// column, absolute row r at r % capacity. These tests pin the ring
// behaviour the monitor relies on for Alert.Window, through the
// monitor: the oldest row is evicted first, a wrapped window is copied
// out oldest row first, an unwrapped one is copied as is, and the
// capacity is at least one row.

// ringMonitor builds a monitor over a window of capRows rows that never
// runs detection in these short traces.
func ringMonitor(t *testing.T, capRows int) *Monitor {
	t.Helper()
	m, err := New(Config{WindowSeconds: capRows, CheckEvery: 1000},
		func(Alert) { t.Fatal("unexpected alert") })
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ringRows builds one chunk with the given timestamps, a numeric column
// equal to the timestamp, and a categorical column naming it.
func ringRows(t *testing.T, ts ...int64) *metrics.Dataset {
	t.Helper()
	vals := make([]float64, len(ts))
	cats := make([]string, len(ts))
	for i, v := range ts {
		vals[i] = float64(v)
		cats[i] = fmt.Sprintf("s%d", v)
	}
	ds := metrics.MustNewDataset(slices.Clone(ts))
	if err := ds.AddNumeric("v", vals); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddCategorical("c", cats); err != nil {
		t.Fatal(err)
	}
	return ds
}

// pushRows appends the rows one per chunk.
func pushRows(t *testing.T, m *Monitor, ts ...int64) {
	t.Helper()
	for _, v := range ts {
		if err := m.Append(ringRows(t, v)); err != nil {
			t.Fatal(err)
		}
	}
}

// requireWindow checks that the monitor's window holds exactly the rows
// with timestamps want, oldest first, in every column.
func requireWindow(t *testing.T, m *Monitor, want ...int64) {
	t.Helper()
	if m.WindowSize() != len(want) {
		t.Fatalf("WindowSize = %d, want %d", m.WindowSize(), len(want))
	}
	got := m.watch.Window()
	if len(want) == 0 {
		if got.Rows() != 0 {
			t.Fatalf("empty window copied out %d rows", got.Rows())
		}
		return
	}
	if !got.ContentEqual(ringRows(t, want...)) {
		t.Fatalf("window timestamps %v, want %v", got.Timestamps(), want)
	}
}

func TestRingPushEvictsOldest(t *testing.T) {
	m := ringMonitor(t, 3)
	requireWindow(t, m)
	pushRows(t, m, 1, 2, 3, 4, 5)
	requireWindow(t, m, 3, 4, 5)
}

func TestRingSegsWraparound(t *testing.T) {
	m := ringMonitor(t, 4)
	pushRows(t, m, 0, 1, 2, 3, 4, 5) // the ring's head has wrapped past its start
	requireWindow(t, m, 2, 3, 4, 5)

	// A chunk that runs over the ring's end is split across it.
	m = ringMonitor(t, 4)
	pushRows(t, m, 0, 1, 2)
	if err := m.Append(ringRows(t, 3, 4, 5)); err != nil {
		t.Fatal(err)
	}
	requireWindow(t, m, 2, 3, 4, 5)
}

func TestRingSegsContiguous(t *testing.T) {
	m := ringMonitor(t, 4)
	pushRows(t, m, 7, 8)
	requireWindow(t, m, 7, 8)
	requireWindow(t, ringMonitor(t, 2))
}

func TestRingCapacityFloor(t *testing.T) {
	// The smallest window a monitor holds is one row.
	m := ringMonitor(t, 1)
	pushRows(t, m, 1, 2)
	requireWindow(t, m, 2)

	// A zero capacity is floored to one row.
	s := detect.NewStream(detect.DefaultParams(), 0, 1)
	s.Append(ringRows(t, 1, 2))
	if s.Rows() != 1 {
		t.Fatalf("zero-capacity stream holds %d rows, want 1", s.Rows())
	}
}
