package detect

import (
	"fmt"

	"dbsherlock/internal/metrics"
)

// Policy is the streaming alert policy: how often a live metric stream
// is checked, and which findings become alerts. The in-process monitor
// and the fleet ingestion plane both apply it through a Watch.
type Policy struct {
	// WindowRows is the sliding-window length in rows (default 600, the
	// paper's Appendix E trace length).
	WindowRows int
	// CheckEvery runs detection after this many appended rows
	// (default 30).
	CheckEvery int
	// WarmupRows suppresses detection until the window holds at least
	// this many rows (default max(120, 4*CheckEvery)): tiny windows
	// mistake startup transients for anomalies. It is clamped to
	// WindowRows, so a short window starts checking once it is full.
	WarmupRows int
	// MinAnomalyRows ignores findings whose largest contiguous run is
	// shorter than this (default 10): isolated spike rows and short
	// bursts are noise, not anomalies (the paper's injected anomalies
	// run 30-80 seconds).
	MinAnomalyRows int
	// CooldownSeconds suppresses a finding that overlaps the previous
	// alert's time span within this horizon (default 120).
	CooldownSeconds int
}

// WithDefaults returns p with every non-positive field set to its
// default and the warmup clamped to the window.
func (p Policy) WithDefaults() Policy {
	if p.WindowRows <= 0 {
		p.WindowRows = 600
	}
	if p.CheckEvery <= 0 {
		p.CheckEvery = 30
	}
	if p.WarmupRows <= 0 {
		p.WarmupRows = max(120, 4*p.CheckEvery)
	}
	p.WarmupRows = min(p.WarmupRows, p.WindowRows)
	if p.MinAnomalyRows <= 0 {
		p.MinAnomalyRows = 10
	}
	if p.CooldownSeconds <= 0 {
		p.CooldownSeconds = 120
	}
	return p
}

// Watch applies a Policy to one metric stream. It owns everything about
// alerting except detection itself: the stream's schema (fixed by the
// first chunk), its timeline (timestamps strictly increase across
// chunks), the timestamps of the sliding window, the check cadence and
// warmup, and the min-run floor and cooldown dedup that turn a detected
// region into an alert span. The caller pairs it with a detector over
// the same window: a Stream of WindowRows rows, or a snapshot.
//
// Watch is not safe for concurrent use.
type Watch struct {
	p          Policy
	attrs      []metrics.Attribute
	times      []int64 // absolute row r's timestamp lives at times[r%len(times)]
	total      int     // rows ever appended
	sinceCheck int

	// The last committed alert's span, extended by every finding it
	// has suppressed since.
	alerted  bool
	from, to int64
}

// NewWatch builds a watch; zero policy fields take their defaults.
func NewWatch(p Policy) *Watch { return &Watch{p: p.WithDefaults()} }

// Rows returns the number of rows in the window.
func (w *Watch) Rows() int { return min(w.total, w.p.WindowRows) }

// Append admits one chunk of aligned statistics: the first chunk fixes
// the schema, later chunks must match it and start after the window's
// last timestamp. A rejected chunk changes nothing. check reports that
// a detection pass is due: CheckEvery rows have arrived since the last
// due pass and the window holds at least WarmupRows.
func (w *Watch) Append(ds *metrics.Dataset) (check bool, err error) {
	if ds == nil || ds.Rows() == 0 {
		return false, nil
	}
	if w.attrs == nil {
		w.attrs = ds.Attributes()
		w.times = make([]int64, w.p.WindowRows)
	}
	if ds.NumAttrs() != len(w.attrs) {
		return false, fmt.Errorf("chunk has %d attributes, stream schema has %d", ds.NumAttrs(), len(w.attrs))
	}
	for i, want := range w.attrs {
		if a := ds.ColumnAt(i).Attr; a != want {
			return false, fmt.Errorf("attribute %d is %v, stream schema has %v", i, a, want)
		}
	}
	ts := ds.Timestamps()
	if w.total > 0 {
		if last := w.timeAt(w.total - 1); ts[0] <= last {
			return false, fmt.Errorf("chunk starts at %d, window already ends at %d", ts[0], last)
		}
	}
	for _, t := range ts {
		w.times[w.total%len(w.times)] = t
		w.total++
	}
	w.sinceCheck += len(ts)
	if w.sinceCheck < w.p.CheckEvery {
		return false, nil
	}
	w.sinceCheck = 0
	return w.Rows() >= w.p.WarmupRows, nil
}

// Times returns a copy of the window's timestamps, oldest first.
func (w *Watch) Times() []int64 {
	out := make([]int64, 0, w.Rows())
	for r := w.total - w.Rows(); r < w.total; r++ {
		out = append(out, w.timeAt(r))
	}
	return out
}

func (w *Watch) timeAt(abs int) int64 { return w.times[abs%len(w.times)] }

// Span turns a region detected over the current window (row i is the
// i-th oldest window row) into an alert span [from, to) in the stream's
// timestamps: the region's largest contiguous run, when it is at least
// MinAnomalyRows long and not a duplicate. A finding is a duplicate
// when it overlaps the last committed alert's span within the cooldown
// horizon; it then extends that span, so a long anomaly keeps being
// suppressed rather than re-alerting every check. Span never commits:
// call Commit once the alert is actually raised.
func (w *Watch) Span(region *metrics.Region) (from, to int64, ok bool) {
	lo, hi := LargestRun(region)
	if hi-lo < w.p.MinAnomalyRows {
		return 0, 0, false
	}
	base := w.total - w.Rows()
	from, to = w.timeAt(base+lo), w.timeAt(base+hi-1)+1
	if w.alerted && from <= w.to+int64(w.p.CooldownSeconds) && to >= w.from {
		w.from, w.to = min(w.from, from), max(w.to, to)
		return 0, 0, false
	}
	return from, to, true
}

// Commit records [from, to) as the last raised alert, the span later
// findings are deduplicated against.
func (w *Watch) Commit(from, to int64) {
	w.alerted = true
	w.from, w.to = from, to
}

// LastAlert returns the last committed alert's span as extended by the
// findings it suppressed since; ok is false before the first Commit.
func (w *Watch) LastAlert() (from, to int64, ok bool) { return w.from, w.to, w.alerted }

// LargestRun returns the half-open bounds of the longest run of
// consecutively selected rows (the first such run on ties), without
// materializing the region's indices. It runs on every detection tick,
// so it stays allocation-free.
func LargestRun(region *metrics.Region) (lo, hi int) {
	region.Runs(func(l, h int) {
		if h-l > hi-lo {
			lo, hi = l, h
		}
	})
	return lo, hi
}
