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

// Watch applies a Policy to one metric stream and owns the stream's
// window. It holds the Stream that stores the window's rows, and
// everything about alerting around it: the stream's schema (fixed by
// the first chunk), its timeline (timestamps strictly increase across
// chunks), the check cadence and warmup, and the min-run floor and
// cooldown dedup that turn a detected region into an alert span.
// Detection runs on the stream (Detect) or on a copy of the window
// (Window).
//
// Watch is not safe for concurrent use.
type Watch struct {
	p          Policy
	s          *Stream
	sinceCheck int

	// The last alert's span, extended by every finding it has
	// suppressed since.
	alerted  bool
	from, to int64
}

// NewWatch builds a watch over a window of p.WindowRows rows; zero
// policy fields take their defaults. params and workers configure the
// stream's Section 7 detection, as in NewStream.
func NewWatch(p Policy, params Params, workers int) *Watch {
	p = p.WithDefaults()
	return &Watch{p: p, s: NewStream(params, p.WindowRows, workers)}
}

// Rows returns the number of rows in the window.
func (w *Watch) Rows() int { return w.s.Rows() }

// Append admits one chunk of aligned statistics: the first chunk fixes
// the schema, later chunks must match it and start after the window's
// last timestamp. A rejected chunk changes nothing; an accepted one is
// written to every ring of the window at once. check reports that a
// detection pass is due: CheckEvery rows have arrived since the last
// due pass and the window holds at least WarmupRows.
func (w *Watch) Append(ds *metrics.Dataset) (check bool, err error) {
	if ds == nil || ds.Rows() == 0 {
		return false, nil
	}
	if s := w.s; s.total > 0 {
		if ds.NumAttrs() != len(s.schema) {
			return false, fmt.Errorf("chunk has %d attributes, stream schema has %d", ds.NumAttrs(), len(s.schema))
		}
		for i, want := range s.schema {
			if a := ds.ColumnAt(i).Attr; a != want {
				return false, fmt.Errorf("attribute %d is %v, stream schema has %v", i, a, want)
			}
		}
		if first, last := ds.Timestamps()[0], s.timeAt(s.total-1); first <= last {
			return false, fmt.Errorf("chunk starts at %d, window already ends at %d", first, last)
		}
	}
	w.s.Append(ds)
	w.sinceCheck += ds.Rows()
	if w.sinceCheck < w.p.CheckEvery {
		return false, nil
	}
	w.sinceCheck = 0
	return w.Rows() >= w.p.WarmupRows, nil
}

// Detect runs the stream's incremental Section 7 pipeline over the
// window. The result aliases stream scratch, valid until the next
// Detect (see Stream.Detect).
func (w *Watch) Detect() Result { return w.s.Detect() }

// Window copies the window out as a standalone dataset: timestamps
// and every column, oldest row first, in schema order. The caller owns
// it; changing it changes neither the window nor later detection.
func (w *Watch) Window() *metrics.Dataset { return w.s.window() }

// Span turns a region detected over the current window (row i is the
// i-th oldest window row) into an alert span [from, to) in the stream's
// timestamps: the region's largest contiguous run, when it is at least
// MinAnomalyRows long and not a duplicate. A finding is a duplicate
// when it overlaps the last alert's span within the cooldown horizon;
// it then extends that span, so a long anomaly keeps being suppressed
// rather than re-alerting every check. A span Span returns is recorded
// as the last alert.
func (w *Watch) Span(region *metrics.Region) (from, to int64, ok bool) {
	lo, hi := LargestRun(region)
	if hi-lo < w.p.MinAnomalyRows {
		return 0, 0, false
	}
	base := w.s.total - w.s.rows
	from, to = w.s.timeAt(base+lo), w.s.timeAt(base+hi-1)+1
	if w.alerted && from <= w.to+int64(w.p.CooldownSeconds) && to >= w.from {
		w.from, w.to = min(w.from, from), max(w.to, to)
		return 0, 0, false
	}
	w.alerted = true
	w.from, w.to = from, to
	return from, to, true
}

// LastAlert returns the last alert's span as extended by the findings
// it suppressed since; ok is false before Span first returns one.
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
