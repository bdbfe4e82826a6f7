package monitor

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"dbsherlock/internal/metrics"
	"dbsherlock/internal/obs"
)

// spanDetector is a scripted detector: call i flags the window rows
// whose timestamps fall in spans[i] (a half-open unix-seconds range;
// the zero span means "no finding"). Like every custom detector it
// runs on the monitor's window snapshot.
type spanDetector struct {
	spans [][2]int64
	call  int
}

func (d *spanDetector) Name() string { return "span" }

func (d *spanDetector) FindRegion(ds *metrics.Dataset) (*metrics.Region, bool) {
	out := metrics.NewRegion(ds.Rows())
	i := d.call
	d.call++
	if i >= len(d.spans) || d.spans[i] == [2]int64{} {
		return out, false
	}
	for row, t := range ds.Timestamps() {
		if t >= d.spans[i][0] && t < d.spans[i][1] {
			out.Add(row)
		}
	}
	return out, !out.Empty()
}

// flatTrace builds n rows with timestamps 0..n-1 and one numeric column.
func flatTrace(t *testing.T, n int) *metrics.Dataset {
	t.Helper()
	ts := make([]int64, n)
	vals := make([]float64, n)
	for i := range ts {
		ts[i] = int64(i)
		vals[i] = float64(i % 7)
	}
	ds := metrics.MustNewDataset(ts)
	if err := ds.AddNumeric("flat", vals); err != nil {
		t.Fatal(err)
	}
	return ds
}

// dedupConfig: detection every 10 rows, 50 s cooldown, runs of >= 5
// rows alert. Tick k sees the window after 10*(k+1) rows.
func dedupConfig(det *spanDetector) Config {
	return Config{
		WindowSeconds:   100,
		CheckEvery:      10,
		CooldownSeconds: 50,
		MinAnomalyRows:  5,
		WarmupRows:      10,
		Detector:        det,
	}
}

func runSpans(t *testing.T, rows int, spans [][2]int64) (*Monitor, []Alert) {
	t.Helper()
	var alerts []Alert
	m, err := New(dedupConfig(&spanDetector{spans: spans}), func(a Alert) { alerts = append(alerts, a) })
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunked(t, flatTrace(t, rows), 10) {
		if err := m.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	return m, alerts
}

func requireSpans(t *testing.T, alerts []Alert, want [][2]int64) {
	t.Helper()
	if len(alerts) != len(want) {
		t.Fatalf("%d alerts, want %d", len(alerts), len(want))
	}
	for i, a := range alerts {
		if a.FromTime != want[i][0] || a.ToTime != want[i][1] {
			t.Fatalf("alert %d spans [%d,%d), want [%d,%d)", i, a.FromTime, a.ToTime, want[i][0], want[i][1])
		}
	}
}

// TestDedupCooldownBoundary pins the <= boundary: a finding starting
// exactly at lastAlertTo+cooldown is suppressed; one second later it
// fires.
func TestDedupCooldownBoundary(t *testing.T) {
	spans := make([][2]int64, 13)
	spans[0] = [2]int64{2, 8}      // alert 1: from=2, to=8
	spans[6] = [2]int64{58, 64}    // from = 8+50 exactly -> suppressed, extends to 64
	spans[12] = [2]int64{115, 121} // from = 115 > 64+50 -> alert 2
	_, alerts := runSpans(t, 130, spans)
	requireSpans(t, alerts, [][2]int64{{2, 8}, {115, 121}})
}

// TestDedupEarlierAnomalyAlerts is the lastAlertFrom dead-store
// regression: a finding entirely *before* the previous alert's span
// must alert, even inside the cooldown horizon. The pre-fix monitor
// never read lastAlertFrom and suppressed it.
func TestDedupEarlierAnomalyAlerts(t *testing.T) {
	spans := make([][2]int64, 17)
	spans[15] = [2]int64{150, 160} // alert 1
	spans[16] = [2]int64{80, 90}   // before alert 1's span: to=90 < lastAlertFrom=150
	_, alerts := runSpans(t, 170, spans)
	requireSpans(t, alerts, [][2]int64{{150, 160}, {80, 90}})
}

// TestDedupLongAnomalyExtension: a long anomaly drifting across ticks
// raises exactly one alert, and each suppressed finding extends the
// remembered span so the cooldown tracks the anomaly's trailing edge.
func TestDedupLongAnomalyExtension(t *testing.T) {
	spans := make([][2]int64, 8)
	spans[0] = [2]int64{2, 10}
	spans[1] = [2]int64{8, 18}
	spans[2] = [2]int64{16, 26}
	spans[3] = [2]int64{24, 34}
	spans[4] = [2]int64{34, 42}
	// Without the extension the remembered span would still end at 10,
	// and from=70 > 10+50 would re-alert. With it, 70 <= 42+50, and the
	// suppression extends the span once more.
	spans[7] = [2]int64{70, 76}
	m, alerts := runSpans(t, 80, spans)
	requireSpans(t, alerts, [][2]int64{{2, 10}})
	if from, to, _ := m.watch.LastAlert(); from != 2 || to != 76 {
		t.Fatalf("remembered span [%d,%d], want [2,76]", from, to)
	}
}

// TestDedupSecondAlertAfterTurnover: a later disjoint anomaly past the
// cooldown fires again, after the window has fully turned over.
func TestDedupSecondAlertAfterTurnover(t *testing.T) {
	spans := make([][2]int64, 21)
	spans[0] = [2]int64{2, 8}
	spans[20] = [2]int64{200, 210}
	m, alerts := runSpans(t, 210, spans)
	requireSpans(t, alerts, [][2]int64{{2, 8}, {200, 210}})
	if got := m.WindowSize(); got != 100 {
		t.Fatalf("window size %d, want 100", got)
	}
}

func TestLargestRunFirstOnTie(t *testing.T) {
	r := metrics.NewRegion(12)
	r.AddRange(2, 5)
	r.AddRange(6, 9)
	if lo, hi := largestRun(r); lo != 2 || hi != 5 {
		t.Fatalf("largestRun = [%d,%d), want first tied run [2,5)", lo, hi)
	}
	if lo, hi := largestRun(metrics.NewRegion(5)); lo != 0 || hi != 0 {
		t.Fatalf("largestRun(empty) = [%d,%d), want [0,0)", lo, hi)
	}
	r2 := metrics.NewRegion(10)
	r2.AddRange(0, 2)
	r2.AddRange(4, 9)
	if lo, hi := largestRun(r2); lo != 4 || hi != 9 {
		t.Fatalf("largestRun = [%d,%d), want [4,9)", lo, hi)
	}
}

// TestSnapshotErrorCounted corrupts one of the window's column rings
// in-package so materialization fails, and checks the detection pass
// is skipped, the dbsherlock_monitor_snapshot_errors_total counter
// moves, and the failure is logged.
func TestSnapshotErrorCounted(t *testing.T) {
	var logBuf bytes.Buffer
	reg := obs.NewRegistry()
	cfg := dedupConfig(&spanDetector{spans: [][2]int64{{0, 50}}})
	cfg.CheckEvery = 1000 // only the explicit runDetection below may run
	cfg.Registry = reg
	cfg.Logger = slog.New(slog.NewTextHandler(&logBuf, nil))
	var alerts []Alert
	m, err := New(cfg, func(a Alert) { alerts = append(alerts, a) })
	if err != nil {
		t.Fatal(err)
	}
	// Fill past warmup without crossing CheckEvery, then corrupt and
	// force a detection pass directly.
	for _, c := range chunked(t, flatTrace(t, 15), 5) {
		if err := m.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	m.cols[0].num.n-- // one value short of the window's timestamps
	m.runDetection()
	if len(alerts) != 0 {
		t.Fatalf("corrupted window still alerted: %+v", alerts)
	}
	if got := m.snapshotErrors.Value(); got != 1 {
		t.Fatalf("snapshot_errors counter = %d, want 1", got)
	}
	if !strings.Contains(logBuf.String(), "snapshot failed") {
		t.Fatalf("snapshot failure not logged: %q", logBuf.String())
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "dbsherlock_monitor_snapshot_errors_total 1") {
		t.Fatalf("exposition missing snapshot error counter:\n%s", buf.String())
	}
}
