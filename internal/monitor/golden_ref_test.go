package monitor

import (
	"fmt"
	"reflect"
	"testing"

	"dbsherlock/internal/anomaly"
	"dbsherlock/internal/detect"
	"dbsherlock/internal/ingest"
	"dbsherlock/internal/metrics"
	"dbsherlock/internal/obs"
	"dbsherlock/internal/workload"
)

// refMonitor is the pre-streaming monitor, verbatim: append-and-reslice
// column buffers, a deep window snapshot on every detection tick, and
// the batch detect.Detect pipeline. Only the dedup condition carries
// this PR's lastAlertFrom fix, which the live monitor shares. The
// golden tests require the ring-buffered streaming monitor to emit a
// byte-identical alert stream.
type refMonitor struct {
	cfg     Config
	onAlert func(Alert)

	attrs   []metrics.Attribute
	time    []int64
	numCols [][]float64
	catCols [][]string

	sinceCheck    int
	lastAlertFrom int64
	lastAlertTo   int64
	alerted       bool
}

func newRefMonitor(cfg Config, onAlert func(Alert)) *refMonitor {
	cfg.fillDefaults()
	return &refMonitor{cfg: cfg, onAlert: onAlert}
}

func (m *refMonitor) Append(ds *metrics.Dataset) error {
	if ds == nil || ds.Rows() == 0 {
		return nil
	}
	if m.attrs == nil {
		m.attrs = ds.Attributes()
		for _, a := range m.attrs {
			if a.Type == metrics.Numeric {
				m.numCols = append(m.numCols, nil)
			} else {
				m.catCols = append(m.catCols, nil)
			}
		}
	}
	ts := ds.Timestamps()
	if len(m.time) > 0 && ts[0] <= m.time[len(m.time)-1] {
		return fmt.Errorf("refmonitor: chunk starts at %d, window already ends at %d",
			ts[0], m.time[len(m.time)-1])
	}
	for i := 0; i < ds.Rows(); i++ {
		m.time = append(m.time, ts[i])
		ni, ci := 0, 0
		for a := 0; a < ds.NumAttrs(); a++ {
			col := ds.ColumnAt(a)
			if col.Attr.Type == metrics.Numeric {
				m.numCols[ni] = append(m.numCols[ni], col.Num[i])
				ni++
			} else {
				m.catCols[ci] = append(m.catCols[ci], col.Cat[i])
				ci++
			}
		}
		m.sinceCheck++
	}
	if excess := len(m.time) - m.cfg.WindowSeconds; excess > 0 {
		m.time = m.time[excess:]
		for i := range m.numCols {
			m.numCols[i] = m.numCols[i][excess:]
		}
		for i := range m.catCols {
			m.catCols[i] = m.catCols[i][excess:]
		}
	}
	if m.sinceCheck >= m.cfg.CheckEvery {
		m.sinceCheck = 0
		m.runDetection()
	}
	return nil
}

func (m *refMonitor) snapshot() (*metrics.Dataset, error) {
	ds, err := metrics.NewDataset(append([]int64(nil), m.time...))
	if err != nil {
		return nil, err
	}
	ni, ci := 0, 0
	for _, a := range m.attrs {
		if a.Type == metrics.Numeric {
			if err := ds.AddNumeric(a.Name, append([]float64(nil), m.numCols[ni]...)); err != nil {
				return nil, err
			}
			ni++
		} else {
			if err := ds.AddCategorical(a.Name, append([]string(nil), m.catCols[ci]...)); err != nil {
				return nil, err
			}
			ci++
		}
	}
	return ds, nil
}

func (m *refMonitor) runDetection() {
	if len(m.time) < m.cfg.WarmupRows {
		return
	}
	window, err := m.snapshot()
	if err != nil {
		return
	}
	var region *metrics.Region
	var ok bool
	var selected []string
	if dd, isDBSCAN := m.cfg.Detector.(detect.DBSCANDetector); isDBSCAN {
		res := detect.Detect(window, dd.Params)
		region, ok, selected = res.Abnormal, !res.Abnormal.Empty(), res.SelectedAttrs
	} else {
		region, ok = m.cfg.Detector.FindRegion(window)
	}
	if !ok {
		return
	}
	runLo, runHi := largestRun(region)
	if runHi-runLo < m.cfg.MinAnomalyRows {
		return
	}
	from := m.time[runLo]
	to := m.time[runHi-1] + 1
	if m.alerted && from <= m.lastAlertTo+int64(m.cfg.CooldownSeconds) && to >= m.lastAlertFrom {
		if to > m.lastAlertTo {
			m.lastAlertTo = to
		}
		if from < m.lastAlertFrom {
			m.lastAlertFrom = from
		}
		return
	}
	m.alerted = true
	m.lastAlertFrom, m.lastAlertTo = from, to
	m.onAlert(Alert{
		Window: window, Region: region,
		FromTime: from, ToTime: to,
		SelectedAttrs: selected,
	})
}

// largestRun is the shared alert policy's run finder, under the name
// the verbatim reference calls it by.
var largestRun = detect.LargestRun

// requireSameAlerts asserts two alert streams are byte-identical.
func requireSameAlerts(t *testing.T, ctx string, got, want []Alert) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d alerts, reference has %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i].FromTime != want[i].FromTime || got[i].ToTime != want[i].ToTime {
			t.Fatalf("%s: alert %d span [%d,%d), reference [%d,%d)",
				ctx, i, got[i].FromTime, got[i].ToTime, want[i].FromTime, want[i].ToTime)
		}
		if !reflect.DeepEqual(got[i].SelectedAttrs, want[i].SelectedAttrs) {
			t.Fatalf("%s: alert %d attrs %v, reference %v", ctx, i, got[i].SelectedAttrs, want[i].SelectedAttrs)
		}
		if !reflect.DeepEqual(got[i].Region, want[i].Region) {
			t.Fatalf("%s: alert %d region diverges from reference", ctx, i)
		}
		// Window datasets are materialized independently, so compare
		// content: the generation stamp is unique per instance by design.
		if !got[i].Window.ContentEqual(want[i].Window) {
			t.Fatalf("%s: alert %d window snapshot diverges from reference", ctx, i)
		}
	}
}

// goldenTrace is the scripted multi-anomaly trace the golden alert
// stream tests replay.
func goldenTrace(t *testing.T, seed int64) *metrics.Dataset {
	return simTrace(t, 900, []anomaly.Injection{
		{Kind: anomaly.CPUSaturation, Start: 200, Duration: 60},
		{Kind: anomaly.IOSaturation, Start: 450, Duration: 45},
		{Kind: anomaly.NetworkCongestion, Start: 720, Duration: 60},
	}, seed)
}

// TestMonitorGoldenAlertStream is the PR's headline equivalence: across
// a scripted multi-anomaly trace, chunk sizes, worker counts, and with
// the registry on and off, the streaming monitor's alert stream is
// byte-identical to the snapshot-based reference monitor's.
//
// refMonitor's detect.Detect is now a one-shot detect.Stream, the same
// pipeline the live monitor ticks, so this test and the ingest one
// below pin windowing and alert policy. The detection numerics from
// before batch and streaming detection shared one clustering pass are
// pinned in internal/detect, against its verbatim refDetect.
func TestMonitorGoldenAlertStream(t *testing.T) {
	for _, seed := range []int64{1, 9} {
		trace := goldenTrace(t, seed)
		for _, chunk := range []int{7, 30, 120} {
			for _, workers := range []int{1, 2, 8} {
				for _, traced := range []bool{false, true} {
					cfg := Config{WindowSeconds: 300, CheckEvery: 30, Workers: workers}
					if traced {
						cfg.Registry = obs.NewRegistry()
					}
					ctx := fmt.Sprintf("seed=%d chunk=%d workers=%d traced=%v", seed, chunk, workers, traced)

					var want []Alert
					ref := newRefMonitor(Config{WindowSeconds: 300, CheckEvery: 30}, func(a Alert) { want = append(want, a) })
					var got []Alert
					m, err := New(cfg, func(a Alert) { got = append(got, a) })
					if err != nil {
						t.Fatal(err)
					}
					for _, c := range chunked(t, trace, chunk) {
						if err := ref.Append(c); err != nil {
							t.Fatal(err)
						}
						if err := m.Append(c); err != nil {
							t.Fatal(err)
						}
					}
					if len(want) == 0 {
						t.Fatalf("%s: reference monitor raised no alerts; trace is not exercising the pipeline", ctx)
					}
					requireSameAlerts(t, ctx, got, want)
				}
			}
		}
	}
}

// TestMonitorGoldenCustomDetector pins the equivalence for the
// non-DBSCAN path too (threshold detector on the monitor's window
// snapshot vs. the reference's).
func TestMonitorGoldenCustomDetector(t *testing.T) {
	trace := simTrace(t, 600, []anomaly.Injection{
		{Kind: anomaly.NetworkCongestion, Start: 350, Duration: 50},
	}, 5)
	det := detect.ThresholdDetector{Indicator: workload.AttrAvgLatency}
	var want []Alert
	ref := newRefMonitor(Config{WindowSeconds: 300, CheckEvery: 25, Detector: det},
		func(a Alert) { want = append(want, a) })
	var got []Alert
	m, err := New(Config{WindowSeconds: 300, CheckEvery: 25, Detector: det},
		func(a Alert) { got = append(got, a) })
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunked(t, trace, 25) {
		if err := ref.Append(c); err != nil {
			t.Fatal(err)
		}
		if err := m.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	if len(want) == 0 {
		t.Fatal("reference monitor raised no alerts")
	}
	requireSameAlerts(t, "threshold", got, want)
}

// TestIngestGoldenAlertStream pins the fleet ingestion plane to the
// same verbatim reference: one ingest.Registry instance fed the golden
// traces raises alerts whose spans, selected attributes and window
// lengths equal refMonitor's, across chunk sizes and worker counts.
func TestIngestGoldenAlertStream(t *testing.T) {
	for _, seed := range []int64{1, 9} {
		trace := goldenTrace(t, seed)
		for _, chunk := range []int{7, 30, 120} {
			for _, workers := range []int{1, 8} {
				ctx := fmt.Sprintf("seed=%d chunk=%d workers=%d", seed, chunk, workers)
				var want []Alert
				ref := newRefMonitor(Config{WindowSeconds: 300, CheckEvery: 30}, func(a Alert) { want = append(want, a) })
				reg := ingest.New(ingest.Config{WindowRows: 300, CheckEvery: 30, Workers: workers})
				sub := reg.Subscribe("acme")
				for _, c := range chunked(t, trace, chunk) {
					if err := ref.Append(c); err != nil {
						t.Fatal(err)
					}
					if err := reg.Ingest("acme", "db-1", c); err != nil {
						t.Fatal(err)
					}
				}
				reg.Close() // closes sub.C after the buffered alerts
				var got []ingest.Alert
				for a := range sub.C {
					got = append(got, a)
				}
				if len(want) == 0 {
					t.Fatalf("%s: reference monitor raised no alerts", ctx)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d alerts, reference has %d", ctx, len(got), len(want))
				}
				for i := range got {
					if got[i].FromTime != want[i].FromTime || got[i].ToTime != want[i].ToTime {
						t.Fatalf("%s: alert %d span [%d,%d), reference [%d,%d)",
							ctx, i, got[i].FromTime, got[i].ToTime, want[i].FromTime, want[i].ToTime)
					}
					if !reflect.DeepEqual(got[i].SelectedAttrs, want[i].SelectedAttrs) {
						t.Fatalf("%s: alert %d attrs %v, reference %v", ctx, i, got[i].SelectedAttrs, want[i].SelectedAttrs)
					}
					if got[i].WindowRows != want[i].Window.Rows() {
						t.Fatalf("%s: alert %d window %d rows, reference %d", ctx, i, got[i].WindowRows, want[i].Window.Rows())
					}
				}
			}
		}
	}
}
