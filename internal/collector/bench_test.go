package collector

import (
	"bytes"
	"testing"

	"dbsherlock/internal/anomaly"
	"dbsherlock/internal/metrics"
	"dbsherlock/internal/workload"
)

// benchTraceCSV is the upload one incident-writes operation decodes: a
// 210-s simulated trace with a 60-s anomaly, written by WriteCSV (111
// numeric and 5 categorical columns, about 433 KB).
func benchTraceCSV(b *testing.B) []byte {
	b.Helper()
	cfg := workload.DefaultConfig()
	cfg.Seed = 1
	logs := workload.NewSimulator(cfg).Run(0, 210, anomaly.Perturb([]anomaly.Injection{
		{Kind: anomaly.IOSaturation, Start: 120, Duration: 60},
	}))
	ds, err := Align(logs)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkReadCSV times the two upload shapes the daemon decodes: a
// whole trace through ReadCSV (POST /v1/datasets) and a fleet agent's
// push, the header plus 30 rows, through StreamCSV (POST /v1/ingest).
func BenchmarkReadCSV(b *testing.B) {
	trace := benchTraceCSV(b)
	b.Run("incident", func(b *testing.B) {
		b.SetBytes(int64(len(trace)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ReadCSV(bytes.NewReader(trace)); err != nil {
				b.Fatal(err)
			}
		}
	})
	push := bytes.Join(bytes.SplitAfterN(trace, []byte("\n"), 32)[:31], nil)
	b.Run("fleet", func(b *testing.B) {
		b.SetBytes(int64(len(push)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := StreamCSV(bytes.NewReader(push), DefaultChunkRows, func(ds *metrics.Dataset) error {
				if ds.Rows() != 30 {
					b.Fatalf("push decoded %d rows, want 30", ds.Rows())
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
