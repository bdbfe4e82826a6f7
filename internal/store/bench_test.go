package store

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"dbsherlock/internal/metrics"
	"dbsherlock/internal/obs"
)

// BenchmarkDurableAppend measures the latency of one committed write —
// encode, frame, append, fsync — for the two payload shapes the server
// produces: a per-second statistics dataset and a merged causal model.
// The fsync dominates; sync=off isolates the encoding and framing cost.
func BenchmarkDurableAppend(b *testing.B) {
	for _, sync := range []bool{true, false} {
		for _, shape := range []struct {
			name string
			rows int
		}{
			{"dataset_60rows", 60},
			{"dataset_600rows", 600},
		} {
			b.Run(fmt.Sprintf("%s/sync=%v", shape.name, sync), func(b *testing.B) {
				d, err := OpenDurable(b.TempDir(), WithSyncWrites(sync))
				if err != nil {
					b.Fatal(err)
				}
				defer d.Close()
				ds := testDataset(b, shape.rows, 7)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := d.PutDataset(DefaultTenant, ds); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("model/sync=%v", sync), func(b *testing.B) {
			d, err := OpenDurable(b.TempDir(), WithSyncWrites(sync))
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			m := testModel("lock contention", 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.PutModel(DefaultTenant, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMemoryPut is the in-memory baseline for the same writes: the
// gap to BenchmarkDurableAppend is the price of durability.
func BenchmarkMemoryPut(b *testing.B) {
	m := NewMemory()
	ds := testDataset(b, 60, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PutDataset(DefaultTenant, ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurableReplay measures cold-start time as a function of log
// size: a directory with n committed records (no snapshot — compaction
// disabled via a huge threshold) is reopened per iteration. Replay cost
// should grow linearly with the record count; compaction exists to keep
// n small in practice.
func BenchmarkDurableReplay(b *testing.B) {
	for _, n := range []int{100, 1000, 4000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			d, err := OpenDurable(dir, WithCompactEvery(1<<40), WithSyncWrites(false))
			if err != nil {
				b.Fatal(err)
			}
			ds := testDataset(b, 10, 3)
			for i := 0; i < n; i++ {
				if _, err := d.PutDataset(DefaultTenant, ds); err != nil {
					b.Fatal(err)
				}
			}
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := OpenDurable(dir, WithCompactEvery(1<<40))
				if err != nil {
					b.Fatal(err)
				}
				if err := d.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDurableReplaySnapshot is the same cold start after Compact:
// the WAL is folded into one snapshot read regardless of history length.
func BenchmarkDurableReplaySnapshot(b *testing.B) {
	dir := b.TempDir()
	d, err := OpenDurable(dir, WithCompactEvery(1<<40), WithSyncWrites(false))
	if err != nil {
		b.Fatal(err)
	}
	ds := testDataset(b, 10, 3)
	for i := 0; i < 4000; i++ {
		if _, err := d.PutDataset(DefaultTenant, ds); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Compact(); err != nil {
		b.Fatal(err)
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := OpenDurable(dir, WithCompactEvery(1<<40))
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurableAppendObserved is BenchmarkDurableAppend with the
// store observer wired to a live metrics registry, the way dbsherlockd
// runs in production. The delta to the unobserved benchmark is the full
// instrumentation cost per commit: two histogram observations (append +
// fsync), the op counter, the per-tenant counter, and the WAL gauges.
// With sync off the fsync histogram is skipped, so nosync shows the
// instrumentation floor against the cheapest possible commit.
func BenchmarkDurableAppendObserved(b *testing.B) {
	for _, sync := range []bool{true, false} {
		b.Run(fmt.Sprintf("dataset_60rows/sync=%v", sync), func(b *testing.B) {
			sm := obs.NewStoreMetrics(obs.NewRegistry(), "durable", obs.DefaultTenantLabelCap)
			d, err := OpenDurable(b.TempDir(), WithSyncWrites(sync), WithObserver(sm))
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			ds := testDataset(b, 60, 7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.PutDataset(DefaultTenant, ds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// wideDataset is an upload of the size the daemon stores: rows seconds
// of attrs numeric statistics (210 × 116 encodes to about 200 KB).
func wideDataset(tb testing.TB, rows, attrs int, seed int64) *metrics.Dataset {
	tb.Helper()
	times := make([]int64, rows)
	for i := range times {
		times[i] = int64(i + 1)
	}
	ds, err := metrics.NewDataset(times)
	if err != nil {
		tb.Fatal(err)
	}
	for a := 0; a < attrs; a++ {
		vals := make([]float64, rows)
		for i := range vals {
			vals[i] = float64(seed) + float64(a)*0.5 + float64(i%17)*1.25
		}
		if err := ds.AddNumeric("attr_"+strconv.Itoa(a), vals); err != nil {
			tb.Fatal(err)
		}
	}
	return ds
}

// BenchmarkDurableCommitTail measures commit latency the way the
// incident-writes workload sees it: a state of 32 datasets of ~200 KB
// (210 rows × 116 attributes), where each op uploads one more and
// deletes the oldest, per-commit fsync on, and the default 4 MiB
// threshold crossed every ~20 uploads. It reports the p50 and p99 of
// the upload commits; the commits that cross the threshold are the
// p99.
func BenchmarkDurableCommitTail(b *testing.B) {
	d, err := OpenDurable(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	pool := make([]*metrics.Dataset, 8)
	for i := range pool {
		pool[i] = wideDataset(b, 210, 116, int64(i))
	}
	for i := 0; i < 32; i++ {
		if _, err := d.PutDataset(DefaultTenant, pool[i%len(pool)]); err != nil {
			b.Fatal(err)
		}
	}
	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := d.PutDataset(DefaultTenant, pool[i%len(pool)]); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(start))
		if _, err := d.DeleteDataset(DefaultTenant, d.Datasets(DefaultTenant)[0].ID); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	slices.Sort(lat)
	ms := func(q float64) float64 { return float64(lat[int(q*float64(len(lat)-1))]) / 1e6 }
	b.ReportMetric(ms(0.50), "p50-ms")
	b.ReportMetric(ms(0.99), "p99-ms")
}

// BenchmarkDurableReplaySegments is BenchmarkDurableReplay's 4000
// records split evenly over n WAL segments (the layout failed or
// in-flight compactions leave): the cost of replay per extra segment.
func BenchmarkDurableReplaySegments(b *testing.B) {
	const records = 4000
	ds := testDataset(b, 10, 3)
	for _, n := range []int{1, 5, 20, 100} {
		b.Run(fmt.Sprintf("segments=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			seq := uint64(0)
			for s := 0; s < n; s++ {
				img := append([]byte(nil), walMagic...)
				for i := 0; i < records/n; i++ {
					seq++
					o := &op{kind: opPutDataset, tenant: DefaultTenant, id: "ds-" + strconv.FormatUint(seq, 10), ds: ds}
					img = append(img, encodeWALRecord(seq, o)...)
				}
				if err := os.WriteFile(filepath.Join(dir, segmentName(s)), img, 0o644); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := OpenDurable(dir, WithCompactEvery(1<<40))
				if err != nil {
					b.Fatal(err)
				}
				if err := d.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchState is the incident-writes state a compaction encodes: 32
// datasets of 210 × 116 and ten learned models.
func benchState(b *testing.B) *Memory {
	m := NewMemory()
	for i := 0; i < 32; i++ {
		if _, err := m.PutDataset(DefaultTenant, wideDataset(b, 210, 116, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := m.PutModel(DefaultTenant, testModel("cause "+strconv.Itoa(i), 1+i)); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

var benchBytes []byte

// BenchmarkEncodeSnapshot is the encode half of one compaction of the
// incident-writes state (about 6.4 MB).
func BenchmarkEncodeSnapshot(b *testing.B) {
	m := benchState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchBytes = encodeSnapshot(uint64(i), m)
	}
}

// BenchmarkEncodeWALRecord is the encode of one upload's WAL record.
func BenchmarkEncodeWALRecord(b *testing.B) {
	o := &op{kind: opPutDataset, tenant: DefaultTenant, id: "ds-1", ds: wideDataset(b, 210, 116, 1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchBytes = encodeWALRecord(uint64(i), o)
	}
}
