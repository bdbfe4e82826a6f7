package obs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestStoreMetricsExposition(t *testing.T) {
	reg := NewRegistry()
	m := NewStoreMetrics(reg, "durable", 0)

	m.ObserveReplay(3*time.Millisecond, 12, 4096)
	m.ObserveAppend(80*time.Microsecond, 900*time.Microsecond, 256)
	m.ObserveCommit("acme", "put_dataset")
	m.ObserveCommit("acme", "put_model")
	m.ObserveRollback()
	m.ObserveTornTail(17)
	m.ObserveTooLarge()
	m.ObserveCompaction(2*time.Millisecond, 1024, nil)
	m.ObserveCompaction(time.Millisecond, 0, errors.New("rename failed"))
	m.SetWALState(8192, 42)
	m.SetSnapshotSize(1024)
	m.SetReadOnly(true)

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`dbsherlock_store_wal_append_seconds_count{backend="durable"} 1`,
		`dbsherlock_store_wal_append_seconds_bucket{backend="durable",le="0.0001"} 1`,
		`dbsherlock_store_fsync_seconds_count{backend="durable"} 1`,
		`dbsherlock_store_fsync_seconds_bucket{backend="durable",le="0.001"} 1`,
		`dbsherlock_store_replay_seconds_count{backend="durable"} 1`,
		`dbsherlock_store_compaction_seconds_count{backend="durable"} 2`,
		`dbsherlock_store_wal_size_bytes{backend="durable"} 8192`,
		`dbsherlock_store_wal_sequence{backend="durable"} 42`,
		`dbsherlock_store_snapshot_size_bytes{backend="durable"} 1024`,
		`dbsherlock_store_read_only{backend="durable"} 1`,
		`dbsherlock_store_replay_bytes{backend="durable"} 4096`,
		`dbsherlock_store_commits_total{backend="durable",op="put_dataset"} 1`,
		`dbsherlock_store_commits_total{backend="durable",op="put_model"} 1`,
		`dbsherlock_store_tenant_ops_total{backend="durable",tenant="acme"} 2`,
		`dbsherlock_store_rollbacks_total{backend="durable"} 1`,
		`dbsherlock_store_torn_tail_bytes_total{backend="durable"} 17`,
		`dbsherlock_store_rejected_too_large_total{backend="durable"} 1`,
		`dbsherlock_store_compactions_total{backend="durable",result="ok"} 1`,
		`dbsherlock_store_compactions_total{backend="durable",result="error"} 1`,
		`dbsherlock_store_replays_total{backend="durable"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}

	m.SetReadOnly(false)
	b.Reset()
	reg.WritePrometheus(&b)
	if !strings.Contains(b.String(), `dbsherlock_store_read_only{backend="durable"} 0`) {
		t.Error("read_only gauge did not return to 0")
	}
}

// TestStoreMetricsCompactionResults: a background compaction's failure
// reaches no request, so the counter must split attempts by outcome,
// and both series exist before the first attempt.
func TestStoreMetricsCompactionResults(t *testing.T) {
	reg := NewRegistry()
	m := NewStoreMetrics(reg, "durable", 0)
	render := func() string {
		var b strings.Builder
		reg.WritePrometheus(&b)
		return b.String()
	}
	for _, want := range []string{
		`dbsherlock_store_compactions_total{backend="durable",result="ok"} 0`,
		`dbsherlock_store_compactions_total{backend="durable",result="error"} 0`,
	} {
		if out := render(); !strings.Contains(out, want) {
			t.Errorf("fresh registry missing %q", want)
		}
	}
	for i := 0; i < 3; i++ {
		m.ObserveCompaction(time.Millisecond, 4096, nil)
	}
	m.ObserveCompaction(time.Millisecond, 4096, errors.New("sync data dir: injected"))
	out := render()
	for _, want := range []string{
		`dbsherlock_store_compactions_total{backend="durable",result="ok"} 3`,
		`dbsherlock_store_compactions_total{backend="durable",result="error"} 1`,
		`dbsherlock_store_compaction_seconds_count{backend="durable"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestStoreMetricsZeroSyncSkipsFsyncHistogram: commits on a store
// opened with sync disabled must not pollute the fsync histogram with
// zero-duration samples.
func TestStoreMetricsZeroSyncSkipsFsyncHistogram(t *testing.T) {
	reg := NewRegistry()
	m := NewStoreMetrics(reg, "durable", 0)
	m.ObserveAppend(10*time.Microsecond, 0, 64)
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	if strings.Contains(out, `dbsherlock_store_fsync_seconds_count{backend="durable"} 1`) {
		t.Error("zero sync duration was observed in the fsync histogram")
	}
	if !strings.Contains(out, `dbsherlock_store_wal_append_seconds_count{backend="durable"} 1`) {
		t.Error("append histogram missing the observation")
	}
}

// TestStoreMetricsTenantCardinalityCap: tenants beyond the cap fold
// into tenant="_other" and the family stays at cap+1 children.
func TestStoreMetricsTenantCardinalityCap(t *testing.T) {
	reg := NewRegistry()
	m := NewStoreMetrics(reg, "durable", 5)
	for i := 0; i < 200; i++ {
		m.ObserveCommit(fmt.Sprintf("tenant-%d", i), "put_dataset")
	}
	var tenantFam FamilyInfo
	for _, f := range reg.Families() {
		if f.Name == "dbsherlock_store_tenant_ops_total" {
			tenantFam = f
		}
	}
	if tenantFam.Children != 6 {
		t.Errorf("tenant_ops children = %d, want cap+1 = 6", tenantFam.Children)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	want := fmt.Sprintf(`dbsherlock_store_tenant_ops_total{backend="durable",tenant="%s"} 195`, TenantOverflow)
	if !strings.Contains(b.String(), want) {
		t.Errorf("exposition missing overflow series %q:\n%s", want, b.String())
	}
}
