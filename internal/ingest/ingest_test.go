package ingest

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dbsherlock/internal/anomaly"
	"dbsherlock/internal/collector"
	"dbsherlock/internal/metrics"
	"dbsherlock/internal/obs"
	"dbsherlock/internal/workload"
)

// fakeClock is an injectable clock for watchdog timing tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// flatChunk builds a healthy constant-ish chunk of n rows starting at
// the given unix second.
func flatChunk(start int64, n int) *metrics.Dataset {
	ts := make([]int64, n)
	cpu := make([]float64, n)
	io := make([]float64, n)
	for i := range ts {
		ts[i] = start + int64(i)
		cpu[i] = 10 + float64(i%3)
		io[i] = 5 + float64((i+1)%2)
	}
	ds := metrics.MustNewDataset(ts)
	if err := ds.AddNumeric("cpu", cpu); err != nil {
		panic(err)
	}
	if err := ds.AddNumeric("io", io); err != nil {
		panic(err)
	}
	return ds
}

// simTrace synthesizes an OLTP trace with injected anomalies, the same
// way the monitor tests do.
func simTrace(t testing.TB, seconds int, injs []anomaly.Injection, seed int64) *metrics.Dataset {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	logs := workload.NewSimulator(cfg).Run(1000, seconds, anomaly.Perturb(injs))
	ds, err := collector.Align(logs)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// chunked slices a dataset into consecutive chunks of the given size.
func chunked(t testing.TB, ds *metrics.Dataset, size int) []*metrics.Dataset {
	t.Helper()
	var out []*metrics.Dataset
	ts := ds.Timestamps()
	for lo := 0; lo < ds.Rows(); lo += size {
		hi := lo + size
		if hi > ds.Rows() {
			hi = ds.Rows()
		}
		chunk := metrics.MustNewDataset(ts[lo:hi])
		for a := 0; a < ds.NumAttrs(); a++ {
			col := ds.ColumnAt(a)
			var err error
			if col.Attr.Type == metrics.Numeric {
				err = chunk.AddNumeric(col.Attr.Name, col.Num[lo:hi])
			} else {
				err = chunk.AddCategorical(col.Attr.Name, col.Cat[lo:hi])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, chunk)
	}
	return out
}

func TestIngestBasicAndList(t *testing.T) {
	r := New(Config{WindowRows: 100})
	defer r.Close()

	if err := r.Ingest("acme", "db-1", flatChunk(1000, 50)); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest("acme", "db-1", flatChunk(1050, 30)); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest("acme", "db-2", flatChunk(1000, 10)); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest("globex", "db-1", flatChunk(1000, 10)); err != nil {
		t.Fatal(err)
	}

	list := r.List("acme")
	if len(list) != 2 {
		t.Fatalf("acme has %d instances, want 2", len(list))
	}
	if list[0].Instance != "db-1" || list[1].Instance != "db-2" {
		t.Fatalf("instances not sorted by name: %+v", list)
	}
	if list[0].Rows != 80 || list[0].WindowRows != 80 {
		t.Fatalf("db-1 rows=%d window=%d, want 80/80", list[0].Rows, list[0].WindowRows)
	}
	if got := r.Stats(); got.Instances != 3 || got.Rows != 100 {
		t.Fatalf("stats = %+v, want 3 instances / 100 rows", got)
	}
	// Tenancy is part of the key: globex's db-1 is a separate stream.
	if g := r.List("globex"); len(g) != 1 || g[0].Rows != 10 {
		t.Fatalf("globex list = %+v", g)
	}
}

func TestIngestRejectsBadChunks(t *testing.T) {
	r := New(Config{WindowRows: 100})
	defer r.Close()

	if err := r.Ingest("t", "db", flatChunk(1000, 20)); err != nil {
		t.Fatal(err)
	}
	// Non-monotonic: starts before the window's end.
	if err := r.Ingest("t", "db", flatChunk(1010, 5)); err == nil {
		t.Fatal("overlapping chunk accepted")
	}
	// Schema change: different attribute set.
	bad := metrics.MustNewDataset([]int64{2000})
	if err := bad.AddNumeric("other", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest("t", "db", bad); err == nil {
		t.Fatal("schema-changing chunk accepted")
	}
	// The error is surfaced on the instance status.
	list := r.List("t")
	if len(list) != 1 || list[0].LastError == "" {
		t.Fatalf("append error not recorded on status: %+v", list)
	}
	// A good chunk still lands after bad ones: the queue never wedges.
	if err := r.Ingest("t", "db", flatChunk(1020, 5)); err != nil {
		t.Fatal(err)
	}
	if got := r.List("t")[0].Rows; got != 25 {
		t.Fatalf("rows = %d, want 25", got)
	}
}

func TestIngestShedsOverBudget(t *testing.T) {
	reg := obs.NewRegistry()
	r := New(Config{WindowRows: 100, MaxQueuedRows: 30, Registry: reg})
	defer r.Close()

	// An instance whose drainer is wedged: hold the drain token by
	// enqueueing from inside... simpler: enqueue directly against a
	// draining instance.
	inst, err := r.instanceFor("t", "db")
	if err != nil {
		t.Fatal(err)
	}
	inst.mu.Lock()
	inst.draining = true // simulate a busy drainer
	inst.mu.Unlock()

	if err := r.Ingest("t", "db", flatChunk(1000, 20)); err != nil {
		t.Fatal(err) // 20 queued
	}
	if err := r.Ingest("t", "db", flatChunk(1020, 20)); !errors.Is(err, ErrShed) {
		t.Fatalf("over-budget append returned %v, want ErrShed", err)
	}
	if got := r.Stats().Shed; got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	if got := r.List("t")[0].QueuedRows; got != 20 {
		t.Fatalf("queued rows = %d, want 20", got)
	}

	// Release the token; the next ingest drains everything.
	inst.mu.Lock()
	inst.draining = false
	inst.mu.Unlock()
	if err := r.Ingest("t", "db", flatChunk(1020, 5)); err != nil {
		t.Fatal(err)
	}
	if got := r.List("t")[0].Rows; got != 25 {
		t.Fatalf("rows after drain = %d, want 25", got)
	}
}

func TestIngestInstanceCap(t *testing.T) {
	r := New(Config{MaxInstances: 2})
	defer r.Close()

	if err := r.Ingest("t", "a", flatChunk(1000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest("t", "b", flatChunk(1000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest("t", "c", flatChunk(1000, 1)); !errors.Is(err, ErrTooManyInstances) {
		t.Fatalf("over-cap instance returned %v, want ErrTooManyInstances", err)
	}
	// Existing instances keep working at the cap.
	if err := r.Ingest("t", "a", flatChunk(1001, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestWatchdogStalenessAndEviction(t *testing.T) {
	clock := newFakeClock()
	reg := obs.NewRegistry()
	r := New(Config{
		StaleAfter: 30 * time.Second,
		EvictAfter: 2 * time.Minute,
		Registry:   reg,
		Now:        clock.Now,
	})
	defer r.Close()

	if err := r.Ingest("t", "fresh", flatChunk(1000, 10)); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest("t", "quiet", flatChunk(1000, 10)); err != nil {
		t.Fatal(err)
	}

	// t+29s: nobody is stale yet.
	clock.Advance(29 * time.Second)
	if flagged, evicted := r.Sweep(); flagged != 0 || evicted != 0 {
		t.Fatalf("sweep at 29s flagged=%d evicted=%d, want 0/0", flagged, evicted)
	}

	// t+31s: both cross StaleAfter, but "fresh" gets a sample first.
	clock.Advance(2 * time.Second)
	if err := r.Ingest("t", "fresh", flatChunk(1010, 10)); err != nil {
		t.Fatal(err)
	}
	flagged, evicted := r.Sweep()
	if flagged != 1 || evicted != 0 {
		t.Fatalf("sweep at 31s flagged=%d evicted=%d, want 1/0", flagged, evicted)
	}
	for _, st := range r.List("t") {
		wantStale := st.Instance == "quiet"
		if st.Stale != wantStale {
			t.Errorf("%s stale=%v, want %v", st.Instance, st.Stale, wantStale)
		}
	}
	// Re-sweeping does not double-count the transition.
	if flagged, _ := r.Sweep(); flagged != 0 {
		t.Fatalf("second sweep flagged %d, want 0 (already stale)", flagged)
	}

	// A new sample clears staleness.
	if err := r.Ingest("t", "quiet", flatChunk(1010, 1)); err != nil {
		t.Fatal(err)
	}
	for _, st := range r.List("t") {
		if st.Stale {
			t.Errorf("%s still stale after fresh sample", st.Instance)
		}
	}

	// t+2m31s since quiet's revival: quiet is evicted, fresh was fed at
	// +31s so it is also beyond EvictAfter... feed fresh to keep it.
	clock.Advance(2 * time.Minute)
	if err := r.Ingest("t", "fresh", flatChunk(1020, 1)); err != nil {
		t.Fatal(err)
	}
	clock.Advance(31 * time.Second)
	if err := r.Ingest("t", "fresh", flatChunk(1021, 1)); err != nil {
		t.Fatal(err)
	}
	_, evicted = r.Sweep()
	if evicted != 1 {
		t.Fatalf("evicted %d, want 1 (quiet)", evicted)
	}
	list := r.List("t")
	if len(list) != 1 || list[0].Instance != "fresh" {
		t.Fatalf("after eviction list = %+v, want just fresh", list)
	}
	if got := r.Stats().Instances; got != 1 {
		t.Fatalf("instance count after eviction = %d, want 1", got)
	}

	// An evicted instance re-registers transparently on the next push.
	if err := r.Ingest("t", "quiet", flatChunk(5000, 10)); err != nil {
		t.Fatal(err)
	}
	if got := len(r.List("t")); got != 2 {
		t.Fatalf("list after re-registration has %d instances, want 2", got)
	}
}

func TestIngestAlertsOnInjectedAnomaly(t *testing.T) {
	trace := simTrace(t, 600, []anomaly.Injection{
		{Kind: anomaly.IOSaturation, Start: 400, Duration: 60},
	}, 1)

	r := New(Config{WindowRows: 300, CheckEvery: 30})
	defer r.Close()
	sub := r.Subscribe("acme")
	defer sub.Cancel()

	for _, chunk := range chunked(t, trace, 30) {
		if err := r.Ingest("acme", "db-1", chunk); err != nil {
			t.Fatal(err)
		}
	}

	var alerts []Alert
	for {
		select {
		case a := <-sub.C:
			alerts = append(alerts, a)
			continue
		default:
		}
		break
	}
	if len(alerts) == 0 {
		t.Fatal("no alert for a 60-second I/O saturation")
	}
	first := alerts[0]
	if first.Tenant != "acme" || first.Instance != "db-1" {
		t.Fatalf("alert routed to %s/%s", first.Tenant, first.Instance)
	}
	// The anomaly runs over unix seconds [1400, 1460).
	if first.ToTime <= 1400 || first.FromTime >= 1460 {
		t.Errorf("alert span [%d, %d) misses the anomaly [1400, 1460)", first.FromTime, first.ToTime)
	}
	if len(first.SelectedAttrs) == 0 {
		t.Error("alert should carry the selected attributes")
	}
	// Cooldown dedup: one anomaly must not fan out once per tick.
	if len(alerts) > 2 {
		t.Errorf("%d alerts for one anomaly, cooldown not deduplicating", len(alerts))
	}
	st := r.List("acme")
	if len(st) != 1 || st[0].Alerts != int64(len(alerts)) {
		t.Errorf("status alerts=%d, fan-out delivered %d", st[0].Alerts, len(alerts))
	}

	// A healthy stream raises nothing.
	quiet := simTrace(t, 400, nil, 2)
	for _, chunk := range chunked(t, quiet, 30) {
		if err := r.Ingest("acme", "db-2", chunk); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case a := <-sub.C:
		if a.Instance == "db-2" {
			t.Fatalf("healthy stream alerted: %+v", a)
		}
	default:
	}
}

// TestIngestShortWindowAlerts is the short-window blind spot: the
// default warmup (120 rows) exceeds a 100-row window, so before the
// warmup was clamped to the window such an instance accepted data and
// never ran detection.
func TestIngestShortWindowAlerts(t *testing.T) {
	trace := simTrace(t, 600, []anomaly.Injection{
		{Kind: anomaly.IOSaturation, Start: 400, Duration: 40},
	}, 1)
	r := New(Config{WindowRows: 100})
	defer r.Close()
	sub := r.Subscribe("acme")
	defer sub.Cancel()
	for _, chunk := range chunked(t, trace, 30) {
		if err := r.Ingest("acme", "db-1", chunk); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case a := <-sub.C:
		// The anomaly runs over unix seconds [1400, 1440).
		if a.ToTime <= 1400 || a.FromTime >= 1440 || a.WindowRows != 100 {
			t.Fatalf("alert %+v misses the anomaly [1400, 1440) in a 100-row window", a)
		}
	default:
		t.Fatal("no alert from a 100-row window over a 40-second I/O saturation")
	}
}

func TestSubscribeTenantScoping(t *testing.T) {
	r := New(Config{})
	defer r.Close()

	acme := r.Subscribe("acme")
	globex := r.Subscribe("globex")
	defer acme.Cancel()
	defer globex.Cancel()

	r.Publish(Alert{Tenant: "acme", Instance: "db-1", At: 1})
	select {
	case a := <-acme.C:
		if a.Instance != "db-1" {
			t.Fatalf("got %+v", a)
		}
	default:
		t.Fatal("acme subscriber missed its alert")
	}
	select {
	case a := <-globex.C:
		t.Fatalf("globex received acme's alert: %+v", a)
	default:
	}

	// Cancel is idempotent and Close ends remaining subscriptions.
	acme.Cancel()
	acme.Cancel()
	r.Close()
	if _, ok := <-globex.C; ok {
		t.Fatal("Close left globex's channel open")
	}
	// Subscribing after Close yields an already-closed channel.
	late := r.Subscribe("acme")
	if _, ok := <-late.C; ok {
		t.Fatal("post-Close subscription channel open")
	}
}

func TestValidInstance(t *testing.T) {
	for _, ok := range []string{"db-1", "prod.shard_07", "A"} {
		if err := ValidInstance(ok); err != nil {
			t.Errorf("ValidInstance(%q) = %v", ok, err)
		}
	}
	long := make([]byte, 129)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "a/b", "a b", "a\x00b", string(long)} {
		if err := ValidInstance(bad); err == nil {
			t.Errorf("ValidInstance(%q) accepted", bad)
		}
	}
}

// TestRegistryChurnUnderRace hammers a small registry from many
// goroutines — concurrent ingest across striped shards, watchdog sweeps
// evicting silent instances, listings, and subscriptions — and then
// checks the books balance. Run with -race this is the registry's
// synchronization proof.
func TestRegistryChurnUnderRace(t *testing.T) {
	clock := newFakeClock()
	r := New(Config{
		Shards:     4, // force key collisions onto shared stripes
		WindowRows: 64,
		StaleAfter: 10 * time.Second,
		EvictAfter: 20 * time.Second,
		Now:        clock.Now,
	})
	defer r.Close()

	const (
		writers   = 8
		instances = 16
		rounds    = 50
	)
	sub := r.Subscribe("t")
	defer sub.Cancel()
	go func() { // drain so fan-out never drops
		for range sub.C {
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("db-%d", (w+i)%instances)
				// Each writer owns a disjoint time range per instance so
				// chunks interleave without deterministic ordering; some
				// will be rejected as non-monotonic, which is fine — the
				// point is lock discipline, not acceptance.
				_ = r.Ingest("t", name, flatChunk(int64(1000+w*10000+i*10), 5))
				if i%7 == 0 {
					_ = r.List("t")
				}
				if i%13 == 0 {
					clock.Advance(time.Second)
					r.Sweep()
				}
			}
		}(w)
	}
	wg.Wait()

	// Quiesce: advance far enough that everything evicts.
	clock.Advance(time.Hour)
	r.Sweep()
	if got := r.Stats().Instances; got != 0 {
		t.Fatalf("instances after full eviction = %d, want 0", got)
	}
	if got := len(r.List("t")); got != 0 {
		t.Fatalf("list after full eviction has %d entries", got)
	}

	// The fleet keeps working after the churn.
	if err := r.Ingest("t", "db-0", flatChunk(10_000_000, 5)); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Instances; got != 1 {
		t.Fatalf("instances after revival = %d, want 1", got)
	}
}
