package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dbsherlock"
)

// newCachedServer builds a test server with the diagnosis cache on,
// plus any extra options.
func newCachedServer(t *testing.T, opts ...Option) (*httptest.Server, *Server) {
	t.Helper()
	srv := MustNew(dbsherlock.MustNew(dbsherlock.WithTheta(0.05)),
		append([]Option{WithDiagnosisCache(0, 64<<20)}, opts...)...)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

// postJSONTenant is postJSON with a tenant header.
func postJSONTenant(t *testing.T, url, tenant string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// uploadTraceTenant uploads a simulated trace under a tenant.
func uploadTraceTenant(t *testing.T, ts *httptest.Server, tenant string, seed int64) string {
	t.Helper()
	cfg := dbsherlock.DefaultTestbed()
	cfg.Seed = seed
	ds, _, err := dbsherlock.Simulate(cfg, 0, 190, []dbsherlock.Injection{
		{Kind: dbsherlock.LockContention, Start: 120, Duration: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dbsherlock.WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/datasets", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d", resp.StatusCode)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

// explainBody posts one explain request and returns the raw response
// body (status-checked).
func explainBody(t *testing.T, ts *httptest.Server, tenant string, body any) []byte {
	t.Helper()
	resp := postJSONTenant(t, ts.URL+"/v1/explain", tenant, body)
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain status = %d: %s", resp.StatusCode, raw)
	}
	return raw
}

// TestExplainCacheHitByteIdentical: the second identical explain is
// served from cached diagnosis state and its response bytes are
// identical to the cold run's.
func TestExplainCacheHitByteIdentical(t *testing.T) {
	ts, srv := newCachedServer(t)
	id := uploadTrace(t, ts, dbsherlock.LockContention, 1)
	req := map[string]any{"dataset": id, "from": 120, "to": 180}

	cold := explainBody(t, ts, "", req)
	if s := srv.diagCache.Stats(); s.Misses != 1 || s.Hits != 0 || s.Entries != 1 {
		t.Fatalf("after cold run: %+v", s)
	}
	hot := explainBody(t, ts, "", req)
	if s := srv.diagCache.Stats(); s.Hits != 1 {
		t.Fatalf("second run did not hit: %+v", s)
	}
	if !bytes.Equal(cold, hot) {
		t.Fatalf("cached response differs from cold response:\n%s\nvs\n%s", cold, hot)
	}
}

// TestExplainCacheTracedEquivalent: traced responses carry wall-clock
// timings, so the hot run is compared with the trace stripped — every
// other field must match the cold run exactly.
func TestExplainCacheTracedEquivalent(t *testing.T) {
	ts, srv := newCachedServer(t)
	id := uploadTrace(t, ts, dbsherlock.LockContention, 1)
	req := map[string]any{"dataset": id, "from": 120, "to": 180, "trace": true}

	strip := func(raw []byte) map[string]any {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		if m["trace"] == nil {
			t.Fatalf("traced explain lacks a trace: %s", raw)
		}
		delete(m, "trace")
		return m
	}
	cold := strip(explainBody(t, ts, "", req))
	hot := strip(explainBody(t, ts, "", req))
	if srv.diagCache.Stats().Hits != 1 {
		t.Fatal("second traced run did not hit the cache")
	}
	coldJSON, _ := json.Marshal(cold)
	hotJSON, _ := json.Marshal(hot)
	if !bytes.Equal(coldJSON, hotJSON) {
		t.Fatalf("cached traced response differs beyond the trace:\n%s\nvs\n%s", coldJSON, hotJSON)
	}
}

// TestExplainCacheDeleteInvalidatesExactly: deleting a dataset drops
// exactly that (tenant, dataset) slice — the neighbour tenant's
// same-named dataset stays hot.
func TestExplainCacheDeleteInvalidatesExactly(t *testing.T) {
	ts, srv := newCachedServer(t)
	// Both tenants' first upload gets the id "ds-1".
	idA := uploadTraceTenant(t, ts, "alice", 1)
	idB := uploadTraceTenant(t, ts, "bob", 1)
	if idA != idB {
		t.Fatalf("expected same per-tenant ids, got %q vs %q", idA, idB)
	}
	req := map[string]any{"dataset": idA, "from": 120, "to": 180}
	explainBody(t, ts, "alice", req)
	explainBody(t, ts, "bob", req)
	if s := srv.diagCache.Stats(); s.Entries != 2 {
		t.Fatalf("want 2 cached entries (tenant isolation), got %+v", s)
	}

	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/"+idA, nil)
	if err != nil {
		t.Fatal(err)
	}
	del.Header.Set(TenantHeader, "alice")
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	s := srv.diagCache.Stats()
	if s.Invalidations != 1 || s.Entries != 1 {
		t.Fatalf("after delete: %+v", s)
	}
	// Bob's same-named dataset is still hot.
	explainBody(t, ts, "bob", req)
	if s := srv.diagCache.Stats(); s.Hits != 1 {
		t.Fatalf("bob's entry should have survived alice's delete: %+v", s)
	}
}

// TestExplainCacheEvictionInvalidates: a dataset evicted by
// WithMaxDatasets drops its cached state like an explicit delete.
func TestExplainCacheEvictionInvalidates(t *testing.T) {
	ts, srv := newCachedServer(t, WithMaxDatasets(1))
	id1 := uploadTrace(t, ts, dbsherlock.LockContention, 1)
	explainBody(t, ts, "", map[string]any{"dataset": id1, "from": 120, "to": 180})
	if s := srv.diagCache.Stats(); s.Entries != 1 {
		t.Fatalf("before eviction: %+v", s)
	}
	uploadTrace(t, ts, dbsherlock.NetworkCongestion, 2) // evicts id1
	s := srv.diagCache.Stats()
	if s.Invalidations != 1 || s.Entries != 0 {
		t.Fatalf("eviction did not invalidate: %+v", s)
	}
}

// TestExplainRulesBypassesCache: rules:true diagnoses through the
// server's rules analyzer and must neither read nor populate the cache.
func TestExplainRulesBypassesCache(t *testing.T) {
	ts, srv := newCachedServer(t)
	id := uploadTrace(t, ts, dbsherlock.LockContention, 1)
	req := map[string]any{"dataset": id, "from": 120, "to": 180, "rules": true}
	explainBody(t, ts, "", req)
	explainBody(t, ts, "", req)
	if s := srv.diagCache.Stats(); s.Lookups != 0 || s.Entries != 0 {
		t.Fatalf("rules requests touched the cache: %+v", s)
	}
}

// TestExplainCacheConcurrentChurn is the -race battery: concurrent
// uploads, explains, and deletes across two tenants must produce no
// server errors and leave the cache coherent.
func TestExplainCacheConcurrentChurn(t *testing.T) {
	ts, srv := newCachedServer(t)
	tenants := []string{"alice", "bob"}
	ids := make([]string, len(tenants))
	for i, tn := range tenants {
		ids[i] = uploadTraceTenant(t, ts, tn, int64(i+1))
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tn := tenants[g%len(tenants)]
			for i := 0; i < 8; i++ {
				switch (g + i) % 3 {
				case 0, 1:
					body := `{"dataset":"` + ids[g%len(ids)] + `","from":120,"to":180}`
					req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/explain", strings.NewReader(body))
					req.Header.Set("Content-Type", "application/json")
					req.Header.Set(TenantHeader, tn)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Errorf("explain under churn: %v", err)
						return
					}
					// 200 (served) and 404 (deleted by a peer) are both
					// legitimate under churn; 5xx is not.
					if resp.StatusCode >= 500 {
						t.Errorf("explain status %d under churn", resp.StatusCode)
					}
					resp.Body.Close()
				case 2:
					req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/"+ids[g%len(ids)], nil)
					req.Header.Set(TenantHeader, tn)
					resp, err := http.DefaultClient.Do(req)
					if err == nil {
						resp.Body.Close()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	s := srv.diagCache.Stats()
	if s.Hits+s.Misses != s.Lookups {
		t.Fatalf("cache incoherent after churn: %+v", s)
	}
}

// TestBatchExplainPositional: a batch mixes valid and invalid items;
// results are positional, item errors don't fail the batch, and
// repeated items come back identical to their first occurrence.
func TestBatchExplainPositional(t *testing.T) {
	ts, srv := newCachedServer(t)
	id := uploadTrace(t, ts, dbsherlock.LockContention, 1)
	item := map[string]any{"dataset": id, "from": 120, "to": 180}
	resp := postJSONTenant(t, ts.URL+"/v1/explain/batch", "", map[string]any{
		"items": []map[string]any{
			item,
			{"dataset": "ds-404", "from": 120, "to": 180},
			item, // duplicate of item 0
			{"dataset": id, "from": 50, "to": 40},
		},
	})
	out := decode[batchExplainResponse](t, resp, http.StatusOK)
	if len(out.Results) != 4 {
		t.Fatalf("results = %d", len(out.Results))
	}
	if out.Results[0].Result == nil || out.Results[0].Error != nil {
		t.Fatalf("item 0: %+v", out.Results[0])
	}
	if out.Results[1].Error == nil || out.Results[1].Error.Code != CodeDatasetNotFound {
		t.Fatalf("item 1: %+v", out.Results[1])
	}
	if out.Results[3].Error == nil || out.Results[3].Error.Code != CodeInvalidRegion {
		t.Fatalf("item 3: %+v", out.Results[3])
	}
	a, _ := json.Marshal(out.Results[0].Result)
	b, _ := json.Marshal(out.Results[2].Result)
	if !bytes.Equal(a, b) {
		t.Fatalf("duplicate items differ:\n%s\nvs\n%s", a, b)
	}
	// The duplicate must have been served from the first occurrence's
	// cached state: one miss (cold), one hit (the repeat).
	if s := srv.diagCache.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("batch did not share diagnosis state: %+v", s)
	}
}

// TestBatchLimits: empty and oversized batches are rejected up front.
func TestBatchLimits(t *testing.T) {
	ts, _ := newCachedServer(t)
	resp := postJSONTenant(t, ts.URL+"/v1/explain/batch", "", map[string]any{"items": []any{}})
	e := decode[errorResponse](t, resp, http.StatusBadRequest)
	if e.Error.Code != CodeInvalidRequest {
		t.Fatalf("empty batch: %+v", e)
	}
	big := make([]map[string]any, DefaultMaxBatchItems+1)
	for i := range big {
		big[i] = map[string]any{"dataset": "ds-1", "from": 0, "to": 1}
	}
	resp = postJSONTenant(t, ts.URL+"/v1/explain/batch", "", map[string]any{"items": big})
	e = decode[errorResponse](t, resp, http.StatusBadRequest)
	if e.Error.Code != CodeBatchTooLarge {
		t.Fatalf("oversized batch: %+v", e)
	}
}

// TestBatchAsyncJobLifecycle: async batches return 202 + a job id, the
// job becomes fetchable with results identical to the synchronous
// path, other tenants cannot see it, and unknown ids are 404.
func TestBatchAsyncJobLifecycle(t *testing.T) {
	ts, _ := newCachedServer(t)
	id := uploadTrace(t, ts, dbsherlock.LockContention, 1)
	item := map[string]any{"dataset": id, "from": 120, "to": 180}

	syncResp := postJSONTenant(t, ts.URL+"/v1/explain/batch", "",
		map[string]any{"items": []map[string]any{item}})
	sync := decode[batchExplainResponse](t, syncResp, http.StatusOK)

	resp := postJSONTenant(t, ts.URL+"/v1/explain/batch", "",
		map[string]any{"items": []map[string]any{item}, "async": true})
	accepted := decode[map[string]string](t, resp, http.StatusAccepted)
	jobID := accepted["job"]
	if jobID == "" || accepted["status_url"] != "/v1/jobs/"+jobID {
		t.Fatalf("202 body = %v", accepted)
	}

	var final jobResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + jobID)
		if err != nil {
			t.Fatal(err)
		}
		final = decode[jobResponse](t, r, http.StatusOK)
		if final.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %q after 10s", final.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	want, _ := json.Marshal(sync.Results)
	got, _ := json.Marshal(final.Results)
	if !bytes.Equal(want, got) {
		t.Fatalf("async results differ from sync:\n%s\nvs\n%s", got, want)
	}

	// Tenant isolation: the job belongs to the default tenant.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+jobID, nil)
	req.Header.Set(TenantHeader, "mallory")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	e := decode[errorResponse](t, r2, http.StatusNotFound)
	if e.Error.Code != CodeJobNotFound {
		t.Fatalf("cross-tenant job fetch: %+v", e)
	}
	r3, err := http.Get(ts.URL + "/v1/jobs/job-99999")
	if err != nil {
		t.Fatal(err)
	}
	e = decode[errorResponse](t, r3, http.StatusNotFound)
	if e.Error.Code != CodeJobNotFound {
		t.Fatalf("unknown job fetch: %+v", e)
	}
}

// TestJobTTLExpiry: finished results vanish after the TTL.
func TestJobTTLExpiry(t *testing.T) {
	m := newJobManager(10*time.Millisecond, 8)
	j, err := m.create("default")
	if err != nil {
		t.Fatal(err)
	}
	m.complete(j, []batchItemResult{})
	if _, ok := m.get("default", j.id); !ok {
		t.Fatal("fresh job should be fetchable")
	}
	time.Sleep(20 * time.Millisecond)
	if _, ok := m.get("default", j.id); ok {
		t.Fatal("expired job still fetchable")
	}
	if running, stored := m.stats(); running != 0 || stored != 0 {
		t.Fatalf("stats after expiry: running=%d stored=%d", running, stored)
	}
}

// TestJobStoreCap: at the cap, finished jobs are evicted early to make
// room; with only running jobs the create is refused.
func TestJobStoreCap(t *testing.T) {
	m := newJobManager(time.Hour, 2)
	j1, _ := m.create("t")
	m.complete(j1, nil)
	j2, _ := m.create("t")
	if _, err := m.create("t"); err != nil {
		t.Fatalf("create at cap with a finished job present: %v", err)
	}
	if _, ok := m.get("t", j1.id); ok {
		t.Fatal("oldest finished job should have been evicted")
	}
	// Now 2 running jobs fill the store.
	if _, err := m.create("t"); err == nil {
		t.Fatal("create must fail when every stored job is running")
	}
	_ = j2
}

// TestRetryAfterDynamic: the 429 hint scales with queue depth x recent
// p50 diagnosis latency and clamps to [1, 60].
func TestRetryAfterDynamic(t *testing.T) {
	s := &Server{diagLat: newLatencyRing(), sem: newSemaphore(1, 4)}
	if got := s.retryAfterHint(); got != minRetryAfterSeconds {
		t.Fatalf("cold-start hint = %d", got)
	}
	for i := 0; i < 10; i++ {
		s.diagLat.observe(2 * time.Second)
	}
	// Queue 3 waiters behind a held slot.
	s.sem.inUse = 1
	for i := 0; i < 3; i++ {
		s.sem.queue = append(s.sem.queue, &waiter{n: 1, ready: make(chan struct{})})
	}
	// p50 2s x (3 queued + 1) = 8s.
	if got := s.retryAfterHint(); got != 8 {
		t.Fatalf("hint = %d, want 8", got)
	}
	for i := 0; i < 64; i++ {
		s.diagLat.observe(time.Minute)
	}
	if got := s.retryAfterHint(); got != maxRetryAfterSeconds {
		t.Fatalf("hint = %d, want clamped to %d", got, maxRetryAfterSeconds)
	}
	s.diagLat = newLatencyRing()
	for i := 0; i < 10; i++ {
		s.diagLat.observe(100 * time.Microsecond)
	}
	if got := s.retryAfterHint(); got != minRetryAfterSeconds {
		t.Fatalf("hint = %d, want floor %d", got, minRetryAfterSeconds)
	}
}

// TestStatusReportsCacheAndJobs: /v1/status carries the diagnosis
// cache's occupancy and the job-queue depth.
func TestStatusReportsCacheAndJobs(t *testing.T) {
	ts, _ := newCachedServer(t)
	id := uploadTrace(t, ts, dbsherlock.LockContention, 1)
	req := map[string]any{"dataset": id, "from": 120, "to": 180}
	explainBody(t, ts, "", req)
	explainBody(t, ts, "", req)

	r, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	st := decode[statusResponse](t, r, http.StatusOK)
	cs := st.DiagnosisCache
	if cs == nil {
		t.Fatal("status lacks diagnosis_cache")
	}
	if cs.Entries != 1 || cs.Hits != 1 || cs.Misses != 1 || cs.Lookups != 2 {
		t.Fatalf("cache status = %+v", cs)
	}
	if cs.HitRatio != 0.5 {
		t.Fatalf("hit ratio = %v", cs.HitRatio)
	}
	if cs.Bytes <= 0 {
		t.Fatalf("cache bytes = %d", cs.Bytes)
	}
	if st.Jobs.Running != 0 || st.Jobs.Stored != 0 {
		t.Fatalf("jobs status = %+v", st.Jobs)
	}
}

// TestBatchWeightClamp: a batch wider than the admission gate is
// admitted at the gate's full capacity instead of queueing forever.
func TestBatchWeightClamp(t *testing.T) {
	s := &Server{sem: newSemaphore(4, 4)}
	if got := s.batchWeight(2); got != 2 {
		t.Fatalf("weight(2) = %d", got)
	}
	if got := s.batchWeight(100); got != 4 {
		t.Fatalf("weight(100) = %d", got)
	}
	noGate := &Server{}
	if got := noGate.batchWeight(100); got != 100 {
		t.Fatalf("ungated weight(100) = %d", got)
	}
}
