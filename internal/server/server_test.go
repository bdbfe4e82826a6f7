package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"dbsherlock"
)

func newTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	srv := MustNew(dbsherlock.MustNew(dbsherlock.WithTheta(0.05)))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return ts, srv
}

// uploadTrace simulates an anomaly trace and uploads it, returning the
// dataset id.
func uploadTrace(t *testing.T, ts *httptest.Server, kind dbsherlock.AnomalyKind, seed int64) string {
	t.Helper()
	cfg := dbsherlock.DefaultTestbed()
	cfg.Seed = seed
	ds, _, err := dbsherlock.Simulate(cfg, 0, 190, []dbsherlock.Injection{
		{Kind: kind, Start: 120, Duration: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dbsherlock.WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/datasets", "text/csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d", resp.StatusCode)
	}
	var out struct {
		ID   string `json:"id"`
		Rows int    `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Rows != 190 {
		t.Fatalf("rows = %d", out.Rows)
	}
	return out.ID
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response, wantStatus int) T {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("status = %d (want %d): %s: %s", resp.StatusCode, wantStatus, e.Error.Code, e.Error.Message)
	}
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]string](t, resp, http.StatusOK)
	if out["status"] != "ok" {
		t.Errorf("healthz = %v", out)
	}
}

func TestUploadRejectsGarbage(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/datasets", "text/csv", strings.NewReader("not,a,dataset\n1,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestExplainLearnDiagnoseFlow(t *testing.T) {
	ts, _ := newTestServer(t)
	id := uploadTrace(t, ts, dbsherlock.LockContention, 1)

	// List shows the dataset.
	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[[]datasetInfo](t, resp, http.StatusOK)
	if len(list) != 1 || list[0].ID != id {
		t.Fatalf("datasets = %+v", list)
	}

	// Explain with a manual region: predicates, no causes yet.
	from, to := 120, 180
	expl := decode[explainResponse](t, postJSON(t, ts.URL+"/v1/explain",
		explainRequest{Dataset: id, From: &from, To: &to}), http.StatusOK)
	if len(expl.Predicates) == 0 {
		t.Fatal("no predicates")
	}
	if len(expl.Causes) != 0 {
		t.Fatalf("causes before learning: %+v", expl.Causes)
	}

	// Learn the cause with a remediation.
	learned := decode[map[string]any](t, postJSON(t, ts.URL+"/v1/learn", learnRequest{
		Dataset: id, From: &from, To: &to, Cause: "Lock Contention", Remedy: "spread the district",
	}), http.StatusOK)
	if learned["cause"] != "Lock Contention" {
		t.Fatalf("learned = %v", learned)
	}

	// A fresh trace of the same anomaly now diagnoses the cause.
	id2 := uploadTrace(t, ts, dbsherlock.LockContention, 2)
	expl2 := decode[explainResponse](t, postJSON(t, ts.URL+"/v1/explain",
		explainRequest{Dataset: id2, From: &from, To: &to}), http.StatusOK)
	if len(expl2.Causes) == 0 || expl2.Causes[0].Cause != "Lock Contention" {
		t.Fatalf("causes = %+v", expl2.Causes)
	}

	// Causes endpoint exposes the model with its remediation.
	resp, err = http.Get(ts.URL + "/v1/causes")
	if err != nil {
		t.Fatal(err)
	}
	causes := decode[[]causeInfo](t, resp, http.StatusOK)
	if len(causes) != 1 || causes[0].Remediations[0] != "spread the district" {
		t.Fatalf("causes = %+v", causes)
	}
}

func TestExplainValidationErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	id := uploadTrace(t, ts, dbsherlock.CPUSaturation, 3)

	// Unknown dataset.
	from, to := 10, 20
	resp := postJSON(t, ts.URL+"/v1/explain", explainRequest{Dataset: "nope", From: &from, To: &to})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown dataset status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Missing region.
	resp = postJSON(t, ts.URL+"/v1/explain", explainRequest{Dataset: id})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing region status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Malformed body.
	raw, err := http.Post(ts.URL+"/v1/explain", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	if raw.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d", raw.StatusCode)
	}
	raw.Body.Close()
}

func TestExplainWithRules(t *testing.T) {
	ts, _ := newTestServer(t)
	id := uploadTrace(t, ts, dbsherlock.PoorlyWrittenQuery, 4)
	from, to := 120, 180
	expl := decode[explainResponse](t, postJSON(t, ts.URL+"/v1/explain",
		explainRequest{Dataset: id, From: &from, To: &to, Rules: true}), http.StatusOK)
	if len(expl.Predicates) == 0 {
		t.Fatal("no predicates")
	}
	for _, pr := range expl.Pruned {
		if pr.Kappa < 0.15 {
			t.Errorf("pruned with kappa %.2f below threshold", pr.Kappa)
		}
	}
}

// TestExplainWithRulesRanksTenantCauses: a rules:true explain ranks the
// request tenant's own models exactly as a plain explain of the same
// region does — domain knowledge prunes predicates, never causes — and
// a tenant without models gets no causes either way.
func TestExplainWithRulesRanksTenantCauses(t *testing.T) {
	ts, _ := newTestServer(t)
	learned := map[string]string{"": "Lock Contention", "alice": "alice contention"}
	ids := map[string]string{}
	for tenant, cause := range learned {
		ids[tenant] = uploadTraceTenant(t, ts, tenant, 4)
		decode[map[string]any](t, postJSONTenant(t, ts.URL+"/v1/learn", tenant, map[string]any{
			"dataset": ids[tenant], "from": 120, "to": 180, "cause": cause,
		}), http.StatusOK)
	}
	ids["bob"] = uploadTraceTenant(t, ts, "bob", 4)

	for tenant, id := range ids {
		from, to := 120, 180
		plain := decode[explainResponse](t, postJSONTenant(t, ts.URL+"/v1/explain", tenant,
			explainRequest{Dataset: id, From: &from, To: &to}), http.StatusOK)
		rules := decode[explainResponse](t, postJSONTenant(t, ts.URL+"/v1/explain", tenant,
			explainRequest{Dataset: id, From: &from, To: &to, Rules: true}), http.StatusOK)
		if !reflect.DeepEqual(rules.Causes, plain.Causes) {
			t.Errorf("tenant %q: rules causes %+v, plain causes %+v", tenant, rules.Causes, plain.Causes)
		}
		cause, ok := learned[tenant]
		switch {
		case !ok && len(rules.Causes) != 0:
			t.Errorf("tenant %q has no models but ranked %+v", tenant, rules.Causes)
		case ok && (len(rules.Causes) != 1 || rules.Causes[0].Cause != cause):
			t.Errorf("tenant %q: rules causes %+v, want only %q", tenant, rules.Causes, cause)
		}
	}
}

func TestDetectEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	// Long trace so the anomaly is a small fraction (Section 7
	// assumption).
	cfg := dbsherlock.DefaultTestbed()
	cfg.Seed = 5
	ds, _, err := dbsherlock.Simulate(cfg, 0, 500, []dbsherlock.Injection{
		{Kind: dbsherlock.IOSaturation, Start: 250, Duration: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dbsherlock.WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/datasets", "text/csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	up := decode[map[string]any](t, resp, http.StatusCreated)
	id := up["id"].(string)

	for _, detector := range []string{"", "dbscan", "threshold", "perfaugur"} {
		out := decode[map[string]any](t, postJSON(t, ts.URL+"/v1/detect",
			detectRequest{Dataset: id, Detector: detector}), http.StatusOK)
		if out["found"] != true {
			t.Errorf("detector %q found nothing", detector)
		}
	}
	bad := postJSON(t, ts.URL+"/v1/detect", detectRequest{Dataset: id, Detector: "wat"})
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad detector status = %d", bad.StatusCode)
	}
	bad.Body.Close()
}

func TestModelExportImport(t *testing.T) {
	ts, _ := newTestServer(t)
	id := uploadTrace(t, ts, dbsherlock.NetworkCongestion, 6)
	from, to := 120, 180
	decode[map[string]any](t, postJSON(t, ts.URL+"/v1/learn", learnRequest{
		Dataset: id, From: &from, To: &to, Cause: "Network Congestion",
	}), http.StatusOK)

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var exported bytes.Buffer
	if _, err := exported.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(exported.String(), "Network Congestion") {
		t.Fatal("export misses the learned cause")
	}

	// Import into a fresh server.
	ts2, _ := newTestServer(t)
	req, err := http.NewRequest(http.MethodPut, ts2.URL+"/v1/models", &exported)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, resp2, http.StatusOK)
	if fmt.Sprintf("%v", out["causes"]) != "1" {
		t.Errorf("imported causes = %v", out["causes"])
	}
}

func TestRegionRanges(t *testing.T) {
	r := dbsherlock.NewRegion(20)
	for _, i := range []int{3, 4, 5, 9, 15, 16} {
		r.Add(i)
	}
	got := regionRanges(r)
	want := []rowRange{{3, 6}, {9, 10}, {15, 17}}
	if len(got) != len(want) {
		t.Fatalf("ranges = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranges = %+v, want %+v", got, want)
		}
	}
}

func TestLearnRequiresCause(t *testing.T) {
	ts, _ := newTestServer(t)
	id := uploadTrace(t, ts, dbsherlock.CPUSaturation, 7)
	from, to := 120, 180
	resp := postJSON(t, ts.URL+"/v1/learn", learnRequest{Dataset: id, From: &from, To: &to})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}
