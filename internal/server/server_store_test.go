package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dbsherlock"
	"dbsherlock/internal/store"
)

// stepCSV builds a small dataset with an unmistakable step anomaly in
// rows [40, 60) and returns it serialized as upload-ready CSV.
func stepCSV(t *testing.T, level float64) *bytes.Buffer {
	t.Helper()
	times := make([]int64, 60)
	for i := range times {
		times[i] = int64(i + 1)
	}
	ds, err := dbsherlock.NewDataset(times)
	if err != nil {
		t.Fatal(err)
	}
	cpu := make([]float64, 60)
	lat := make([]float64, 60)
	for i := range cpu {
		cpu[i] = 10
		lat[i] = 5
		if i >= 40 {
			cpu[i] = level
			lat[i] = level / 2
		}
	}
	if err := ds.AddNumeric("cpu", cpu); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddNumeric("latency", lat); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dbsherlock.WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// doTenant issues a request with an X-DBSherlock-Tenant header ("" =
// no header, i.e. the default tenant).
func doTenant(t *testing.T, method, url, tenant, contentType string, body io.Reader) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func uploadStep(t *testing.T, ts *httptest.Server, tenant string) string {
	t.Helper()
	resp := doTenant(t, http.MethodPost, ts.URL+"/v1/datasets", tenant, "text/csv", stepCSV(t, 90))
	out := decode[map[string]any](t, resp, http.StatusCreated)
	return out["id"].(string)
}

func learnStep(t *testing.T, ts *httptest.Server, tenant, dsID, cause string) *http.Response {
	t.Helper()
	b, err := json.Marshal(map[string]any{"dataset": dsID, "from": 40, "to": 60, "cause": cause})
	if err != nil {
		t.Fatal(err)
	}
	return doTenant(t, http.MethodPost, ts.URL+"/v1/learn", tenant, "application/json", bytes.NewReader(b))
}

func causesOf(t *testing.T, ts *httptest.Server, tenant string) []string {
	t.Helper()
	resp := doTenant(t, http.MethodGet, ts.URL+"/v1/causes", tenant, "", nil)
	infos := decode[[]map[string]any](t, resp, http.StatusOK)
	out := make([]string, 0, len(infos))
	for _, info := range infos {
		out = append(out, info["cause"].(string))
	}
	return out
}

func TestTenantIsolation(t *testing.T) {
	ts, _ := newTestServer(t)

	// Per-tenant id counters: each tenant's first upload is ds-1.
	idA := uploadStep(t, ts, "alpha")
	idB := uploadStep(t, ts, "beta")
	if idA != "ds-1" || idB != "ds-1" {
		t.Fatalf("ids = %q, %q; want per-tenant ds-1", idA, idB)
	}

	// Tenant beta cannot see or delete alpha's dataset.
	resp := doTenant(t, http.MethodGet, ts.URL+"/v1/datasets", "beta", "", nil)
	if got := decode[[]datasetInfo](t, resp, http.StatusOK); len(got) != 1 {
		t.Fatalf("beta sees %d datasets, want 1", len(got))
	}
	resp = doTenant(t, http.MethodDelete, ts.URL+"/v1/datasets/"+idA, "gamma", "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant delete status = %d, want 404", resp.StatusCode)
	}

	// A cause learned under alpha ranks for alpha only.
	resp = learnStep(t, ts, "alpha", idA, "cpu saturation")
	decode[map[string]any](t, resp, http.StatusOK)
	if got := causesOf(t, ts, "alpha"); len(got) != 1 || got[0] != "cpu saturation" {
		t.Fatalf("alpha causes = %v", got)
	}
	if got := causesOf(t, ts, "beta"); len(got) != 0 {
		t.Fatalf("alpha's model leaked into beta: %v", got)
	}
	if got := causesOf(t, ts, ""); len(got) != 0 {
		t.Fatalf("alpha's model leaked into the default tenant: %v", got)
	}

	// Explain under beta must not rank alpha's model.
	b, _ := json.Marshal(map[string]any{"dataset": idB, "from": 40, "to": 60})
	resp = doTenant(t, http.MethodPost, ts.URL+"/v1/explain", "beta", "application/json", bytes.NewReader(b))
	expl := decode[explainResponse](t, resp, http.StatusOK)
	if len(expl.Causes) != 0 {
		t.Fatalf("beta explain ranked foreign causes: %+v", expl.Causes)
	}
	// Under alpha the learned cause ranks with full confidence (same
	// anomaly it was learned from).
	resp = doTenant(t, http.MethodPost, ts.URL+"/v1/explain", "alpha", "application/json", bytes.NewReader(b))
	expl = decode[explainResponse](t, resp, http.StatusOK)
	if len(expl.Causes) != 1 || expl.Causes[0].Cause != "cpu saturation" {
		t.Fatalf("alpha explain causes = %+v", expl.Causes)
	}

	// Model export is tenant-scoped too.
	resp = doTenant(t, http.MethodGet, ts.URL+"/v1/models", "beta", "", nil)
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if bytes.Contains(data, []byte("cpu saturation")) {
		t.Fatal("beta's model export contains alpha's cause")
	}
}

func TestInvalidTenantRejected(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, bad := range []string{"has space", "semi;colon"} {
		resp := doTenant(t, http.MethodGet, ts.URL+"/v1/causes", bad, "", nil)
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Error.Code != CodeInvalidTenant {
			t.Fatalf("tenant %q: status %d code %q, want 400 invalid_tenant", bad, resp.StatusCode, e.Error.Code)
		}
	}
}

// failingStore wraps a Store and fails writes on demand, standing in
// for a Durable whose log died.
type failingStore struct {
	store.Store
	mu   sync.Mutex
	fail bool
}

func (f *failingStore) failWrites(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fail = on
}

func (f *failingStore) failing() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fail
}

func (f *failingStore) PutDataset(tenant string, ds *dbsherlock.Dataset) (string, error) {
	if f.failing() {
		return "", fmt.Errorf("%w: injected", store.ErrUnavailable)
	}
	return f.Store.PutDataset(tenant, ds)
}

func (f *failingStore) PutModel(tenant string, m *dbsherlock.CausalModel) error {
	if f.failing() {
		return fmt.Errorf("%w: injected", store.ErrUnavailable)
	}
	return f.Store.PutModel(tenant, m)
}

func (f *failingStore) ReplaceModels(tenant string, models []*dbsherlock.CausalModel) error {
	if f.failing() {
		return fmt.Errorf("%w: injected", store.ErrUnavailable)
	}
	return f.Store.ReplaceModels(tenant, models)
}

func newFailingServer(t *testing.T) (*httptest.Server, *failingStore) {
	t.Helper()
	fs := &failingStore{Store: store.NewMemory()}
	srv := MustNew(dbsherlock.MustNew(dbsherlock.WithTheta(0.05)), WithStore(fs))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, fs
}

func wantEnvelope(t *testing.T, resp *http.Response, status int, code ErrorCode) {
	t.Helper()
	defer resp.Body.Close()
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != status || e.Error.Code != code {
		t.Fatalf("status %d code %q, want %d %q", resp.StatusCode, e.Error.Code, status, code)
	}
}

func TestLearnStoreFailureRollsBackModel(t *testing.T) {
	ts, fs := newFailingServer(t)
	id := uploadStep(t, ts, "")

	fs.failWrites(true)
	resp := learnStep(t, ts, "", id, "doomed cause")
	wantEnvelope(t, resp, http.StatusServiceUnavailable, CodeStoreUnavailable)
	// A learn installs only after its commit, so the refused model never
	// reaches the bank and cannot rank.
	if got := causesOf(t, ts, ""); len(got) != 0 {
		t.Fatalf("unpersisted model still listed: %v", got)
	}

	// Once the store recovers, the same learn succeeds and persists.
	fs.failWrites(false)
	resp = learnStep(t, ts, "", id, "doomed cause")
	decode[map[string]any](t, resp, http.StatusOK)
	if got := causesOf(t, ts, ""); len(got) != 1 {
		t.Fatalf("causes after recovery = %v", got)
	}
	if got := fs.Store.Models(store.DefaultTenant); len(got) != 1 || got[0].Cause != "doomed cause" {
		t.Fatalf("store models = %+v", got)
	}
}

func TestUploadStoreFailure(t *testing.T) {
	ts, fs := newFailingServer(t)
	fs.failWrites(true)
	resp := doTenant(t, http.MethodPost, ts.URL+"/v1/datasets", "", "text/csv", stepCSV(t, 90))
	wantEnvelope(t, resp, http.StatusServiceUnavailable, CodeStoreUnavailable)
}

func TestImportStoreFailureLeavesBankUntouched(t *testing.T) {
	ts, fs := newFailingServer(t)
	id := uploadStep(t, ts, "")
	resp := learnStep(t, ts, "", id, "existing cause")
	decode[map[string]any](t, resp, http.StatusOK)

	// Export the bank, then try to re-import it while the store is
	// down: the import must fail without touching the live bank.
	resp = doTenant(t, http.MethodGet, ts.URL+"/v1/models", "", "", nil)
	exported, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	fs.failWrites(true)
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models", bytes.NewReader(exported))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelope(t, resp, http.StatusServiceUnavailable, CodeStoreUnavailable)
	if got := causesOf(t, ts, ""); len(got) != 1 || got[0] != "existing cause" {
		t.Fatalf("bank changed by refused import: %v", got)
	}
}

func TestServerStatePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := MustNew(dbsherlock.MustNew(dbsherlock.WithTheta(0.05)), WithStore(st))
	ts := httptest.NewServer(srv)

	idA := uploadStep(t, ts, "alpha")
	resp := learnStep(t, ts, "alpha", idA, "cpu saturation")
	decode[map[string]any](t, resp, http.StatusOK)
	uploadStep(t, ts, "beta")
	resp = doTenant(t, http.MethodGet, ts.URL+"/v1/models", "alpha", "", nil)
	exported1, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh analyzer, fresh server, same directory.
	st2, err := store.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	srv2 := MustNew(dbsherlock.MustNew(dbsherlock.WithTheta(0.05)), WithStore(st2))
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	if got := causesOf(t, ts2, "alpha"); len(got) != 1 || got[0] != "cpu saturation" {
		t.Fatalf("alpha causes after restart = %v", got)
	}
	if got := causesOf(t, ts2, "beta"); len(got) != 0 {
		t.Fatalf("beta causes after restart = %v", got)
	}
	resp = doTenant(t, http.MethodGet, ts2.URL+"/v1/datasets", "alpha", "", nil)
	if got := decode[[]datasetInfo](t, resp, http.StatusOK); len(got) != 1 || got[0].ID != idA {
		t.Fatalf("alpha datasets after restart = %+v", got)
	}
	// The model export round-trips byte-identically across the restart.
	resp = doTenant(t, http.MethodGet, ts2.URL+"/v1/models", "alpha", "", nil)
	exported2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(exported1, exported2) {
		t.Fatal("alpha model export differs across restart")
	}
}

func TestImportModelsTooLarge(t *testing.T) {
	srv := MustNew(dbsherlock.MustNew(), WithMaxUploadBytes(256))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Leading whitespace keeps the JSON decoder reading (rather than
	// failing on a syntax error) until the byte cap trips.
	big := bytes.NewReader(bytes.Repeat([]byte(" "), 1024))
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models", big)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelope(t, resp, http.StatusRequestEntityTooLarge, CodePayloadTooLarge)
}

func TestNewFailsWhenPreloadedModelPersistFails(t *testing.T) {
	// The analyzer arrives pre-loaded (the daemon's -models file) and
	// the store refuses the write: the server must not start and serve
	// models that would vanish on restart.
	a := dbsherlock.MustNew()
	a.ModelBank().Set(&dbsherlock.CausalModel{Cause: "preloaded", Merged: 1})
	fs := &failingStore{Store: store.NewMemory()}
	fs.failWrites(true)
	if _, err := New(a, WithStore(fs)); err == nil {
		t.Fatal("New succeeded with a store that cannot persist pre-loaded models")
	}
	// With a healthy store the same configuration starts and the model
	// is durable.
	fs2 := &failingStore{Store: store.NewMemory()}
	if _, err := New(a, WithStore(fs2)); err != nil {
		t.Fatalf("New with healthy store: %v", err)
	}
	if got := fs2.Store.Models(store.DefaultTenant); len(got) != 1 || got[0].Cause != "preloaded" {
		t.Fatalf("pre-loaded model not persisted: %+v", got)
	}
}

// flakyStore fails every other PutModel, standing in for a log that
// flaps between healthy and unavailable.
type flakyStore struct {
	store.Store
	mu sync.Mutex
	n  int
}

func (f *flakyStore) PutModel(tenant string, m *dbsherlock.CausalModel) error {
	f.mu.Lock()
	f.n++
	fail := f.n%2 == 0
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("%w: injected", store.ErrUnavailable)
	}
	return f.Store.PutModel(tenant, m)
}

func TestConcurrentLearnNeverDivergesFromStore(t *testing.T) {
	// Concurrent learns on one cause against a flapping store: every
	// learn merges, commits and installs under the server's model lock,
	// and installs only what the store accepted, so the bank ends equal
	// to the stored model whichever commits fail.
	fs := &flakyStore{Store: store.NewMemory()}
	srv := MustNew(dbsherlock.MustNew(dbsherlock.WithTheta(0.05)), WithStore(fs))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	id := uploadStep(t, ts, "")

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := learnStep(t, ts, "", id, "racy cause")
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("learn status = %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()

	bankModel := srv.bankFor(store.DefaultTenant).Model("racy cause")
	var storeModel *dbsherlock.CausalModel
	for _, m := range fs.Store.Models(store.DefaultTenant) {
		if m.Cause == "racy cause" {
			storeModel = m
		}
	}
	switch {
	case bankModel == nil && storeModel == nil:
	case bankModel == nil || storeModel == nil:
		t.Fatalf("bank model = %+v, store model = %+v: memory diverged from disk", bankModel, storeModel)
	case bankModel.Merged != storeModel.Merged:
		t.Fatalf("bank merged = %d, store merged = %d: memory diverged from disk",
			bankModel.Merged, storeModel.Merged)
	}
}

// holdingStore holds every PutModel until a ReplaceModels has run or
// 300 ms have passed, widening the window in which a learn's commit and
// a model import could interleave. held is closed once a PutModel is
// being held.
type holdingStore struct {
	store.Store
	held, replaced         chan struct{}
	heldOnce, replacedOnce sync.Once
}

func (h *holdingStore) PutModel(tenant string, m *dbsherlock.CausalModel) error {
	h.heldOnce.Do(func() { close(h.held) })
	select {
	case <-h.replaced:
	case <-time.After(300 * time.Millisecond):
	}
	return h.Store.PutModel(tenant, m)
}

func (h *holdingStore) ReplaceModels(tenant string, models []*dbsherlock.CausalModel) error {
	err := h.Store.ReplaceModels(tenant, models)
	h.replacedOnce.Do(func() { close(h.replaced) })
	return err
}

// TestLearnSerializesWithImport pins that a learn and a model import
// never interleave: an import sent while a learn's commit is in flight
// lands wholly before or wholly after it, so the served causes always
// equal the stored ones. Were the import to run between the learn's
// commit and its install, the learn would answer 200 and be durable
// while GET /v1/causes no longer listed it.
func TestLearnSerializesWithImport(t *testing.T) {
	hs := &holdingStore{Store: store.NewMemory(),
		held: make(chan struct{}), replaced: make(chan struct{})}
	srv := MustNew(dbsherlock.MustNew(dbsherlock.WithTheta(0.05)), WithStore(hs))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	id := uploadStep(t, ts, "")

	bank := dbsherlock.NewModelBank()
	bank.Set(dbsherlock.NewCausalModel("imported cause", nil))
	var imported bytes.Buffer
	if err := bank.Save(&imported); err != nil {
		t.Fatal(err)
	}

	learnStatus := make(chan int, 1)
	go func() {
		body := fmt.Sprintf(`{"dataset":%q,"from":40,"to":60,"cause":"racing cause"}`, id)
		resp, err := http.Post(ts.URL+"/v1/learn", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Error(err)
			learnStatus <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		learnStatus <- resp.StatusCode
	}()
	select {
	case <-hs.held:
	case code := <-learnStatus:
		t.Fatalf("learn answered %d before its commit was held", code)
	}
	resp := doTenant(t, http.MethodPut, ts.URL+"/v1/models", "", "application/json", &imported)
	decode[map[string]any](t, resp, http.StatusOK)
	if code := <-learnStatus; code != http.StatusOK {
		t.Fatalf("learn status = %d", code)
	}

	var stored []string
	for _, m := range hs.Store.Models(store.DefaultTenant) {
		stored = append(stored, m.Cause)
	}
	if served := causesOf(t, ts, ""); fmt.Sprint(served) != fmt.Sprint(stored) {
		t.Fatalf("served causes %v, stored causes %v: memory diverged from the store", served, stored)
	}
}
