package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"dbsherlock"
	"dbsherlock/internal/obs"
)

// expositionLine matches one Prometheus text-format sample line. Label
// values are quoted strings and may contain any character (notably the
// braces in route patterns like /v1/datasets/{id}), so the value part
// is matched by quote-delimited tokens, not by "no closing brace".
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*",?)*\})? [^ ]+$`)

// scrapeMetrics fetches /metrics and sanity-parses the exposition
// format: every non-comment, non-blank line must be a sample.
func scrapeMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
	}
	return string(body)
}

// metricValue extracts one sample's value from a scrape.
func metricValue(t *testing.T, scrape, name, labels string) float64 {
	t.Helper()
	prefix := name + labels + " "
	for _, line := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(line, prefix) {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, prefix), "%g", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no sample %s%s in scrape:\n%s", name, labels, scrape)
	return 0
}

func TestMetricsEndpointCountsRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	id := uploadTrace(t, ts, dbsherlock.LockContention, 1)

	from, to := 120, 180
	resp := postJSON(t, ts.URL+"/v1/explain", explainRequest{Dataset: id, From: &from, To: &to})
	decode[explainResponse](t, resp, http.StatusOK)
	resp = postJSON(t, ts.URL+"/v1/learn", learnRequest{Dataset: id, From: &from, To: &to, Cause: "Lock Contention"})
	decode[map[string]any](t, resp, http.StatusOK)

	scrape := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, scrape, "dbsherlock_http_requests_total",
		`{endpoint="POST /v1/datasets",code="201"}`); got != 1 {
		t.Errorf("upload counter = %v, want 1", got)
	}
	if got := metricValue(t, scrape, "dbsherlock_http_requests_total",
		`{endpoint="POST /v1/explain",code="200"}`); got != 1 {
		t.Errorf("explain counter = %v, want 1", got)
	}
	if got := metricValue(t, scrape, "dbsherlock_http_requests_total",
		`{endpoint="POST /v1/learn",code="200"}`); got != 1 {
		t.Errorf("learn counter = %v, want 1", got)
	}
	if got := metricValue(t, scrape, "dbsherlock_http_request_duration_seconds_count",
		`{endpoint="POST /v1/explain"}`); got != 1 {
		t.Errorf("explain latency count = %v, want 1", got)
	}
	if got := metricValue(t, scrape, "dbsherlock_http_request_duration_seconds_bucket",
		`{endpoint="POST /v1/explain",le="+Inf"}`); got != 1 {
		t.Errorf("explain +Inf bucket = %v, want 1", got)
	}

	// A second explain increments the counters — scrape again.
	resp = postJSON(t, ts.URL+"/v1/explain", explainRequest{Dataset: id, From: &from, To: &to})
	decode[explainResponse](t, resp, http.StatusOK)
	scrape = scrapeMetrics(t, ts.URL)
	if got := metricValue(t, scrape, "dbsherlock_http_requests_total",
		`{endpoint="POST /v1/explain",code="200"}`); got != 2 {
		t.Errorf("explain counter after second call = %v, want 2", got)
	}
}

func TestExplainResponseCarriesTrace(t *testing.T) {
	ts, _ := newTestServer(t)
	id := uploadTrace(t, ts, dbsherlock.LockContention, 1)

	from, to := 120, 180
	resp := postJSON(t, ts.URL+"/v1/explain",
		explainRequest{Dataset: id, From: &from, To: &to, Trace: true})
	out := decode[explainResponse](t, resp, http.StatusOK)
	if out.Trace == nil {
		t.Fatal("trace:true explain returned no trace")
	}
	if out.Trace.TotalMS <= 0 {
		t.Errorf("trace total = %v, want > 0", out.Trace.TotalMS)
	}
	if out.Trace.Workers < 1 {
		t.Errorf("trace workers = %d, want >= 1", out.Trace.Workers)
	}
	for _, stage := range []string{"partition", "filter", "gap_fill", "extract", "score"} {
		if _, ok := out.Trace.StageMS(stage); !ok {
			t.Errorf("trace missing stage %q: %+v", stage, out.Trace.Stages)
		}
	}
	if out.Trace.Counters["attributes"] == 0 {
		t.Errorf("trace counters missing attributes: %v", out.Trace.Counters)
	}
	if out.Trace.Counters["partitions_created"] == 0 {
		t.Errorf("trace counters missing partitions_created: %v", out.Trace.Counters)
	}

	// Without trace:true (and without WithTracing) the field is absent.
	resp = postJSON(t, ts.URL+"/v1/explain", explainRequest{Dataset: id, From: &from, To: &to})
	out = decode[explainResponse](t, resp, http.StatusOK)
	if out.Trace != nil {
		t.Error("untraced explain leaked a trace")
	}
}

func TestRequestIDPropagation(t *testing.T) {
	ts, _ := newTestServer(t)
	req, err := http.NewRequest("GET", ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, "my-trace-id")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "my-trace-id" {
		t.Errorf("request ID echoed as %q, want my-trace-id", got)
	}

	// Absent ID: the server generates one.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get(obs.RequestIDHeader) == "" {
		t.Error("no generated request ID on the response")
	}
}

func TestPanicRecoveryReturns500JSON(t *testing.T) {
	var logBuf safeBuffer
	srv := MustNew(dbsherlock.MustNew(),
		WithLogger(slog.New(slog.NewJSONHandler(&logBuf, nil))))
	// White-box: add a panicking route behind the middleware chain.
	srv.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("test panic")
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	var body errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("500 body is not JSON: %v", err)
	}
	if body.Error.Code != CodeInternal || body.Error.Message == "" {
		t.Errorf("500 body = %+v, want the internal error envelope", body)
	}
	if !strings.Contains(logBuf.String(), "test panic") {
		t.Error("panic not logged")
	}
}

// TestRulesAnalyzerInheritsParams is the regression test for the
// rules:true explain path silently dropping the shared analyzer's
// configured theta and workers: the rules analyzer New builds must
// carry them.
func TestRulesAnalyzerInheritsParams(t *testing.T) {
	parent := dbsherlock.MustNew(dbsherlock.WithTheta(0.07), dbsherlock.WithWorkers(3))
	s := MustNew(parent)
	got, want := s.rules.Params(), parent.Params()
	if got.Theta != want.Theta {
		t.Errorf("rules analyzer theta = %v, want %v", got.Theta, want.Theta)
	}
	if got.Workers != want.Workers {
		t.Errorf("rules analyzer workers = %d, want %d", got.Workers, want.Workers)
	}
	if got.NumPartitions != want.NumPartitions || got.Delta != want.Delta {
		t.Errorf("rules analyzer params = %+v, want %+v", got, want)
	}
}

func TestUploadTooLargeReturns413(t *testing.T) {
	srv := MustNew(dbsherlock.MustNew(), WithMaxUploadBytes(512))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var csv bytes.Buffer
	csv.WriteString("timestamp,latency\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&csv, "%d,%d.5\n", 1000+i, i)
	}
	resp, err := http.Post(ts.URL+"/v1/datasets", "text/csv", &csv)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var body errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("413 body is not JSON: %v", err)
	}
	if body.Error.Code != CodePayloadTooLarge {
		t.Errorf("413 code = %q, want %q", body.Error.Code, CodePayloadTooLarge)
	}
	if !strings.Contains(body.Error.Message, "limit") {
		t.Errorf("413 error = %q, want a limit message", body.Error.Message)
	}
}

// failAfterWriter is an http.ResponseWriter whose Write fails after n
// bytes, simulating a client that disappeared mid-export.
type failAfterWriter struct {
	header  http.Header
	written int
	limit   int
}

func (f *failAfterWriter) Header() http.Header {
	if f.header == nil {
		f.header = make(http.Header)
	}
	return f.header
}
func (f *failAfterWriter) WriteHeader(int) {}
func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.limit {
		return 0, fmt.Errorf("simulated broken pipe")
	}
	f.written += len(p)
	return len(p), nil
}

func TestExportModelsTruncationLogsAndAborts(t *testing.T) {
	var logBuf safeBuffer
	srv := MustNew(dbsherlock.MustNew(dbsherlock.WithTheta(0.05)),
		WithLogger(slog.New(slog.NewJSONHandler(&logBuf, nil))))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	id := uploadTrace(t, ts, dbsherlock.LockContention, 1)
	from, to := 120, 180
	resp := postJSON(t, ts.URL+"/v1/learn", learnRequest{Dataset: id, From: &from, To: &to, Cause: "Lock Contention"})
	decode[map[string]any](t, resp, http.StatusOK)

	w := &failAfterWriter{limit: 8}
	req := httptest.NewRequest("GET", "/v1/models", nil)
	aborted := func() (aborted bool) {
		defer func() {
			if v := recover(); v != nil {
				if v != http.ErrAbortHandler {
					t.Fatalf("handler panicked with %v, want http.ErrAbortHandler", v)
				}
				aborted = true
			}
		}()
		srv.ServeHTTP(w, req)
		return false
	}()
	if !aborted {
		t.Fatal("truncated export did not abort the response")
	}
	if got := w.Header().Get("Trailer"); got != exportErrorTrailer {
		t.Errorf("Trailer header = %q, want %q declared", got, exportErrorTrailer)
	}
	if w.Header().Get(exportErrorTrailer) == "" {
		t.Error("export error trailer not set")
	}
	if !strings.Contains(logBuf.String(), "model export truncated") {
		t.Errorf("truncation not logged: %s", logBuf.String())
	}
}

// safeBuffer is a bytes.Buffer safe for concurrent writers (the server
// logs from request goroutines).
type safeBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *safeBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestConcurrentInstrumentedExplains hammers traced explains, learns,
// and /metrics scrapes in parallel; it exists to run under -race and
// prove the instrumentation (trace atomics, registry maps, middleware)
// is concurrency-safe.
func TestConcurrentInstrumentedExplains(t *testing.T) {
	ts, _ := newTestServer(t)
	id := uploadTrace(t, ts, dbsherlock.LockContention, 1)
	from, to := 120, 180

	const goroutines = 8
	const iterations = 3
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines*iterations*2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				resp, err := http.Post(ts.URL+"/v1/explain", "application/json",
					strings.NewReader(fmt.Sprintf(
						`{"dataset":%q,"from":%d,"to":%d,"trace":true}`, id, from, to)))
				if err != nil {
					errCh <- err
					continue
				}
				var out explainResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errCh <- err
				} else if out.Trace == nil {
					errCh <- fmt.Errorf("missing trace in concurrent explain")
				}
				if mresp, err := http.Get(ts.URL + "/metrics"); err != nil {
					errCh <- err
				} else {
					_, _ = io.Copy(io.Discard, mresp.Body)
					mresp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	scrape := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, scrape, "dbsherlock_http_requests_total",
		`{endpoint="POST /v1/explain",code="200"}`); got != goroutines*iterations {
		t.Errorf("explain counter = %v, want %d", got, goroutines*iterations)
	}
}
