package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestRequestIDGeneratedAndEchoed(t *testing.T) {
	var seen string
	h := RequestID(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestIDFrom(r.Context())
	}))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if seen == "" {
		t.Fatal("no request ID injected into the context")
	}
	if got := rec.Header().Get(RequestIDHeader); got != seen {
		t.Errorf("response header ID %q != context ID %q", got, seen)
	}
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(seen) {
		t.Errorf("generated ID %q is not 16 hex chars", seen)
	}

	// A client-supplied ID is propagated verbatim.
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set(RequestIDHeader, "client-chosen-42")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seen != "client-chosen-42" {
		t.Errorf("client ID not propagated: got %q", seen)
	}
	if got := rec.Header().Get(RequestIDHeader); got != "client-chosen-42" {
		t.Errorf("client ID not echoed: got %q", got)
	}
}

func TestRecoverReturns500JSON(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	h := Recover(logger, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var body map[string]map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("500 body is not JSON: %v (%q)", err, rec.Body.String())
	}
	if body["error"]["code"] != "internal" || body["error"]["message"] == "" {
		t.Errorf("500 body missing error envelope: %v", body)
	}
	if !strings.Contains(logBuf.String(), "kaboom") {
		t.Error("panic value not logged")
	}
	if !strings.Contains(logBuf.String(), "stack") {
		t.Error("stack not logged")
	}
}

func TestRecoverRethrowsErrAbortHandler(t *testing.T) {
	h := Recover(DiscardLogger(), http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if v := recover(); v != http.ErrAbortHandler {
			t.Errorf("recovered %v, want http.ErrAbortHandler to propagate", v)
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	t.Fatal("ErrAbortHandler swallowed")
}

func TestInstrumentCountsAndObserves(t *testing.T) {
	reg := NewRegistry()
	reqs := reg.NewCounterFamily("reqs_total", "")
	lat := reg.NewHistogramFamily("lat_seconds", "", nil)
	h := Instrument(reqs, lat, "GET /x", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(time.Millisecond)
		w.WriteHeader(http.StatusAccepted)
	}))
	for i := 0; i < 3; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	}
	if got := reqs.With("endpoint", "GET /x", "code", "202").Value(); got != 3 {
		t.Errorf("request counter = %d, want 3", got)
	}
	if got := lat.With("endpoint", "GET /x").Count(); got != 3 {
		t.Errorf("latency observations = %d, want 3", got)
	}
}
