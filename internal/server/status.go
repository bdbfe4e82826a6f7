package server

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"dbsherlock/internal/ingest"
	"dbsherlock/internal/store"
)

// buildInfo is the build identity reported by /v1/status, resolved once
// at server construction from the binary's embedded module data.
type buildInfo struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	Version   string `json:"version,omitempty"`
	Revision  string `json:"revision,omitempty"`
	Modified  bool   `json:"modified,omitempty"` // dirty working tree at build time
}

func readBuildInfo() buildInfo {
	out := buildInfo{GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out.Module = bi.Main.Path
	out.Version = bi.Main.Version
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			out.Revision = s.Value
		case "vcs.modified":
			out.Modified = s.Value == "true"
		}
	}
	return out
}

// SetDraining flips the drain latch /readyz reports: the daemon sets it
// on SIGTERM before calling http.Server.Shutdown so a load balancer
// stops routing new work here while in-flight requests finish. It does
// not reject requests itself — draining is advisory, shutdown is the
// enforcement.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// storeHealth resolves the backend's health snapshot; stores that do
// not implement HealthReporter read as an always-writable unknown.
func (s *Server) storeHealth() (store.Health, bool) {
	if hr, ok := s.store.(store.HealthReporter); ok {
		return hr.Health(), true
	}
	return store.Health{Backend: "unknown"}, false
}

// handleReadyz is the readiness probe: 200 while the server can accept
// writes, 503 with the reasons once it cannot. Liveness stays
// /healthz — a latched store is unready (stop routing writes here) but
// very much alive (reads still serve), and conflating the two gets the
// process killed exactly when its logs matter most.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request, _ string) {
	reasons := []string{}
	if s.draining.Load() {
		reasons = append(reasons, "draining")
	}
	health, known := s.storeHealth()
	if known {
		if health.Err != "" {
			reasons = append(reasons, "store_failed")
		} else if health.ReadOnly {
			reasons = append(reasons, "store_read_only")
		}
	}
	resp := map[string]any{"status": "ready", "store": health}
	code := http.StatusOK
	if len(reasons) > 0 {
		resp["status"] = "unready"
		resp["reasons"] = reasons
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// statusResponse is the GET /v1/status body.
type statusResponse struct {
	Build          buildInfo        `json:"build"`
	UptimeSeconds  float64          `json:"uptime_seconds"`
	Draining       bool             `json:"draining"`
	Store          store.Health     `json:"store"`
	Goroutines     int              `json:"goroutines"`
	Admission      *admissionStatus `json:"admission,omitempty"`
	DiagnosisCache *cacheStatus     `json:"diagnosis_cache,omitempty"`
	Jobs           jobsStatus       `json:"jobs"`
	Ingest         ingest.Stats     `json:"ingest"`
	// Endpoints is the API inventory, derived from the route table.
	Endpoints []endpointInfo `json:"endpoints"`
}

// admissionStatus reports the compute-gate occupancy when admission
// control is on.
type admissionStatus struct {
	MaxInflight int64 `json:"max_inflight"`
	Inflight    int64 `json:"inflight"`
	Queued      int   `json:"queued"`
}

// cacheStatus reports the diagnosis cache's occupancy and lifetime
// counters when WithDiagnosisCache is on.
type cacheStatus struct {
	Entries       int     `json:"entries"`
	Bytes         int64   `json:"bytes"`
	Lookups       uint64  `json:"lookups"`
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	HitRatio      float64 `json:"hit_ratio"`
	Evictions     uint64  `json:"evictions"`
	Invalidations uint64  `json:"invalidations"`
}

// jobsStatus reports the async batch queue depth: jobs still running
// and jobs stored (running + finished awaiting their TTL).
type jobsStatus struct {
	Running int `json:"running"`
	Stored  int `json:"stored"`
}

// handleStatus is the operator introspection endpoint: build identity,
// uptime, store/WAL state and per-namespace totals, and admission-gate
// occupancy, in one JSON document. Everything here is also derivable
// from /metrics plus the binary, but a single curl beats a PromQL
// session when a box is misbehaving.
func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request, _ string) {
	health, _ := s.storeHealth()
	resp := statusResponse{
		Build:         s.build,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Draining:      s.draining.Load(),
		Store:         health,
		Goroutines:    runtime.NumGoroutine(),
	}
	if s.sem != nil {
		inUse, queued := s.sem.stats()
		resp.Admission = &admissionStatus{
			MaxInflight: s.sem.capacity,
			Inflight:    inUse,
			Queued:      queued,
		}
	}
	if s.diagCache != nil {
		cs := s.diagCache.Stats()
		resp.DiagnosisCache = &cacheStatus{
			Entries:       cs.Entries,
			Bytes:         cs.Bytes,
			Lookups:       cs.Lookups,
			Hits:          cs.Hits,
			Misses:        cs.Misses,
			HitRatio:      cs.HitRatio(),
			Evictions:     cs.Evictions,
			Invalidations: cs.Invalidations,
		}
	}
	resp.Jobs.Running, resp.Jobs.Stored = s.jobs.stats()
	resp.Ingest = s.ingest.Stats()
	resp.Endpoints = s.endpointInventory()
	writeJSON(w, http.StatusOK, resp)
}
