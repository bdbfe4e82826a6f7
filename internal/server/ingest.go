package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"time"

	"dbsherlock/internal/collector"
	"dbsherlock/internal/ingest"
	"dbsherlock/internal/metrics"
	"dbsherlock/internal/obs"
)

// sseHeartbeat is how often /v1/alerts/stream emits a comment line so
// idle connections stay alive through proxies and dead peers surface as
// write errors.
const sseHeartbeat = 15 * time.Second

// ingestResponse acknowledges an accepted push.
type ingestResponse struct {
	Instance string `json:"instance"`
	Rows     int    `json:"rows"`
	Chunks   int    `json:"chunks"`
}

// handleIngest is POST /v1/ingest/{instance}: agents push per-second
// samples as CSV (WriteCSV format) or NDJSON (one JSON object per line
// with a numeric "ts"). The body is decoded incrementally in
// DefaultChunkRows chunks straight into the fleet registry, so an
// arbitrarily long push is never materialized whole. Backpressure is
// per instance: a push that would overflow the instance's queue budget
// (or the registry's instance cap) is shed with 429 + Retry-After.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, tenant string) {
	instance := r.PathValue("instance")
	if err := ingest.ValidInstance(instance); err != nil {
		writeError(w, r, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	obs.EventFrom(r.Context()).SetInstance(instance)

	stream, err := ingestDecoder(r.Header.Get("Content-Type"))
	if err != nil {
		writeError(w, r, http.StatusUnsupportedMediaType, CodeInvalidRequest, err)
		return
	}

	body := http.MaxBytesReader(w, r.Body, s.maxUpload)
	rows, chunks := 0, 0
	err = stream(body, collector.DefaultChunkRows, func(ds *metrics.Dataset) error {
		if err := s.ingest.Ingest(tenant, instance, ds); err != nil {
			return err
		}
		rows += ds.Rows()
		chunks++
		return nil
	})
	if err != nil {
		switch {
		case errors.Is(err, ingest.ErrShed), errors.Is(err, ingest.ErrTooManyInstances):
			writeOverloaded(w, r, s.retryAfterHint(), err)
		default:
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeError(w, r, http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
					fmt.Errorf("body exceeds %d bytes", s.maxUpload))
				return
			}
			// Decode or append failure mid-stream: chunks before it are
			// already in the window (the message says how far we got).
			writeError(w, r, http.StatusBadRequest, CodeInvalidRequest,
				fmt.Errorf("%w (accepted %d rows before the error)", err, rows))
		}
		return
	}
	writeJSON(w, http.StatusAccepted, ingestResponse{Instance: instance, Rows: rows, Chunks: chunks})
}

// ingestDecoder picks the streaming decoder for the push body's
// Content-Type. CSV takes the WriteCSV wire format; everything JSON-ish
// (and an absent header) is NDJSON.
func ingestDecoder(contentType string) (func(io.Reader, int, func(*metrics.Dataset) error) error, error) {
	mt := contentType
	if parsed, _, err := mime.ParseMediaType(contentType); err == nil {
		mt = parsed
	}
	switch mt {
	case "text/csv":
		return collector.StreamCSV, nil
	case "", "application/x-ndjson", "application/jsonl", "application/json", "application/octet-stream":
		return collector.StreamNDJSON, nil
	default:
		return nil, fmt.Errorf("unsupported Content-Type %q (use text/csv or application/x-ndjson)", contentType)
	}
}

// instancesResponse is GET /v1/instances: the tenant's fleet, sorted by
// instance name.
type instancesResponse struct {
	Instances []ingest.InstanceStatus `json:"instances"`
	Count     int                     `json:"count"`
}

// handleInstances lists the tenant's live instance streams with their
// ingest state: rows accepted, window occupancy, queue depth, last
// sample age, staleness, alert counts, and the last append error.
func (s *Server) handleInstances(w http.ResponseWriter, _ *http.Request, tenant string) {
	list := s.ingest.List(tenant)
	writeJSON(w, http.StatusOK, instancesResponse{Instances: list, Count: len(list)})
}

// handleAlertStream is GET /v1/alerts/stream: a Server-Sent Events feed
// of the tenant's streaming-detection alerts. Each alert is one
// "event: alert" frame whose data line is the ingest.Alert JSON;
// comment heartbeats keep the connection warm. Delivery is best-effort
// (a slow consumer misses alerts rather than stalling ingestion);
// GET /v1/instances remains the source of truth.
func (s *Server) handleAlertStream(w http.ResponseWriter, r *http.Request, tenant string) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, r, http.StatusInternalServerError, CodeInternal,
			errors.New("response writer does not support streaming"))
		return
	}
	sub := s.ingest.Subscribe(tenant)
	defer sub.Cancel()

	// Clear the server-wide write deadline: this response is long-lived
	// by design, and heartbeats surface dead peers instead.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if _, err := fmt.Fprint(w, ": stream open\n\n"); err != nil {
		return
	}
	fl.Flush()

	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case a, ok := <-sub.C:
			if !ok {
				// Registry closed (server shutting down): end the stream.
				return
			}
			data, err := json.Marshal(a)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "event: alert\ndata: %s\n\n", data); err != nil {
				return
			}
			fl.Flush()
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
