package server

import (
	"encoding/json"
	"net/http"

	"dbsherlock/internal/obs"
)

// ErrorCode is a stable, machine-readable error identifier. Codes are
// part of the API contract (see API.md): clients branch on the code,
// the message is for humans and may change between releases.
type ErrorCode string

const (
	// CodeInvalidRequest covers malformed JSON bodies and missing or
	// inconsistent request fields.
	CodeInvalidRequest ErrorCode = "invalid_request"
	// CodeDatasetNotFound means the referenced dataset id is not (or no
	// longer) registered — it may have been evicted or deleted.
	CodeDatasetNotFound ErrorCode = "dataset_not_found"
	// CodeInvalidRegion means the from/to row range (or auto detection)
	// did not yield a usable abnormal region.
	CodeInvalidRegion ErrorCode = "invalid_region"
	// CodeUnknownDetector means the detector name is not one of dbscan,
	// threshold, perfaugur.
	CodeUnknownDetector ErrorCode = "unknown_detector"
	// CodePayloadTooLarge means the upload exceeded the configured cap.
	CodePayloadTooLarge ErrorCode = "payload_too_large"
	// CodeOverloaded means admission control shed the request; retry
	// after the Retry-After header's delay.
	CodeOverloaded ErrorCode = "overloaded"
	// CodeDeadlineExceeded means the per-request deadline expired while
	// the diagnosis was still running.
	CodeDeadlineExceeded ErrorCode = "deadline_exceeded"
	// CodeInvalidTenant means the X-DBSherlock-Tenant header is not a
	// valid tenant name (letters, digits, '.', '_', '-'; max 128 bytes).
	CodeInvalidTenant ErrorCode = "invalid_tenant"
	// CodeBatchTooLarge means a /v1/explain/batch request carried more
	// items than the per-batch cap (DefaultMaxBatchItems).
	CodeBatchTooLarge ErrorCode = "batch_too_large"
	// CodeJobNotFound means the async job id is unknown, belongs to a
	// different tenant, or its results have expired (job TTL).
	CodeJobNotFound ErrorCode = "job_not_found"
	// CodeCanceled marks a batch item abandoned because the request (or
	// job) context was canceled before the item could finish.
	CodeCanceled ErrorCode = "canceled"
	// CodeStoreUnavailable means the persistent store refused the write
	// (failed log append or lost data directory). Nothing in memory
	// changed — every write commits before it installs — so nothing is
	// kept memory-only; retry once the store recovers.
	CodeStoreUnavailable ErrorCode = "store_unavailable"
	// CodeInternal is an unexpected server-side failure.
	CodeInternal ErrorCode = "internal"
)

// errorPayload is the inner object of the error envelope.
type errorPayload struct {
	Code      ErrorCode `json:"code"`
	Message   string    `json:"message"`
	RequestID string    `json:"request_id,omitempty"`
}

// errorResponse is the unified error envelope every non-2xx JSON
// response uses: {"error":{"code":...,"message":...,"request_id":...}}.
type errorResponse struct {
	Error errorPayload `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError renders the envelope, tagging it with the request ID the
// obs middleware injected so an API error can be correlated with the
// server's structured logs.
func writeError(w http.ResponseWriter, r *http.Request, status int, code ErrorCode, err error) {
	writeJSON(w, status, errorResponse{Error: errorPayload{
		Code:      code,
		Message:   err.Error(),
		RequestID: obs.RequestIDFrom(r.Context()),
	}})
}
