package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
)

// DefaultMaxBatchItems caps how many explain items one POST
// /v1/explain/batch request may carry. The cap bounds the admission
// weight and the fan-out memory of a single request; clients with more
// incidents submit several batches.
const DefaultMaxBatchItems = 64

// batchExplainRequest is the POST /v1/explain/batch body: a list of
// explain items (each the exact /v1/explain request shape) diagnosed
// concurrently over the worker pool. With async the batch runs in the
// background: the response is 202 with a job id, and the results are
// fetched from GET /v1/jobs/{id} until the job's TTL expires.
type batchExplainRequest struct {
	Items []explainRequest `json:"items"`
	Async bool             `json:"async,omitempty"`
}

// batchItemResult is one item's outcome: exactly one of Result and
// Error is set. Item errors (unknown dataset, bad region, item
// deadline) never fail the batch — the response is positional, so
// clients correlate by index.
type batchItemResult struct {
	Result *explainResponse `json:"result,omitempty"`
	Error  *errorPayload    `json:"error,omitempty"`
}

type batchExplainResponse struct {
	Results []batchItemResult `json:"results"`
}

// batchWeight is the admission weight of a batch: one slot per item,
// clamped to the semaphore's capacity — a batch wider than the whole
// gate must still be admissible (an Acquire above capacity would queue
// forever) and simply runs at the gate's full width.
func (s *Server) batchWeight(items int) int64 {
	w := int64(items)
	if s.sem != nil && w > s.sem.capacity {
		w = s.sem.capacity
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (s *Server) handleExplainBatch(w http.ResponseWriter, r *http.Request, tenant string) {
	var req batchExplainRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxUpload)).Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	if len(req.Items) == 0 {
		writeError(w, r, http.StatusBadRequest, CodeInvalidRequest,
			fmt.Errorf("batch needs at least one item"))
		return
	}
	if len(req.Items) > DefaultMaxBatchItems {
		writeError(w, r, http.StatusBadRequest, CodeBatchTooLarge,
			fmt.Errorf("batch of %d items exceeds the %d-item limit", len(req.Items), DefaultMaxBatchItems))
		return
	}
	weight := s.batchWeight(len(req.Items))
	release := s.admit(w, r, "POST /v1/explain/batch", weight)
	if release == nil {
		return
	}

	if req.Async {
		job, err := s.jobs.create(tenant)
		if err != nil {
			release()
			writeError(w, r, http.StatusServiceUnavailable, CodeOverloaded, err)
			return
		}
		// The admission slots stay held for the background run — an
		// async batch consumes the same compute either way — and the
		// work detaches from the request context: the 202 below ends the
		// request, but not the job.
		go func() {
			defer release()
			s.jobs.complete(job, s.runBatch(context.Background(), tenant, req.Items, int(weight)))
		}()
		writeJSON(w, http.StatusAccepted, map[string]any{
			"job":        job.id,
			"status_url": "/v1/jobs/" + job.id,
		})
		return
	}
	defer release()
	writeJSON(w, http.StatusOK, batchExplainResponse{
		Results: s.runBatch(r.Context(), tenant, req.Items, int(weight)),
	})
}

// runBatch diagnoses the items concurrently, bounded to the admitted
// width, and returns positional results.
//
// Duplicate items — same dataset, region, and flags — are diagnosed
// once: the first occurrence of each shape runs in a first wave, and
// the repeats run afterwards, when the diagnosis cache (if configured)
// is warm with the first wave's state. A repeated-incident batch thus
// builds each partition space once instead of once per item; without a
// cache the waves simply run everything cold.
func (s *Server) runBatch(ctx context.Context, tenant string, items []explainRequest, concurrency int) []batchItemResult {
	if concurrency < 1 {
		concurrency = 1
	}
	if max := runtime.GOMAXPROCS(0); concurrency > max {
		concurrency = max
	}
	results := make([]batchItemResult, len(items))
	firstWave := make([]int, 0, len(items))
	secondWave := make([]int, 0)
	seen := make(map[explainKey]bool, len(items))
	for i, it := range items {
		k := itemKey(it)
		if seen[k] {
			secondWave = append(secondWave, i)
			continue
		}
		seen[k] = true
		firstWave = append(firstWave, i)
	}
	run := func(idxs []int) {
		slots := make(chan struct{}, concurrency)
		var wg sync.WaitGroup
		for _, i := range idxs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				slots <- struct{}{}
				defer func() { <-slots }()
				ictx, cancel := s.computeCtx(ctx)
				defer cancel()
				resp, apiErr := s.explainOne(ictx, tenant, items[i])
				if apiErr != nil {
					results[i] = batchItemResult{Error: apiErr.payload()}
					return
				}
				results[i] = batchItemResult{Result: resp}
			}(i)
		}
		wg.Wait()
	}
	run(firstWave)
	run(secondWave)
	return results
}

// explainKey is the dedup signature of one batch item.
type explainKey struct {
	dataset      string
	from, to     int
	hasFrom      bool
	hasTo        bool
	auto, rules  bool
	traceEnabled bool
}

func itemKey(it explainRequest) explainKey {
	k := explainKey{
		dataset: it.Dataset, auto: it.Auto, rules: it.Rules, traceEnabled: it.Trace,
	}
	if it.From != nil {
		k.from, k.hasFrom = *it.From, true
	}
	if it.To != nil {
		k.to, k.hasTo = *it.To, true
	}
	return k
}
