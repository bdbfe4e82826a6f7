package server

import (
	"fmt"
	"net/http"
	"sync"
	"time"
)

// DefaultJobTTL is how long a finished async batch's results stay
// fetchable from GET /v1/jobs/{id}; override with WithJobTTL. Expiry
// counts from completion, so a slow batch never expires mid-run.
const DefaultJobTTL = 5 * time.Minute

// defaultMaxStoredJobs caps how many jobs (running + finished, all
// tenants) the server retains. At the cap the oldest finished job is
// dropped early; when every stored job is still running, new async
// batches are refused — results nobody can ever fetch must not be
// computed.
const defaultMaxStoredJobs = 256

// WithJobTTL sets how long finished async batch results stay fetchable
// before they are dropped. d <= 0 keeps the default (5 minutes).
func WithJobTTL(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.jobTTL = d
		}
	}
}

// job is one async batch. Fields past the identity are guarded by the
// owning manager's lock.
type job struct {
	id      string
	tenant  string
	done    bool
	doneAt  time.Time
	results []batchItemResult
}

// jobManager tracks async batch jobs: monotonically numbered ids,
// TTL'd results, and a bound on total stored jobs. All methods are
// safe for concurrent use.
type jobManager struct {
	mu        sync.Mutex
	ttl       time.Duration
	maxStored int
	seq       uint64
	jobs      map[string]*job
	order     []string // creation order, for cap eviction
	running   int
}

func newJobManager(ttl time.Duration, maxStored int) *jobManager {
	return &jobManager{
		ttl:       ttl,
		maxStored: maxStored,
		jobs:      make(map[string]*job),
	}
}

// create registers a new running job for tenant. It fails only when
// the store is full of still-running jobs.
func (m *jobManager) create(tenant string) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.purgeLocked(time.Now())
	if len(m.jobs) >= m.maxStored {
		// Make room by dropping the oldest finished job early.
		if !m.evictOldestFinishedLocked() {
			return nil, fmt.Errorf("too many concurrent jobs (%d), retry later", len(m.jobs))
		}
	}
	m.seq++
	j := &job{id: fmt.Sprintf("job-%d", m.seq), tenant: tenant}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.running++
	return j, nil
}

// complete records a job's results; the TTL clock starts now.
func (m *jobManager) complete(j *job, results []batchItemResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur, ok := m.jobs[j.id]; !ok || cur != j {
		return // evicted while running a replacement id; drop silently
	}
	j.done = true
	j.doneAt = time.Now()
	j.results = results
	m.running--
}

// get returns the tenant's job, treating another tenant's job — and an
// expired one — as absent: job ids are guessable, results are not.
func (m *jobManager) get(tenant, id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.purgeLocked(time.Now())
	j, ok := m.jobs[id]
	if !ok || j.tenant != tenant {
		return nil, false
	}
	return j, true
}

// stats reports current occupancy.
func (m *jobManager) stats() (running, stored int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.purgeLocked(time.Now())
	return m.running, len(m.jobs)
}

// purgeLocked drops finished jobs past their TTL. Caller holds mu.
func (m *jobManager) purgeLocked(now time.Time) {
	kept := m.order[:0]
	for _, id := range m.order {
		j, ok := m.jobs[id]
		if !ok {
			continue
		}
		if j.done && now.Sub(j.doneAt) > m.ttl {
			delete(m.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// evictOldestFinishedLocked drops the oldest finished job, reporting
// whether one existed. Caller holds mu.
func (m *jobManager) evictOldestFinishedLocked() bool {
	for i, id := range m.order {
		j, ok := m.jobs[id]
		if !ok || !j.done {
			continue
		}
		delete(m.jobs, id)
		m.order = append(m.order[:i], m.order[i+1:]...)
		return true
	}
	return false
}

// jobResponse is the GET /v1/jobs/{id} body.
type jobResponse struct {
	Job     string            `json:"job"`
	Status  string            `json:"status"` // "running" | "done"
	Results []batchItemResult `json:"results,omitempty"`
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request, tenant string) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(tenant, id)
	if !ok {
		writeError(w, r, http.StatusNotFound, CodeJobNotFound,
			fmt.Errorf("unknown or expired job %q", id))
		return
	}
	// Snapshot under the manager lock: complete() mutates the fields.
	s.jobs.mu.Lock()
	resp := jobResponse{Job: j.id, Status: "running"}
	if j.done {
		resp.Status = "done"
		resp.Results = j.results
	}
	s.jobs.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}
