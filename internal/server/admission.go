package server

import (
	"context"
	"errors"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"dbsherlock/internal/obs"
)

// errOverloaded is returned by semaphore.Acquire when both the inflight
// slots and the bounded wait queue are full: the server is shedding
// load and the client should retry later.
var errOverloaded = errors.New("server overloaded, retry later")

// waiter is one queued Acquire call. ready is closed by a releaser when
// the waiter's slots have been granted; granted disambiguates the race
// between a grant and a context cancellation.
type waiter struct {
	n       int64
	ready   chan struct{}
	granted bool
}

// semaphore is a weighted semaphore with a bounded FIFO wait queue,
// built on the stdlib only (the module deliberately has no external
// dependencies, so golang.org/x/sync is out of reach). Unlike
// x/sync/semaphore it rejects instead of blocking once the queue is
// full — admission control wants to shed load, not build an unbounded
// backlog of goroutines.
type semaphore struct {
	mu       sync.Mutex
	capacity int64
	inUse    int64
	queue    []*waiter
	maxQueue int
}

// newSemaphore returns a semaphore with the given slot capacity and
// wait-queue depth. queueDepth 0 means reject immediately at capacity.
func newSemaphore(capacity int64, queueDepth int) *semaphore {
	return &semaphore{capacity: capacity, maxQueue: queueDepth}
}

// Acquire obtains n slots, waiting in the bounded queue if the
// semaphore is at capacity. It returns errOverloaded when the queue is
// full, or ctx.Err() if the context is done first.
func (s *semaphore) Acquire(ctx context.Context, n int64) error {
	s.mu.Lock()
	if s.inUse+n <= s.capacity && len(s.queue) == 0 {
		s.inUse += n
		s.mu.Unlock()
		return nil
	}
	if len(s.queue) >= s.maxQueue {
		s.mu.Unlock()
		return errOverloaded
	}
	w := &waiter{n: n, ready: make(chan struct{})}
	s.queue = append(s.queue, w)
	s.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		if w.granted {
			// Release lost the race: the slots are ours, hand them back so
			// they are not leaked. Release them inline (we already hold the
			// lock) by reusing the grant path.
			s.inUse -= w.n
			s.grantLocked()
			s.mu.Unlock()
			return ctx.Err()
		}
		// Remove ourselves from the queue.
		for i, q := range s.queue {
			if q == w {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// Release returns n slots and wakes as many queued waiters as now fit.
func (s *semaphore) Release(n int64) {
	s.mu.Lock()
	s.inUse -= n
	if s.inUse < 0 {
		s.inUse = 0
	}
	s.grantLocked()
	s.mu.Unlock()
}

// grantLocked pops queued waiters in FIFO order while their weights
// fit. Callers must hold s.mu.
func (s *semaphore) grantLocked() {
	for len(s.queue) > 0 {
		w := s.queue[0]
		if s.inUse+w.n > s.capacity {
			return
		}
		s.inUse += w.n
		w.granted = true
		close(w.ready)
		s.queue = s.queue[1:]
	}
}

// stats reports the current occupancy: slots in use and waiters queued.
func (s *semaphore) stats() (inUse int64, queued int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inUse, len(s.queue)
}

// gate wraps a compute-heavy handler with admission control at a fixed
// weight: admit, run, release.
func (s *Server) gate(endpoint string, weight int64, next http.HandlerFunc) http.HandlerFunc {
	if s.sem == nil {
		return next
	}
	// Register the route's series now, so /metrics reports them at zero
	// before the first request is admitted or shed.
	s.httpInflight.With("endpoint", endpoint)
	s.httpRejected.With("endpoint", endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		release := s.admit(w, r, endpoint, weight)
		if release == nil {
			return
		}
		defer release()
		next(w, r)
	}
}

// admit acquires weight admission slots for endpoint (bounded wait) and
// returns their release func. At saturation it sheds the request with
// 429 + Retry-After and increments the rejected counter; a client that
// disconnects while queued frees its queue entry and gets no body. In
// both cases admit returns nil. The outcome is recorded on the
// request's wide event.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, endpoint string, weight int64) func() {
	if s.sem == nil {
		return func() {}
	}
	if err := s.sem.Acquire(r.Context(), weight); err != nil {
		if errors.Is(err, errOverloaded) {
			obs.EventFrom(r.Context()).SetAdmission("rejected")
			s.httpRejected.With("endpoint", endpoint).Inc()
			writeOverloaded(w, r, s.retryAfterHint(), err)
			return nil
		}
		// The client went away (or its deadline expired) while queued;
		// nobody is listening for a body.
		obs.EventFrom(r.Context()).SetAdmission("canceled")
		s.logger.Debug("request cancelled while queued",
			"endpoint", endpoint,
			"err", err,
			"request_id", obs.RequestIDFrom(r.Context()))
		return nil
	}
	obs.EventFrom(r.Context()).SetAdmission("admitted")
	inflight := s.httpInflight.With("endpoint", endpoint)
	inflight.Add(float64(weight))
	var once sync.Once
	return func() {
		once.Do(func() {
			inflight.Add(-float64(weight))
			s.sem.Release(weight)
		})
	}
}

// Retry-After bounds: the hint never dips below a second (HTTP
// Retry-After has whole-second granularity and sub-second retries would
// hammer a saturated gate) and never asks a client to wait out more
// than a minute of backlog.
const (
	minRetryAfterSeconds = 1
	maxRetryAfterSeconds = 60
)

// retryAfterHint derives the Retry-After value for a 429 from live
// signals instead of a constant: the queue ahead of a retrying client
// is `queued` requests deep, and each drains in about one median
// diagnosis latency, so queue depth x recent p50 estimates when a slot
// will actually be free. Before any diagnosis has completed (cold
// start) the floor applies.
func (s *Server) retryAfterHint() int {
	p50 := s.diagLat.p50()
	if p50 <= 0 || s.sem == nil {
		return minRetryAfterSeconds
	}
	_, queued := s.sem.stats()
	secs := int(math.Ceil(p50.Seconds() * float64(queued+1)))
	if secs < minRetryAfterSeconds {
		return minRetryAfterSeconds
	}
	if secs > maxRetryAfterSeconds {
		return maxRetryAfterSeconds
	}
	return secs
}

// writeOverloaded sheds one request with 429 + Retry-After.
func writeOverloaded(w http.ResponseWriter, r *http.Request, retryAfter int, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeError(w, r, http.StatusTooManyRequests, CodeOverloaded, err)
}

// latencyRingSize is how many recent diagnosis latencies feed the
// Retry-After estimate. 64 observations smooth bursts while tracking a
// workload shift (e.g. the cache warming up) within seconds.
const latencyRingSize = 64

// latencyRing is a fixed-size ring of recent diagnosis durations with
// a median query. Safe for concurrent use.
type latencyRing struct {
	mu  sync.Mutex
	buf [latencyRingSize]time.Duration
	n   int // filled entries
	i   int // next write position
}

func newLatencyRing() *latencyRing { return &latencyRing{} }

// observe records one diagnosis duration.
func (l *latencyRing) observe(d time.Duration) {
	l.mu.Lock()
	l.buf[l.i] = d
	l.i = (l.i + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// p50 returns the median of the recorded durations, 0 when empty.
func (l *latencyRing) p50() time.Duration {
	l.mu.Lock()
	n := l.n
	tmp := make([]time.Duration, n)
	copy(tmp, l.buf[:n])
	l.mu.Unlock()
	if n == 0 {
		return 0
	}
	sort.Slice(tmp, func(a, b int) bool { return tmp[a] < tmp[b] })
	return tmp[n/2]
}
