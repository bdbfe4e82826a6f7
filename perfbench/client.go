package main

import (
	"bytes"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// client issues requests to one daemon over at most two keep-alive
// loopback connections.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 2,
		MaxConnsPerHost:     2,
		DisableCompression:  true,
	}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole response body.
func (c *client) do(method, path, contentType string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// call is one timed operation's outcome.
type call struct {
	status int
	body   []byte
	err    error
	dur    time.Duration
}

// ok reports a 2xx answer that arrived whole.
func (r call) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

// timed sends one request and measures it as the client sees it.
func (c *client) timed(method, path, contentType string, body []byte) call {
	start := time.Now()
	status, data, err := c.do(method, path, contentType, body)
	return call{status: status, body: data, err: err, dur: time.Since(start)}
}

// segments is how many equal slices of the timed operations the
// per-run medians are taken over: a burst of host noise that covers
// fewer than half of them does not move the reported figure.
const segments = 5

// tally counts operations and their latencies, safe for concurrent
// connections. A failed or refused operation counts against the
// attempted ones and misses every latency limit, so it is recorded at
// +Inf.
type tally struct {
	mu                              sync.Mutex
	attempted, failed               int
	status429, status5xx, transport int
	lat                             []float64 // ms, timed operations in completion order

	// Segment boundaries of the timed phase: the clock and the daemon's
	// CPU time at its start and after every timed/segments operations.
	timed int
	cpu   func() time.Duration
	marks []mark
}

type mark struct {
	at  time.Time
	cpu time.Duration
}

// start opens the timed phase of n operations.
func (t *tally) start(n int, cpu func() time.Duration) {
	t.timed, t.cpu = n, cpu
	t.marks = []mark{{time.Now(), cpu()}}
}

func (t *tally) add(r call, timed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	ms := float64(r.dur) / float64(time.Millisecond)
	if !r.ok() {
		t.failed++
		ms = inf
		switch {
		case r.err != nil:
			t.transport++
		case r.status == http.StatusTooManyRequests:
			t.status429++
		case r.status >= 500:
			t.status5xx++
		}
	}
	if !timed {
		return
	}
	t.lat = append(t.lat, ms)
	if per := t.timed / segments; per > 0 && len(t.lat)%per == 0 && len(t.marks) <= segments {
		t.marks = append(t.marks, mark{time.Now(), t.cpu()})
	}
}

// wall is the timed phase's duration.
func (t *tally) wall() time.Duration { return t.marks[len(t.marks)-1].at.Sub(t.marks[0].at) }

// perSegment returns, for each complete segment, its p50 latency (ms),
// its throughput (ops/s) and the daemon CPU per operation (ms).
func (t *tally) perSegment() (p50, rate, cpu []float64) {
	per := t.timed / segments
	for k := 0; k+1 < len(t.marks); k++ {
		a, b := t.marks[k], t.marks[k+1]
		p50 = append(p50, median(t.lat[k*per:(k+1)*per]))
		rate = append(rate, float64(per)/b.at.Sub(a.at).Seconds())
		cpu = append(cpu, ms(b.cpu-a.cpu)/float64(per))
	}
	return p50, rate, cpu
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
