package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running dbsherlockd with its own data directory.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dataDir string
	done    chan struct{}
	client  *client
}

// daemonArgs is the one configuration every workload runs: the
// defaults, plus a durable store (per-commit fsync on) and a dataset cap
// that keeps stored state at a steady size.
func daemonArgs(addr, dataDir string) []string {
	return []string{"-addr", addr, "-data-dir", dataDir, "-max-datasets", "32"}
}

// startDaemon launches a fresh daemon on a free loopback port and
// returns once /readyz answers 200, polling every 0.5 ms.
func startDaemon(o *options, name string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(o.work, name)
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, err
	}
	cmd := exec.Command(o.daemon, daemonArgs(addr, dataDir)...)
	// The daemon dies with the load generator, even if that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, dataDir: dataDir, done: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(d.done) }()
	d.client = newClient(d.base)
	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-d.done:
			return nil, errors.New("daemon exited before it was ready")
		default:
		}
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("daemon not ready after 30s")
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// kill stops the daemon with SIGKILL and waits until it has exited.
func (d *daemon) kill() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
	d.client.close()
}

// remove kills the daemon and deletes its data directory.
func (d *daemon) remove() {
	if d == nil {
		return
	}
	d.kill()
	_ = os.RemoveAll(d.dataDir)
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// cpuTime is the daemon's user+sys CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 Hz).
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// cpuClock reads the daemon's CPU time for segment marks; a failed read
// (the daemon died) shows up as failed operations instead.
func (d *daemon) cpuClock() time.Duration {
	c, _ := d.cpuTime()
	return c
}

// peakRSSMB is the daemon's VmHWM in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found")
}

// scrape is one /metrics exposition: sample values by series.
type scrape map[string]float64

// scrapeMetrics reads the daemon's /metrics. Each sample is stored under
// its bare series name (labels summed) and under name{labels}.
func (d *daemon) scrapeMetrics() (scrape, error) {
	status, body, err := d.client.do("GET", "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	out := scrape{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		out[series] += v
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if strings.Contains(series, "le=") {
				continue // buckets are only kept per label set
			}
			out[series[:i]] += v
		}
	}
	return out, nil
}

// phase is the daemon's /metrics before and after one timed phase.
type phase struct{ before, after scrape }

// measure runs fn between two /metrics scrapes.
func (d *daemon) measure(fn func()) (*phase, error) {
	before, err := d.scrapeMetrics()
	if err != nil {
		return nil, err
	}
	fn()
	after, err := d.scrapeMetrics()
	if err != nil {
		return nil, err
	}
	return &phase{before: before, after: after}, nil
}

// d is a series' change over the phase.
func (p *phase) d(series string) float64 { return p.after[series] - p.before[series] }

// histMeanMS is the mean of a seconds histogram over the phase, in ms.
func (p *phase) histMeanMS(name, labels string) float64 {
	n := p.d(name + "_count" + labels)
	if n == 0 {
		return 0
	}
	return p.d(name+"_sum"+labels) / n * 1000
}
