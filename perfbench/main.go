// Command perfbench is dbsherlock's end-to-end benchmark. It generates
// every input from a seed with dbsherlock.Simulate, starts a fresh
// dbsherlockd on loopback, drives it closed-loop from this one process,
// checks every answer against an in-process replay, and prints one JSON
// result line:
//
//	perfbench -daemon ./dbsherlockd -work ./scratch \
//	    --workload triage-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, taken from the daemon's
// own diagnosis traces and /metrics families and from an in-process
// replay of the same inputs through each layer's public functions.
// perfbench/README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

var t0 = time.Now()

// logf reports progress on stderr, stamped with the seconds since start.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%6.2fs] %s\n", time.Since(t0).Seconds(), fmt.Sprintf(format, args...))
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string  // dbsherlockd binary
	work     string  // scratch directory (data dirs, span files)
	scale    float64 // operation-count multiplier (smoke tests shrink it)
	setups   int     // daemon set-ups per run; setup_s is their median
}

// ops scales a per-second operation count to this run.
func (o *options) ops(perSecond float64, min int) int {
	n := int(math.Round(perSecond * float64(o.seconds) * o.scale))
	if n < min {
		n = min
	}
	return n
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each --workload name to its driver.
var workloads = map[string]func(*options) (*outcome, error){
	"triage-cold":     func(o *options) (*outcome, error) { return runTriage(o, false) },
	"triage-repeat":   func(o *options) (*outcome, error) { return runTriage(o, true) },
	"fleet-ingest":    runFleet,
	"incident-writes": runIncident,
}

func main() {
	o := &options{scale: 1, setups: 3}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: triage-cold, triage-repeat, fleet-ingest, incident-writes")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "nominal measured seconds (scales the fixed operation count)")
	flag.IntVar(&trace, "trace", 0, "1: print per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.daemon, "daemon", "", "path to the dbsherlockd binary")
	flag.StringVar(&o.work, "work", "", "scratch directory for data dirs and span files")
	flag.Parse()
	o.trace = trace != 0
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and assembles its result line.
func run(o *options) (*result, error) {
	drive, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown --workload %q (want one of %s)", o.workload, strings.Join(names, ", "))
	}
	if o.daemon == "" || o.work == "" {
		return nil, errors.New("-daemon and -work are required (use perfbench/run.sh)")
	}
	if o.seconds < 1 {
		return nil, errors.New("--seconds must be positive")
	}
	if _, err := os.Stat(o.daemon); err != nil {
		return nil, fmt.Errorf("daemon binary: %w", err)
	}
	work, err := filepath.Abs(filepath.Join(o.work, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	o.work = work
	defer os.RemoveAll(work)

	out, err := drive(o)
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   out.checkErr == nil,
		Attempted: out.tally.attempted,
		Failed:    out.tally.failed,
	}
	if out.checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", out.checkErr)
	}
	t := &out.tally
	logf("%d of %d operations failed (429: %d, 5xx: %d, transport: %d)",
		t.failed, t.attempted, t.status429, t.status5xx, t.transport)
	if out.expensiveWhat != "" {
		logf("expensive path: %.4f of operations (%s)", out.expensive, out.expensiveWhat)
	}
	if o.trace {
		res.Metrics = out.layerMetrics()
		out.printBreakdown(os.Stdout, o.workload)
	} else {
		res.Metrics = out.endToEnd()
	}
	return res, nil
}
