package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"dbsherlock"
	"dbsherlock/internal/collector"
	"dbsherlock/internal/detect"
	"dbsherlock/internal/ingest"
	"dbsherlock/internal/metrics"
)

// fleet-ingest: two agent connections, each owning half of the
// instances, push 30-row CSV chunks of per-instance traces. 30 rows is
// the ingest plane's CheckEvery, so after the 600-row preload (the
// default window) every push runs exactly one detection tick over a full
// window.
const (
	fleetInstances = 48
	fleetWindow    = 600 // default -ingest-window; preloaded per instance
	fleetPush      = 30  // rows per push = default CheckEvery
	fleetConns     = 2
	fleetRate      = 40 // timed pushes per --seconds
	fleetAnomaly   = 60 // anomaly duration in seconds
)

// fleetInstance is one simulated database's push schedule.
type fleetInstance struct {
	name    string
	preload []byte   // rows [0, fleetWindow)
	pushes  [][]byte // then fleetPush rows each
}

// csvSlices splits a WriteCSV body into a header-prefixed body for rows
// [0, first) followed by bodies of step rows each.
func csvSlices(csv []byte, first, step int) ([]byte, [][]byte) {
	lines := bytes.SplitAfter(csv, []byte("\n"))
	if len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	header, rows := lines[0], lines[1:]
	join := func(rs [][]byte) []byte {
		return append(append([]byte(nil), header...), bytes.Join(rs, nil)...)
	}
	var rest [][]byte
	for lo := first; lo+step <= len(rows); lo += step {
		rest = append(rest, join(rows[lo:lo+step]))
	}
	return join(rows[:first]), rest
}

// fleetInputs generates every instance's trace. Each anomaly starts at
// a seeded offset late in the preloaded window, so it stays inside the
// sliding window for every timed push: each timed tick sees the same
// anomalous shape and runs the same detection path whatever the seed.
func fleetInputs(rng *rand.Rand, seed int64, rounds int) ([]fleetInstance, error) {
	seconds := fleetWindow + fleetPush*rounds
	lo := seconds - fleetWindow + 10 // inside the last timed window
	hi := fleetWindow - fleetAnomaly - 10
	// Offsets are stratified over [lo, hi) so every seed spreads the
	// anomalies the same way; the seed jitters each within its stratum.
	stratum := (hi - lo) / fleetInstances
	if stratum < 1 {
		return nil, fmt.Errorf("fleet-ingest: %d push rounds slide the window past the anomalies; lower --seconds", rounds)
	}
	kinds := dbsherlock.AnomalyKinds()
	out := make([]fleetInstance, fleetInstances)
	errs := make([]error, fleetInstances)
	starts := make([]int, fleetInstances)
	for i, slot := range rng.Perm(fleetInstances) {
		starts[i] = lo + slot*stratum + rng.Intn(stratum+1)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range out {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			_, csv, _, _, err := simTrace(seed*1000+int64(i), seconds, kinds[i%len(kinds)], starts[i], fleetAnomaly)
			if err != nil {
				errs[i] = err
				return
			}
			pre, pushes := csvSlices(csv, fleetWindow, fleetPush)
			out[i] = fleetInstance{name: fmt.Sprintf("db-%02d", i), preload: pre, pushes: pushes}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// alertKey is the part of an alert both the daemon and the replay fix.
type alertKey struct {
	Instance string
	From, To int64
	Attrs    string
	Window   int
}

// alertFeed collects the daemon's alerts from GET /v1/alerts/stream.
type alertFeed struct {
	mu     sync.Mutex
	alerts []alertKey
	resp   *http.Response
	done   chan struct{}
}

func subscribeAlerts(base string) (*alertFeed, error) {
	resp, err := http.Get(base + "/v1/alerts/stream")
	if err != nil {
		return nil, err
	}
	f := &alertFeed{resp: resp, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var a ingest.Alert
			if json.Unmarshal([]byte(line[len("data: "):]), &a) == nil {
				f.mu.Lock()
				f.alerts = append(f.alerts, keyOf(a))
				f.mu.Unlock()
			}
		}
	}()
	return f, nil
}

func (f *alertFeed) snapshot() []alertKey {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]alertKey(nil), f.alerts...)
}

func (f *alertFeed) close() {
	f.resp.Body.Close()
	<-f.done
}

func keyOf(a ingest.Alert) alertKey {
	return alertKey{Instance: a.Instance, From: a.FromTime, To: a.ToTime,
		Attrs: strings.Join(a.SelectedAttrs, ","), Window: a.WindowRows}
}

// push sends one CSV chunk to an instance.
func push(c *client, inst string, body []byte) call {
	return c.timed("POST", "/v1/ingest/"+inst, "text/csv", body)
}

// fleetPreload pushes every instance's first window over both
// connections.
func fleetPreload(c *client, insts []fleetInstance) error {
	errs := make([]error, fleetConns)
	var wg sync.WaitGroup
	for conn := 0; conn < fleetConns; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for i := conn; i < len(insts); i += fleetConns {
				if r := push(c, insts[i].name, insts[i].preload); !r.ok() {
					errs[conn] = fmt.Errorf("preload %s: status %d %v: %s", insts[i].name, r.status, r.err, r.body)
					return
				}
			}
		}(conn)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func runFleet(o *options) (*outcome, error) {
	rng := rand.New(rand.NewSource(o.seed))
	timedRounds := int(math.Ceil(float64(o.ops(fleetRate, 2*fleetInstances)) / fleetInstances))
	rounds := timedRounds + 1 // the first round is warm-up
	insts, err := fleetInputs(rng, o.seed, rounds)
	if err != nil {
		return nil, err
	}
	logf("inputs generated")
	out := &outcome{routes: []string{"POST /v1/ingest/{instance}"}, tailQ: 0.95, tracedP50: math.NaN()}
	var feed *alertFeed
	d, _, err := setupDaemon(o, out, func(d *daemon) (struct{}, error) {
		if feed != nil {
			feed.close()
		}
		if feed, err = subscribeAlerts(d.base); err != nil {
			return struct{}{}, err
		}
		return struct{}{}, fleetPreload(d.client, insts)
	})
	if err != nil {
		return nil, err
	}
	defer d.remove()
	defer feed.close()

	logf("set-up done: %v", out.setups)
	timed := timedRounds * fleetInstances
	out.ph, err = d.measure(func() {
		var wg sync.WaitGroup
		var warm sync.WaitGroup
		warm.Add(fleetConns)
		startTimed := make(chan struct{})
		for conn := 0; conn < fleetConns; conn++ {
			wg.Add(1)
			go func(conn int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if r == 1 {
						// Both connections finish warm-up before the clock starts.
						warm.Done()
						<-startTimed
					}
					for i := conn; i < len(insts); i += fleetConns {
						out.tally.add(push(d.client, insts[i].name, insts[i].pushes[r]), r > 0)
					}
				}
			}(conn)
		}
		warm.Wait()
		out.tally.start(timed, d.cpuClock)
		close(startTimed)
		wg.Wait()
	})
	if err != nil {
		return nil, err
	}
	if out.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	pushes := float64(out.tally.attempted)
	shed := out.ph.d("dbsherlock_ingest_shed_total") / pushes

	// Alerts the daemon raised: the SSE feed, cross-checked against the
	// per-instance counts of GET /v1/instances once the feed caught up.
	total, err := daemonAlertCount(d.client)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(feed.snapshot()) < total && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	got := feed.snapshot()
	d.remove()

	logf("timed phase done: %d ops in %v:%s", out.ops(), out.tally.wall(), quantiles(out.tally.lat))
	rep := replayFleet(o, insts, rounds)
	out.checkErr = compareAlerts(got, total, rep.alerts)
	logf("checks done")
	if o.trace {
		L := map[string]float64{}
		out.layers = L
		L["ingest.shed_ratio"] = shed
		L["ingest.heap_mb_per_instance"] = rep.heapMBPerInstance
		L["collector.decode_ms"] = median(rep.decode)
		L["detect.tick_ms"] = median(rep.ticks)
		L["detect.ticks_per_op"] = float64(len(rep.ticks)) / float64(len(rep.ops))
		L["detect.dbscan_tick_ratio"] = float64(len(rep.dbscanTicks)) / math.Max(1, float64(len(rep.ticks)))
		L["detect.tick_dbscan_ms"] = median(rep.dbscanTicks)
		L["detect.tick_sweep_ms"] = median(rep.sweepTicks)
		L["ingest.self_ms"] = median(rep.ingestSelf)
		out.opLayerMS = median(rep.ops)
		out.expensive = L["detect.dbscan_tick_ratio"]
		out.expensiveWhat = "detection ticks that ran DBSCAN (in-process replay)"
		out.fillCommon()
		rep.tr.write(o)
	}
	return out, nil
}

func daemonAlertCount(c *client) (int, error) {
	status, body, err := c.do("GET", "/v1/instances", "", nil)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("/v1/instances: status %d", status)
	}
	var resp struct {
		Instances []ingest.InstanceStatus `json:"instances"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, err
	}
	n := 0
	for _, s := range resp.Instances {
		n += int(s.Alerts)
	}
	return n, nil
}

func sortAlerts(as []alertKey) {
	sort.SliceStable(as, func(i, j int) bool {
		if as[i].Instance != as[j].Instance {
			return as[i].Instance < as[j].Instance
		}
		return as[i].From < as[j].From
	})
}

// compareAlerts checks that the daemon raised exactly the replayed
// alerts, instance by instance.
func compareAlerts(got []alertKey, total int, want []alertKey) error {
	if len(got) != total {
		return fmt.Errorf("alert feed delivered %d alerts, /v1/instances counts %d", len(got), total)
	}
	if len(want) == 0 {
		return fmt.Errorf("the replay predicts no alerts; the workload must raise some")
	}
	sortAlerts(got)
	sortAlerts(want)
	if len(got) != len(want) {
		return fmt.Errorf("daemon raised %d alerts, in-process replay predicts %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("alert %d: daemon %+v, in-process replay %+v", i, got[i], want[i])
		}
	}
	return nil
}

// fleetReplay is the in-process replay of a fleet-ingest run.
type fleetReplay struct {
	alerts            []alertKey
	tr                *tracer
	heapMBPerInstance float64
	// Per timed push (trace mode).
	ops, decode, ingestSelf []float64
	// Per detection tick during timed pushes (trace mode).
	ticks, dbscanTicks, sweepTicks []float64
}

// replayFleet feeds the same push bodies, chunked as the daemon chunks
// them, through ingest.Registry.Ingest to predict every alert. In trace
// mode it runs sequentially, timing each layer, and also replays each
// instance through a bare detect.Stream to time the detection ticks.
func replayFleet(o *options, insts []fleetInstance, rounds int) *fleetReplay {
	rep := &fleetReplay{}
	if o.trace {
		rep.tr = newTracer()
	}
	reg := ingest.New(ingest.Config{})
	sub := reg.Subscribe("default")
	collected := make(chan []alertKey)
	go func() {
		var as []alertKey
		for a := range sub.C {
			as = append(as, keyOf(a))
		}
		collected <- as
	}()
	feed := func(op int, name string, body []byte) (float64, float64) {
		var inIngest float64
		root := rep.tr.begin("op", op, -1)
		_ = collector.StreamCSV(bytes.NewReader(body), collector.DefaultChunkRows, func(ds *metrics.Dataset) error {
			inIngest += rep.tr.do("ingest.ingest", op, root, func() { _ = reg.Ingest("default", name, ds) })
			return nil
		})
		total := rep.tr.end(root)
		return total, inIngest
	}
	workers := fleetConns
	if o.trace {
		workers = 1
	}
	var m0, m1 runtime.MemStats
	if o.trace {
		runtime.GC()
		runtime.ReadMemStats(&m0)
	}
	for i := range insts {
		feed(-1, insts[i].name, insts[i].preload)
	}
	if o.trace {
		runtime.GC()
		runtime.ReadMemStats(&m1)
		rep.heapMBPerInstance = float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(len(insts)) / (1 << 20)
	}
	ingestMS := make([]float64, 0, (rounds-1)*len(insts))
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := w; i < len(insts); i += workers {
					total, in := feed(r*len(insts)+i, insts[i].name, insts[i].pushes[r])
					if r > 0 && o.trace {
						mu.Lock()
						rep.ops = append(rep.ops, total)
						rep.decode = append(rep.decode, total-in)
						ingestMS = append(ingestMS, in)
						mu.Unlock()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	reg.Close()
	rep.alerts = <-collected

	if o.trace {
		tickMS := replayTicks(rep, insts, rounds)
		for k := range ingestMS {
			rep.ingestSelf = append(rep.ingestSelf, ingestMS[k]-tickMS[k])
		}
	}
	return rep
}

// replayTicks replays each instance through a bare detect.Stream with
// the ingest plane's defaults and times every detection tick. It returns
// the tick time of each timed push, in the order replayFleet fed them.
func replayTicks(rep *fleetReplay, insts []fleetInstance, rounds int) []float64 {
	p := detect.DefaultParams()
	type state struct {
		s          *detect.Stream
		sinceCheck int
	}
	streams := make([]state, len(insts))
	step := func(op int, st *state, body []byte, timed bool) float64 {
		var tick float64
		_ = collector.StreamCSV(bytes.NewReader(body), collector.DefaultChunkRows, func(ds *metrics.Dataset) error {
			rep.tr.do("detect.append", op, -1, func() { st.s.Append(ds) })
			st.sinceCheck += ds.Rows()
			if st.sinceCheck < fleetPush {
				return nil
			}
			st.sinceCheck = 0
			if st.s.Rows() < 4*fleetPush {
				return nil // the ingest plane's warm-up
			}
			var res detect.Result
			d := rep.tr.do("detect.tick", op, -1, func() { res = st.s.Detect() })
			tick += d
			if timed {
				rep.ticks = append(rep.ticks, d)
				if len(res.SelectedAttrs) > 0 {
					rep.dbscanTicks = append(rep.dbscanTicks, d)
				} else {
					rep.sweepTicks = append(rep.sweepTicks, d)
				}
			}
			return nil
		})
		return tick
	}
	for i := range insts {
		streams[i] = state{s: detect.NewStream(p, fleetWindow, 1)}
		step(-1, &streams[i], insts[i].preload, false)
	}
	var out []float64
	for r := 0; r < rounds; r++ {
		for i := range insts {
			t := step(r*len(insts)+i, &streams[i], insts[i].pushes[r], r > 0)
			if r > 0 {
				out = append(out, t)
			}
		}
	}
	return out
}
