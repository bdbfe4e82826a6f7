package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"dbsherlock"
	"dbsherlock/internal/collector"
	"dbsherlock/internal/diagcache"
	"dbsherlock/internal/server"
)

// Triage workloads: a DBA uploads ten traces, one per Table 1 anomaly
// class, teaches their causes, then asks for explanations. triage-cold
// asks for a region nobody asked before on every operation (Algorithm 1
// plus Eq. 3 ranking; the diagnosis cache only stores). triage-repeat
// cycles through 8 fixed incident regions (a cache hit plus Eq. 3
// re-ranking; Algorithm 1 is skipped).
const (
	triageSeconds    = 1200 // rows per uploaded trace
	triageColdRate   = 500  // timed operations per --seconds
	triageRepeatRate = 1800
	triageColdWarm   = 100 // untimed operations before the timed ones
	triageRepeatWarm = 200
	repeatRegions    = 8
)

// upload is one seed-generated trace and its ground-truth incident.
type upload struct {
	csv      []byte
	from, to int
	cause    string
}

// explainOp is one /v1/explain request.
type explainOp struct {
	ds       int // index into the uploads
	from, to int
}

func (op explainOp) body(ids []string, trace bool) []byte {
	b, _ := json.Marshal(struct {
		Dataset string `json:"dataset"`
		From    int    `json:"from"`
		To      int    `json:"to"`
		Trace   bool   `json:"trace,omitempty"`
	}{ids[op.ds], op.from, op.to, trace})
	return b
}

// simTrace simulates one TPC-C trace with a single injected anomaly.
func simTrace(seed int64, seconds int, kind dbsherlock.AnomalyKind, start, dur int) (*dbsherlock.Dataset, []byte, int, int, error) {
	cfg := dbsherlock.DefaultTestbed()
	cfg.Seed = seed
	ds, abn, err := dbsherlock.Simulate(cfg, 0, seconds, []dbsherlock.Injection{{Kind: kind, Start: start, Duration: dur}})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	var buf bytes.Buffer
	if err := dbsherlock.WriteCSV(&buf, ds); err != nil {
		return nil, nil, 0, 0, err
	}
	idx := abn.Indices()
	if len(idx) == 0 {
		return nil, nil, 0, 0, fmt.Errorf("simulated %v trace has no abnormal rows", kind)
	}
	return ds, buf.Bytes(), idx[0], idx[len(idx)-1] + 1, nil
}

// triageUploads generates the ten traces of the triage set-up.
func triageUploads(rng *rand.Rand, seed int64) ([]upload, error) {
	var ups []upload
	for i, kind := range dbsherlock.AnomalyKinds() {
		start := 300 + rng.Intn(500)
		dur := 60 + rng.Intn(120)
		_, csv, from, to, err := simTrace(seed*100+int64(i), triageSeconds, kind, start, dur)
		if err != nil {
			return nil, err
		}
		ups = append(ups, upload{csv: csv, from: from, to: to, cause: kind.String()})
	}
	return ups, nil
}

// triageOps builds n explain operations. Cold operations pick a fresh
// (dataset, region) every time; repeat operations draw from a fixed set
// of 8 incident regions.
func triageOps(rng *rand.Rand, ups []upload, n int, repeat bool, seen map[explainOp]bool) []explainOp {
	ops := make([]explainOp, 0, n)
	if repeat {
		// The incidents of the first 8 anomaly classes: the classes are
		// the same for every seed, their offsets and traces are not.
		var fixed []explainOp
		for d := 0; d < repeatRegions; d++ {
			fixed = append(fixed, explainOp{ds: d, from: ups[d].from, to: ups[d].to})
		}
		for i := 0; i < n; i++ {
			ops = append(ops, fixed[rng.Intn(len(fixed))])
		}
		return ops
	}
	for len(ops) < n {
		l := 40 + rng.Intn(160)
		op := explainOp{ds: rng.Intn(len(ups)), from: rng.Intn(triageSeconds - l)}
		op.to = op.from + l
		if seen[op] {
			continue
		}
		seen[op] = true
		ops = append(ops, op)
	}
	return ops
}

// triagePreload uploads the traces and learns their causes over the API.
func triagePreload(c *client, ups []upload) ([]string, error) {
	ids := make([]string, len(ups))
	for i, u := range ups {
		id, err := uploadDataset(c, u.csv)
		if err != nil {
			return nil, err
		}
		ids[i] = id
		if err := learn(c, id, u.from, u.to, u.cause); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

func uploadDataset(c *client, csv []byte) (string, error) {
	status, body, err := c.do("POST", "/v1/datasets", "text/csv", csv)
	if err != nil {
		return "", err
	}
	if status != http.StatusCreated {
		return "", fmt.Errorf("upload: status %d: %s", status, body)
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", err
	}
	return resp.ID, nil
}

func learnBody(id string, from, to int, cause string) []byte {
	b, _ := json.Marshal(map[string]any{"dataset": id, "from": from, "to": to, "cause": cause})
	return b
}

func learn(c *client, id string, from, to int, cause string) error {
	status, body, err := c.do("POST", "/v1/learn", "application/json", learnBody(id, from, to, cause))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("learn: status %d: %s", status, body)
	}
	return nil
}

func runTriage(o *options, repeat bool) (*outcome, error) {
	rng := rand.New(rand.NewSource(o.seed))
	ups, err := triageUploads(rng, o.seed)
	if err != nil {
		return nil, err
	}
	// Repeat operations are short enough that one connection leaves both
	// CPUs idle between requests; two keep them busy.
	rate, warm, conns := float64(triageColdRate), triageColdWarm, 1
	if repeat {
		rate, warm, conns = triageRepeatRate, triageRepeatWarm, 2
	}
	timed := o.ops(rate, 20)
	if o.scale < 1 {
		warm = int(math.Max(10, float64(warm)*o.scale))
	}
	seen := map[explainOp]bool{}
	ops := triageOps(rng, ups, warm+timed, repeat, seen)
	var traced []explainOp
	if o.trace {
		traced = triageOps(rng, ups, timed, repeat, seen)
		if repeat {
			traced = ops[warm:]
		}
	}

	logf("inputs generated")
	out := &outcome{routes: []string{"POST /v1/explain"}, tailQ: 0.95, tracedP50: math.NaN()}
	d, ids, err := setupDaemon(o, out, func(d *daemon) ([]string, error) { return triagePreload(d.client, ups) })
	if err != nil {
		return nil, err
	}
	defer d.remove()

	logf("set-up done: %v", out.setups)
	bodies := make([][]byte, len(ops))
	explain := func(i int, timed bool) {
		r := d.client.timed("POST", "/v1/explain", "application/json", ops[i].body(ids, false))
		out.tally.add(r, timed)
		bodies[i] = r.body
	}
	out.ph, err = d.measure(func() {
		for i := 0; i < warm; i++ {
			explain(i, false)
		}
		out.tally.start(timed, d.cpuClock)
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := warm + c; i < len(ops); i += conns {
					explain(i, true)
				}
			}(c)
		}
		wg.Wait()
	})
	if err != nil {
		return nil, err
	}
	if out.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	out.expensive = out.ph.d("dbsherlock_diagcache_misses_total") / float64(len(ops))
	out.expensiveWhat = "diagnosis-cache misses, Algorithm 1 runs"

	var tracedBodies [][]byte
	if o.trace {
		var lat []float64
		for _, op := range traced {
			r := d.client.timed("POST", "/v1/explain", "application/json", op.body(ids, true))
			if r.ok() {
				lat = append(lat, ms(r.dur))
			}
			tracedBodies = append(tracedBodies, r.body)
		}
		out.tracedP50 = median(lat)
	}
	d.remove()

	logf("timed phase done: %d ops in %v:%s", out.ops(), out.tally.wall(), quantiles(out.tally.lat))
	chk, err := newTriageCheck(o, ups, ids)
	if err != nil {
		return nil, err
	}
	out.checkErr = chk.verify(ops, bodies, false)
	if o.trace {
		if err := chk.verify(traced, tracedBodies, true); err != nil && out.checkErr == nil {
			out.checkErr = err
		}
		chk.fillLayers(out, ops[warm:])
	}
	logf("checks done")
	return out, nil
}

// setupDaemon starts o.setups fresh daemons, timing each from process
// start through readiness to the end of preload, and keeps the last one
// running. setup_s is the median of those times.
func setupDaemon[T any](o *options, out *outcome, preload func(*daemon) (T, error)) (*daemon, T, error) {
	var zero T
	for i := 0; i < o.setups; i++ {
		start := time.Now()
		d, err := startDaemon(o, fmt.Sprintf("data-%d", i))
		if err != nil {
			return nil, zero, err
		}
		v, err := preload(d)
		if err != nil {
			d.remove()
			return nil, zero, fmt.Errorf("preload: %w", err)
		}
		out.setups = append(out.setups, time.Since(start).Seconds())
		if i == o.setups-1 {
			return d, v, nil
		}
		d.remove()
	}
	return nil, zero, nil
}

// explainJSON mirrors the daemon's /v1/explain response body.
type explainJSON struct {
	Predicates []string        `json:"predicates"`
	Pruned     []prunedJSON    `json:"pruned,omitempty"`
	Causes     []causeJSON     `json:"causes,omitempty"`
	Region     []rangeJSON     `json:"region"`
	Trace      json.RawMessage `json:"trace,omitempty"`
}

type prunedJSON struct {
	Predicate string  `json:"predicate"`
	Rule      string  `json:"rule"`
	Kappa     float64 `json:"kappa"`
}

type causeJSON struct {
	Cause      string  `json:"cause"`
	Confidence float64 `json:"confidence"`
}

type rangeJSON struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// traceJSON is the part of the daemon's diagnosis trace read here.
type traceJSON struct {
	Stages []struct {
		Name       string  `json:"name"`
		DurationMS float64 `json:"duration_ms"`
	} `json:"stages"`
	Counters map[string]float64 `json:"counters"`
}

// triageCheck is the in-process replay of a triage run: the same traces,
// the same learned causes, and the same cache flow the server runs.
type triageCheck struct {
	an     *dbsherlock.Analyzer
	dss    []*dbsherlock.Dataset
	ids    []string
	cache  *diagcache.Cache
	tr     *tracer
	traces []traceJSON
	o      *options
	ups    []upload
	cold   map[explainOp][]byte // cold answers for regions served from the cache
}

// daemonTheta is dbsherlockd's default -theta.
const daemonTheta = 0.05

func newTriageCheck(o *options, ups []upload, ids []string) (*triageCheck, error) {
	c := &triageCheck{
		an:    dbsherlock.MustNew(dbsherlock.WithTheta(daemonTheta)),
		ids:   ids,
		cache: diagcache.New(server.DefaultDiagCacheEntries, 64<<20, nil),
		tr:    newTracer(),
		o:     o,
		ups:   ups,
		cold:  map[explainOp][]byte{},
	}
	for i, u := range ups {
		var ds *dbsherlock.Dataset
		var err error
		c.tr.do("collector.decode", -1, -1, func() { ds, err = collector.ReadCSV(bytes.NewReader(u.csv)) })
		if err != nil {
			return nil, fmt.Errorf("decode trace %d: %w", i, err)
		}
		c.tr.do("core.prewarm", -1, -1, func() { c.an.Prewarm(ds) })
		c.tr.do("causal.learn", -1, -1, func() {
			_, err = c.an.LearnCause(u.cause, ds, dbsherlock.RegionFromRange(ds.Rows(), u.from, u.to), nil)
		})
		if err != nil {
			return nil, fmt.Errorf("learn trace %d: %w", i, err)
		}
		c.dss = append(c.dss, ds)
	}
	return c, nil
}

// encodeExplain renders a diagnosis as the server's response body.
func encodeExplain(res *dbsherlock.DiagnoseResult, op explainOp) []byte {
	resp := explainJSON{Region: []rangeJSON{{op.from, op.to}}}
	for _, p := range res.Explanation.Predicates {
		resp.Predicates = append(resp.Predicates, p.String())
	}
	for _, pr := range res.Explanation.Pruned {
		resp.Pruned = append(resp.Pruned, prunedJSON{pr.Predicate.String(), pr.Rule.String(), pr.Kappa})
	}
	for _, rc := range res.Explanation.Causes {
		resp.Causes = append(resp.Causes, causeJSON{rc.Cause, rc.Confidence})
	}
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes()
}

// coldAnswer diagnoses op without any cached state.
func (c *triageCheck) coldAnswer(op explainOp) []byte {
	ds := c.dss[op.ds]
	res, err := c.an.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{
		Dataset: ds, Abnormal: dbsherlock.RegionFromRange(ds.Rows(), op.from, op.to),
	})
	if err != nil {
		return []byte(err.Error())
	}
	return encodeExplain(res, op)
}

// expect runs one operation in-process exactly as the server does and
// returns the response body it must have produced, and whether it was
// served from the diagnosis cache.
func (c *triageCheck) expect(i int, op explainOp) ([]byte, bool) {
	ds := c.dss[op.ds]
	region := dbsherlock.RegionFromRange(ds.Rows(), op.from, op.to)
	h := fnv.New64a()
	fmt.Fprintf(h, "%d:%d", op.from, op.to)
	key := diagcache.Key{Tenant: "default", DatasetID: c.ids[op.ds], RegionFP: h.Sum64()}
	root := c.tr.begin("op", i, -1)
	var reuse *dbsherlock.DiagnosisState
	c.tr.do("diagcache.get", i, root, func() {
		if e, ok := c.cache.Get(key); ok {
			reuse, _ = e.(*dbsherlock.DiagnosisState)
		}
	})
	var res *dbsherlock.DiagnoseResult
	var err error
	c.tr.do("core.diagnose", i, root, func() {
		res, err = c.an.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{
			Dataset: ds, Abnormal: region, Reuse: reuse, CaptureState: true,
		})
	})
	if err != nil {
		c.tr.end(root)
		return []byte(err.Error()), false
	}
	c.tr.do("diagcache.put", i, root, func() { c.cache.Put(key, res.State) })
	var body []byte
	c.tr.do("server.encode", i, root, func() { body = encodeExplain(res, op) })
	c.tr.end(root)
	return body, reuse != nil
}

// verify checks every answer against the in-process replay. Traced
// answers have their trace recorded and stripped first.
func (c *triageCheck) verify(ops []explainOp, bodies [][]byte, traced bool) error {
	for i, op := range ops {
		got := bodies[i]
		if traced {
			var resp explainJSON
			if err := json.Unmarshal(got, &resp); err != nil {
				return fmt.Errorf("traced op %d: %v: %s", i, err, got)
			}
			var tj traceJSON
			if err := json.Unmarshal(resp.Trace, &tj); err != nil {
				return fmt.Errorf("traced op %d: no trace: %v", i, err)
			}
			c.traces = append(c.traces, tj)
			resp.Trace = nil
			var buf bytes.Buffer
			_ = json.NewEncoder(&buf).Encode(resp)
			got = buf.Bytes()
		}
		want, hit := c.expect(i, op)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("explain %d (dataset %s rows %d-%d) differs from in-process Diagnose:\n daemon:  %.300s\n in-proc: %.300s",
				i, c.ids[op.ds], op.from, op.to, got, want)
		}
		if !hit {
			continue
		}
		cold, ok := c.cold[op]
		if !ok {
			cold = c.coldAnswer(op)
			c.cold[op] = cold
		}
		if !bytes.Equal(got, cold) {
			return fmt.Errorf("explain %d (dataset %s rows %d-%d): cache hit differs from the cold answer:\n hit:  %.300s\n cold: %.300s",
				i, c.ids[op.ds], op.from, op.to, got, cold)
		}
	}
	return nil
}

// fillLayers derives the triage per-layer metrics.
func (c *triageCheck) fillLayers(out *outcome, timed []explainOp) {
	out.layers = map[string]float64{}
	L := out.layers
	L["collector.decode_ms"] = c.tr.med("collector.decode")
	L["core.prewarm_ms"] = c.tr.med("core.prewarm")
	L["causal.learn_ms"] = c.tr.med("causal.learn")
	stage := map[string][]float64{}
	var spaces, models float64
	for _, t := range c.traces {
		seen := map[string]bool{}
		for _, s := range t.Stages {
			stage[s.Name] = append(stage[s.Name], s.DurationMS)
			seen[s.Name] = true
		}
		for _, name := range []string{"partition", "filter", "gap_fill", "extract", "score", "rank_prepare", "rank"} {
			if !seen[name] {
				stage[name] = append(stage[name], 0)
			}
		}
		spaces += t.Counters["spaces_built"]
		models += t.Counters["models_ranked"]
	}
	n := float64(len(c.traces))
	L["core.partition_ms"] = median(stage["partition"])
	L["core.filter_ms"] = median(stage["filter"])
	L["core.gapfill_ms"] = median(stage["gap_fill"])
	L["core.extract_ms"] = median(stage["extract"])
	L["core.score_ms"] = median(stage["score"])
	L["core.prepare_ms"] = median(stage["rank_prepare"])
	L["causal.rank_ms"] = median(stage["rank"])
	L["core.spaces_built_per_op"] = spaces / n
	L["causal.models_ranked_per_op"] = models / n

	// The diagnosis cache is replayed over the timed operations alone.
	cache := diagcache.New(server.DefaultDiagCacheEntries, 64<<20, nil)
	c.cache = cache
	base := len(c.tr.byName["op"])
	for i, op := range timed {
		c.expect(i, op)
	}
	st := cache.Stats()
	L["diagcache.hit_ratio"] = st.HitRatio()
	L["diagcache.resident_mb"] = float64(st.Bytes) / (1 << 20)
	L["diagcache.evictions_per_kop"] = float64(st.Evictions) / float64(len(timed)) * 1000
	out.opLayerMS = median(c.tr.byName["op"][base:])

	// The store only sees the set-up writes; triage operations read.
	sr, err := newStoreReplay(c.o, c.tr)
	if err == nil {
		for i, u := range c.ups {
			if _, err = sr.putDataset(-1, -1, c.dss[i], len(u.csv), false); err != nil {
				break
			}
			if err = sr.putModel(-1, -1, c.an.Model(u.cause), false); err != nil {
				break
			}
		}
		if err == nil {
			err = sr.finish(len(timed), L)
		}
	}
	if err != nil && out.checkErr == nil {
		out.checkErr = fmt.Errorf("store replay: %w", err)
	}
	out.fillCommon()
	c.tr.write(c.o)
}
