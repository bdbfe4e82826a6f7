package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"

	"dbsherlock"
	"dbsherlock/internal/collector"
	"dbsherlock/internal/store"
)

// incident-writes: one client files incidents. Each operation uploads a
// seed-generated 210-s trace and learns its cause, so the store (WAL
// append, fsync, compaction), bulk CSV decoding, Prewarm and causal
// merging do the work; diagnosis does not run. The daemon's dataset cap
// keeps the snapshot bounded, so compaction recurs at a fixed cadence.
const (
	incidentSeconds = 210
	incidentPool    = 40  // distinct traces, uploaded round-robin
	incidentRate    = 100 // timed operations per --seconds
	incidentWarm    = 20
)

func incidentInputs(rng *rand.Rand, seed int64) ([]upload, error) {
	kinds := dbsherlock.AnomalyKinds()
	starts := make([]int, incidentPool)
	for i := range starts {
		starts[i] = 100 + rng.Intn(40)
	}
	ups := make([]upload, incidentPool)
	errs := make([]error, incidentPool)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range ups {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			kind := kinds[i%len(kinds)]
			_, csv, from, to, err := simTrace(seed*1000+int64(i), incidentSeconds, kind, starts[i], 60)
			ups[i], errs[i] = upload{csv: csv, from: from, to: to, cause: kind.String()}, err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ups, nil
}

// fileIncident is one operation: upload, then learn the cause.
func fileIncident(c *client, u upload) (call, string) {
	r := c.timed("POST", "/v1/datasets", "text/csv", u.csv)
	if !r.ok() || r.status != http.StatusCreated {
		return r, ""
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(r.body, &resp); err != nil {
		r.err = err
		return r, ""
	}
	l := c.timed("POST", "/v1/learn", "application/json", learnBody(resp.ID, u.from, u.to, u.cause))
	l.dur += r.dur
	return l, resp.ID
}

// acked is one acknowledged incident: its dataset id and pool entry.
type acked struct {
	id   string
	pool int
}

func runIncident(o *options) (*outcome, error) {
	rng := rand.New(rand.NewSource(o.seed))
	ups, err := incidentInputs(rng, o.seed)
	if err != nil {
		return nil, err
	}
	timed := o.ops(incidentRate, 20)
	warm := incidentWarm
	if o.scale < 1 {
		warm = 2
	}
	// The preload fills the dataset cap, so every timed upload evicts.
	order := make([]int, maxDatasets+warm+timed)
	for i := range order {
		order[i] = i % incidentPool
	}

	logf("inputs generated")
	out := &outcome{routes: []string{"POST /v1/datasets", "POST /v1/learn"}, tailQ: 0.99, tracedP50: math.NaN()}
	d, preAcked, err := setupDaemon(o, out, func(d *daemon) ([]acked, error) {
		var acks []acked
		for _, p := range order[:maxDatasets] {
			r, id := fileIncident(d.client, ups[p])
			if !r.ok() {
				return nil, fmt.Errorf("status %d %v: %s", r.status, r.err, r.body)
			}
			acks = append(acks, acked{id, p})
		}
		return acks, nil
	})
	if err != nil {
		return nil, err
	}
	defer d.remove()

	logf("set-up done: %v", out.setups)
	acks := preAcked
	out.ph, err = d.measure(func() {
		for k, p := range order[maxDatasets:] {
			if k == warm {
				out.tally.start(timed, d.cpuClock)
			}
			r, id := fileIncident(d.client, ups[p])
			out.tally.add(r, k >= warm)
			if r.ok() {
				acks = append(acks, acked{id, p})
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if out.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	out.expensive = out.ph.d("dbsherlock_store_compactions_total") / float64(len(order)-maxDatasets)
	out.expensiveWhat = "operations that ran a snapshot compaction"

	logf("timed phase done: %d ops in %v:%s", out.ops(), out.tally.wall(), quantiles(out.tally.lat))
	// Durability: SIGKILL, then reopen the data directory.
	d.kill()
	out.checkErr = checkDurable(d.dataDir, ups, acks)

	logf("checks done")
	if o.trace {
		out.layers = map[string]float64{}
		if err := replayIncidents(o, out, ups, order, warm); err != nil && out.checkErr == nil {
			out.checkErr = err
		}
	}
	return out, nil
}

// checkDurable reopens a killed daemon's data directory: every
// acknowledged dataset still within the cap must be there byte for byte,
// and every learned cause must carry the models an in-process replay of
// the same learns produces.
func checkDurable(dir string, ups []upload, acks []acked) error {
	st, err := store.OpenDurableReadOnly(dir)
	if err != nil {
		return fmt.Errorf("reopen after SIGKILL: %w", err)
	}
	defer st.Close()
	keep := acks
	if len(keep) > maxDatasets {
		keep = keep[len(keep)-maxDatasets:]
	}
	infos := st.Datasets(store.DefaultTenant)
	if len(infos) != len(keep) {
		return fmt.Errorf("after SIGKILL %d datasets remain, want the last %d acknowledged", len(infos), len(keep))
	}
	for i, a := range keep {
		if infos[i].ID != a.id {
			return fmt.Errorf("after SIGKILL dataset %d is %s, want %s", i, infos[i].ID, a.id)
		}
		ds, _ := st.GetDataset(store.DefaultTenant, a.id)
		var buf bytes.Buffer
		if err := dbsherlock.WriteCSV(&buf, ds); err != nil {
			return err
		}
		if !bytes.Equal(buf.Bytes(), ups[a.pool].csv) {
			return fmt.Errorf("after SIGKILL dataset %s differs from the upload", a.id)
		}
	}

	an := dbsherlock.MustNew(dbsherlock.WithTheta(daemonTheta))
	dss := make([]*dbsherlock.Dataset, len(ups))
	for _, a := range acks {
		u := ups[a.pool]
		if dss[a.pool] == nil {
			if dss[a.pool], err = collector.ReadCSV(bytes.NewReader(u.csv)); err != nil {
				return err
			}
		}
		ds := dss[a.pool]
		if _, err := an.LearnCause(u.cause, ds, dbsherlock.RegionFromRange(ds.Rows(), u.from, u.to), nil); err != nil {
			return err
		}
	}
	models := st.Models(store.DefaultTenant)
	causes := an.Causes()
	if len(models) != len(causes) {
		return fmt.Errorf("after SIGKILL %d causes remain, want %d", len(models), len(causes))
	}
	for i, m := range models {
		want := an.Model(causes[i])
		if m.Cause != want.Cause || m.Merged != want.Merged || predicateText(m) != predicateText(want) {
			return fmt.Errorf("after SIGKILL cause %q (merged %d) differs from the replayed model (%q, merged %d)",
				m.Cause, m.Merged, want.Cause, want.Merged)
		}
	}
	return nil
}

func predicateText(m *dbsherlock.CausalModel) string {
	var b bytes.Buffer
	for _, p := range m.Predicates {
		b.WriteString(p.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// replayIncidents replays every write through each layer's public
// functions: CSV decoding, the durable store (with the dataset cap),
// Prewarm and LearnCause.
func replayIncidents(o *options, out *outcome, ups []upload, order []int, warm int) error {
	tr := newTracer()
	L := out.layers
	sr, err := newStoreReplay(o, tr)
	if err != nil {
		return err
	}
	an := dbsherlock.MustNew(dbsherlock.WithTheta(daemonTheta))
	firstTimed := maxDatasets + warm
	var opMS []float64
	for k, p := range order {
		u := ups[p]
		timed := k >= firstTimed
		root := tr.begin("op", k, -1)
		var ds *dbsherlock.Dataset
		tr.do("collector.decode", k, root, func() { ds, err = collector.ReadCSV(bytes.NewReader(u.csv)) })
		if err != nil {
			return err
		}
		if _, err := sr.putDataset(k, root, ds, len(u.csv), timed); err != nil {
			return err
		}
		tr.do("core.prewarm", k, root, func() { an.Prewarm(ds) })
		tr.do("causal.learn", k, root, func() {
			_, err = an.LearnCause(u.cause, ds, dbsherlock.RegionFromRange(ds.Rows(), u.from, u.to), nil)
		})
		if err != nil {
			return err
		}
		if err := sr.putModel(k, root, an.Model(u.cause), timed); err != nil {
			return err
		}
		d := tr.end(root)
		if timed {
			opMS = append(opMS, d)
		}
	}
	if err := sr.finish(len(order)-firstTimed, L); err != nil {
		return err
	}
	L["collector.decode_ms"] = tr.med("collector.decode")
	L["core.prewarm_ms"] = tr.med("core.prewarm")
	L["causal.learn_ms"] = tr.med("causal.learn")
	out.opLayerMS = median(opMS)
	out.fillCommon()
	tr.write(o)
	return nil
}
