package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

var inf = math.Inf(1)

// outcome is everything one workload run measured.
type outcome struct {
	setups   []float64 // seconds per daemon set-up
	tally    tally
	ph       *phase // daemon /metrics and CPU over the timed phase
	rssMB    float64
	checkErr error

	// tailQ is the workload's tail percentile: the highest one that keeps
	// ten or more timed operations beyond it and falls inside the
	// workload's expensive mode rather than between two modes.
	tailQ float64
	// routes are the /metrics endpoint labels one timed operation calls.
	routes []string
	// expensive is the share of timed operations that took the workload's
	// expensive path (from /metrics deltas), described by expensiveWhat.
	expensive     float64
	expensiveWhat string

	// Trace mode only.
	tracedP50 float64            // p50 of the traced pass (ms); NaN when the route has no trace switch
	opLayerMS float64            // median in-process time of one operation's layer calls
	layers    map[string]float64 // per-layer values keyed by metric name
}

func (o *outcome) ops() int { return len(o.tally.lat) }

func (o *outcome) p50() float64 { return quantile(o.tally.lat, 0.50) }

// tail is the tail percentile: the median of the segments' tails when
// every segment keeps ten or more operations beyond it, else the tail
// of all timed operations.
func (o *outcome) tail() float64 {
	per := o.tally.timed / segments
	if float64(per)*(1-o.tailQ) < 10 {
		return quantile(o.tally.lat, o.tailQ)
	}
	var tails []float64
	for k := 0; k < segments; k++ {
		tails = append(tails, quantile(o.tally.lat[k*per:(k+1)*per], o.tailQ))
	}
	return median(tails)
}

// endToEnd is the --trace 0 metric set. Every timing is a median over
// the run's segments, except a tail that needs all timed operations.
func (o *outcome) endToEnd() map[string]metric {
	p50, rate, cpu := o.tally.perSegment()
	return map[string]metric{
		"setup_s":       {median(o.setups), "s"},
		"p50_ms":        {median(p50), "ms"},
		"tail_ms":       {o.tail(), "ms"},
		"ops_per_s":     {median(rate), "ops/s"},
		"cpu_ms_per_op": {median(cpu), "ms"},
		"peak_rss_mb":   {o.rssMB, "MB"},
	}
}

// layerMetric names one per-layer metric, its unit and the layer it
// belongs to (for the breakdown).
type layerMetric struct{ name, unit string }

// layerTable is every per-layer metric, in breakdown order. A layer a
// workload bypasses reports 0.
var layerTable = []layerMetric{
	{"server.self_ms", "ms"}, {"server.handler_ms", "ms"},
	{"collector.decode_ms", "ms"},
	{"store.append_ms", "ms"}, {"store.fsync_ms", "ms"}, {"store.fsyncs_per_op", "count"},
	{"store.compactions_per_kop", "count"}, {"store.compaction_ms", "ms"},
	{"store.write_amp", "ratio"}, {"store.replay_ms", "ms"},
	{"core.prewarm_ms", "ms"}, {"core.partition_ms", "ms"}, {"core.filter_ms", "ms"},
	{"core.gapfill_ms", "ms"}, {"core.extract_ms", "ms"}, {"core.score_ms", "ms"},
	{"core.prepare_ms", "ms"}, {"core.spaces_built_per_op", "count"},
	{"causal.rank_ms", "ms"}, {"causal.models_ranked_per_op", "count"}, {"causal.learn_ms", "ms"},
	{"diagcache.hit_ratio", "ratio"}, {"diagcache.resident_mb", "MB"}, {"diagcache.evictions_per_kop", "count"},
	{"detect.tick_ms", "ms"}, {"detect.ticks_per_op", "count"}, {"detect.dbscan_tick_ratio", "ratio"},
	{"detect.tick_dbscan_ms", "ms"}, {"detect.tick_sweep_ms", "ms"},
	{"ingest.self_ms", "ms"}, {"ingest.shed_ratio", "ratio"}, {"ingest.heap_mb_per_instance", "MB"},
	{"runtime.gc_per_kop", "count"}, {"runtime.heap_mb", "MB"},
	{"client.error_rate", "ratio"}, {"client.expensive_share", "ratio"}, {"client.trace_overhead_ms", "ms"},
}

// fillCommon derives the per-layer values every workload shares: the
// server residual, handler time, runtime and client accounting.
func (o *outcome) fillCommon() {
	p50 := o.p50()
	n := float64(o.ops())
	o.layers["server.self_ms"] = p50 - o.opLayerMS
	o.layers["server.handler_ms"] = 0
	for _, r := range o.routes {
		o.layers["server.handler_ms"] += o.ph.histMeanMS("dbsherlock_http_request_duration_seconds", fmt.Sprintf(`{endpoint=%q}`, r))
	}
	o.layers["runtime.gc_per_kop"] = o.ph.d("dbsherlock_go_gc_cycles_total") / n * 1000
	o.layers["runtime.heap_mb"] = o.ph.after["dbsherlock_go_heap_alloc_bytes"] / (1 << 20)
	o.layers["client.error_rate"] = float64(o.tally.failed) / float64(o.tally.attempted)
	o.layers["client.expensive_share"] = o.expensive
	if !math.IsNaN(o.tracedP50) {
		o.layers["client.trace_overhead_ms"] = o.tracedP50 - p50
	}
}

// layerMetrics is the --trace 1 metric set.
func (o *outcome) layerMetrics() map[string]metric {
	out := make(map[string]metric, len(layerTable))
	for _, m := range layerTable {
		out[m.name] = metric{o.layers[m.name], m.unit}
	}
	return out
}

// printBreakdown writes the per-layer medians next to the untraced p50,
// in the style of EXPLAIN ANALYZE: each layer's actual time per
// operation under the end-to-end figure it is part of.
func (o *outcome) printBreakdown(w io.Writer, workload string) {
	fmt.Fprintf(w, "perfbench %s: %d timed ops, untraced p50 %.3f ms, p%g %.3f ms, %.1f ops/s\n",
		workload, o.ops(), o.p50(), o.tailQ*100, quantile(o.tally.lat, o.tailQ), float64(o.ops())/o.tally.wall().Seconds())
	fmt.Fprintf(w, "  errors: %d of %d attempted (429: %d, 5xx: %d, transport: %d)\n",
		o.tally.failed, o.tally.attempted, o.tally.status429, o.tally.status5xx, o.tally.transport)
	fmt.Fprintf(w, "  expensive path: %.4f of ops (%s)\n", o.expensive, o.expensiveWhat)
	if math.IsNaN(o.tracedP50) {
		fmt.Fprintf(w, "  tracing overhead: n/a (route has no trace switch)\n")
	} else {
		fmt.Fprintf(w, "  tracing overhead: traced p50 %.3f ms - untraced %.3f ms = %+.3f ms\n",
			o.tracedP50, o.p50(), o.tracedP50-o.p50())
	}
	fmt.Fprintf(w, "-> %s (actual p50=%.3f ms)\n", strings.Join(o.routes, " + "), o.p50())
	fmt.Fprintf(w, "   -> server self (residual) %.3f ms, handler mean %.3f ms\n",
		o.layers["server.self_ms"], o.layers["server.handler_ms"])
	fmt.Fprintf(w, "   -> in-process layers %.3f ms per op\n", o.opLayerMS)
	layer := ""
	for _, m := range layerTable[2:] {
		l, _, _ := strings.Cut(m.name, ".")
		if l != layer {
			layer = l
			fmt.Fprintf(w, "      -> %s\n", l)
		}
		fmt.Fprintf(w, "         %-30s %12.4f %s\n", m.name, o.layers[m.name], m.unit)
	}
}

// tracer records in-process spans around calls into each layer. Spans
// stay in memory and are written out once, when the run ends.
type tracer struct {
	t0     time.Time
	spans  []span
	byName map[string][]float64 // span durations in ms, by name
}

// span is one timed call: its name, start and end relative to the run
// start, the operation it served, and its parent span (-1 for none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`

	start time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now(), byName: map[string][]float64{}} }

// begin opens a span and returns its id. A nil tracer records nothing.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	start := time.Since(t.t0)
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Op: op, Name: name,
		StartUS: start.Microseconds(), start: start,
	})
	return len(t.spans) - 1
}

// end closes a span and returns its duration in ms.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	s := &t.spans[id]
	now := time.Since(t.t0)
	s.EndUS = now.Microseconds()
	d := ms(now - s.start)
	t.byName[s.Name] = append(t.byName[s.Name], d)
	return d
}

// do times fn as one span.
func (t *tracer) do(name string, op, parent int, fn func()) float64 {
	id := t.begin(name, op, parent)
	fn()
	return t.end(id)
}

// med is the median duration of the named spans (0 when none).
func (t *tracer) med(name string) float64 { return median(t.byName[name]) }

// write saves every span, in start order, as JSON next to the per-run
// scratch directories, so the file outlives the run. The spans are a
// by-product of the metrics, so a failed write is only logged.
func (t *tracer) write(o *options) {
	path := filepath.Join(filepath.Dir(o.work), fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	data, err := json.Marshal(t.spans)
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		logf("spans not written: %v", err)
	}
}

// quantiles summarises a latency sample for progress logs.
func quantiles(xs []float64) string {
	var b strings.Builder
	for _, q := range []float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.97, 0.99} {
		fmt.Fprintf(&b, " p%g=%.2f", q*100, quantile(xs, q))
	}
	b.WriteString(" segment p50s:")
	for k := 0; k < segments; k++ {
		fmt.Fprintf(&b, " %.2f", median(xs[k*len(xs)/segments:(k+1)*len(xs)/segments]))
	}
	return b.String()
}
