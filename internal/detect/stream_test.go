package detect

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dbsherlock/internal/anomaly"
	"dbsherlock/internal/collector"
	"dbsherlock/internal/metrics"
	"dbsherlock/internal/workload"
)

// buildStreamTrace produces a long multi-anomaly trace from the
// workload simulator, augmented with the degenerate column shapes the
// streaming state machine must handle: a constant column, an all-NaN
// column, a column with interspersed NaNs, one with an infinity, and a
// categorical column the detector must skip.
func buildStreamTrace(seed int64, rows int) *metrics.Dataset {
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	injs := []anomaly.Injection{
		{Kind: anomaly.CPUSaturation, Start: rows / 4, Duration: 60},
		{Kind: anomaly.IOSaturation, Start: rows / 2, Duration: 45},
		{Kind: anomaly.CPUSaturation, Start: 5 * rows / 6, Duration: 50},
	}
	logs := workload.NewSimulator(cfg).Run(1000, rows, anomaly.Perturb(injs))
	ds, err := collector.Align(logs)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	n := ds.Rows()
	constant := make([]float64, n)
	allNaN := make([]float64, n)
	sparseNaN := make([]float64, n)
	withInf := make([]float64, n)
	cats := make([]string, n)
	for i := 0; i < n; i++ {
		constant[i] = 42
		allNaN[i] = math.NaN()
		sparseNaN[i] = 5 + rng.NormFloat64()
		if rng.Float64() < 0.1 {
			sparseNaN[i] = math.NaN()
		}
		withInf[i] = rng.Float64()
		cats[i] = fmt.Sprintf("s%d", i%3)
	}
	withInf[n/3] = math.Inf(1)
	for _, c := range []struct {
		name string
		vals []float64
	}{
		{"aux_constant", constant}, {"aux_all_nan", allNaN},
		{"aux_sparse_nan", sparseNaN}, {"aux_inf", withInf},
	} {
		if err := ds.AddNumeric(c.name, c.vals); err != nil {
			panic(err)
		}
	}
	if err := ds.AddCategorical("aux_state", cats); err != nil {
		panic(err)
	}
	return ds
}

// buildLongTrace is a plain simulated trace of the given length,
// workload seed 1, with one 60-s PoorPhysicalDesign injection in its
// middle and no degenerate columns. Above 1,024 rows its clustering
// pass computes rows instead of filling the distance matrix.
func buildLongTrace(rows int) *metrics.Dataset {
	cfg := workload.DefaultConfig()
	cfg.Seed = 1
	injs := []anomaly.Injection{{Kind: anomaly.PoorPhysicalDesign, Start: rows / 2, Duration: 60}}
	ds, err := collector.Align(workload.NewSimulator(cfg).Run(1000, rows, anomaly.Perturb(injs)))
	if err != nil {
		panic(err)
	}
	return ds
}

// windowSlice materializes rows [lo, hi) of ds as a standalone dataset —
// the snapshot the batch reference detector runs on.
func windowSlice(ds *metrics.Dataset, lo, hi int) *metrics.Dataset {
	out := metrics.MustNewDataset(ds.Timestamps()[lo:hi])
	for i := 0; i < ds.NumAttrs(); i++ {
		col := ds.ColumnAt(i)
		var err error
		if col.Attr.Type == metrics.Numeric {
			err = out.AddNumeric(col.Attr.Name, col.Num[lo:hi])
		} else {
			err = out.AddCategorical(col.Attr.Name, col.Cat[lo:hi])
		}
		if err != nil {
			panic(err)
		}
	}
	return out
}

// requireSameResult asserts the streaming result is byte-identical to
// the batch reference: same region membership, same selected attributes
// (including nil-ness), bitwise-same epsilon.
func requireSameResult(t *testing.T, ctx string, got, want Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Abnormal, want.Abnormal) {
		t.Fatalf("%s: abnormal region diverges: got %v want %v",
			ctx, got.Abnormal.Indices(), want.Abnormal.Indices())
	}
	if !reflect.DeepEqual(got.SelectedAttrs, want.SelectedAttrs) {
		t.Fatalf("%s: selected attrs diverge: got %v want %v", ctx, got.SelectedAttrs, want.SelectedAttrs)
	}
	if math.Float64bits(got.Epsilon) != math.Float64bits(want.Epsilon) {
		t.Fatalf("%s: epsilon diverges: got %v want %v", ctx, got.Epsilon, want.Epsilon)
	}
}

// driveStream feeds ds into a Stream in chunks, running Detect every
// checkEvery appended rows, and checks each tick against the batch
// reference on the same window.
func driveStream(t *testing.T, ds *metrics.Dataset, p Params, windowCap, chunk, checkEvery, workers int) int {
	t.Helper()
	s := NewStream(p, windowCap, workers)
	ticks := 0
	sinceCheck := 0
	for lo := 0; lo < ds.Rows(); lo += chunk {
		hi := lo + chunk
		if hi > ds.Rows() {
			hi = ds.Rows()
		}
		s.Append(windowSlice(ds, lo, hi))
		sinceCheck += hi - lo
		if sinceCheck < checkEvery {
			continue
		}
		sinceCheck = 0
		wLo := hi - windowCap
		if wLo < 0 {
			wLo = 0
		}
		got := s.Detect()
		want := refDetect(windowSlice(ds, wLo, hi), p)
		requireSameResult(t, fmt.Sprintf("chunk=%d workers=%d rows=[%d,%d)", chunk, workers, wLo, hi), got, want)
		ticks++
	}
	return ticks
}

func TestStreamMatchesBatchDetect(t *testing.T) {
	ds := buildStreamTrace(7, 900)
	p := DefaultParams()
	const windowCap = 300
	for _, chunk := range []int{1, 7, 30, 120} {
		for _, workers := range []int{1, 2, 8} {
			if chunk == 1 && workers != 1 && testing.Short() {
				continue
			}
			checkEvery := 30
			if chunk > checkEvery {
				checkEvery = chunk
			}
			if ticks := driveStream(t, ds, p, windowCap, chunk, checkEvery, workers); ticks == 0 {
				t.Fatalf("chunk=%d: no detection ticks ran", chunk)
			}
		}
	}
}

// TestDetectMatchesReference pins batch Detect, a one-shot Stream, to
// the verbatim pre-stream pipeline on whole datasets: the degenerate
// columns, datasets shorter than tau, tau 1 and 0, a larger minPts, a
// zero potential threshold that selects nearly every attribute, and a
// 1,200-row trace whose clustering pass runs above the matrix cap.
func TestDetectMatchesReference(t *testing.T) {
	long := buildLongTrace(1200)
	requireSameResult(t, "rows=1200", Detect(long, DefaultParams()), refDetect(long, DefaultParams()))

	ds := buildStreamTrace(23, 600)
	params := []Params{DefaultParams(), {Tau: 1, PotentialThreshold: 0.3, MinPts: 3, SmallClusterFraction: 0.2},
		{Tau: 0, PotentialThreshold: 0.3, MinPts: 3, SmallClusterFraction: 0.2},
		{Tau: 20, PotentialThreshold: 0.3, MinPts: 5, SmallClusterFraction: 0.5},
		{Tau: 20, PotentialThreshold: 0, MinPts: 3, SmallClusterFraction: 0.2}}
	for _, rows := range []int{1, 19, 21, 150, 600} {
		win := windowSlice(ds, ds.Rows()-rows, ds.Rows())
		for _, p := range params {
			requireSameResult(t, fmt.Sprintf("rows=%d params=%+v", rows, p), Detect(win, p), refDetect(win, p))
		}
	}
}

func TestStreamFullTurnoverChunk(t *testing.T) {
	// A chunk larger than the window fully replaces it between ticks,
	// forcing the dropped-overflow rebuild path.
	ds := buildStreamTrace(11, 900)
	p := DefaultParams()
	if ticks := driveStream(t, ds, p, 200, 350, 350, 2); ticks == 0 {
		t.Fatal("no detection ticks ran")
	}
}

func TestStreamShortWindows(t *testing.T) {
	// Every-row detection through the rows < tau growth phase, where the
	// sweep's effective tau changes each tick and the state must rebuild.
	ds := buildStreamTrace(13, 60)
	p := DefaultParams()
	if ticks := driveStream(t, ds, p, 600, 1, 1, 1); ticks != 60 {
		t.Fatalf("ticks = %d, want 60", ticks)
	}
}

func TestStreamTinyTau(t *testing.T) {
	ds := buildStreamTrace(17, 400)
	p := DefaultParams()
	p.Tau = 1
	if ticks := driveStream(t, ds, p, 150, 25, 25, 4); ticks == 0 {
		t.Fatal("no detection ticks ran")
	}
}

func TestStreamEmpty(t *testing.T) {
	s := NewStream(DefaultParams(), 600, 1)
	res := s.Detect()
	if res.Abnormal.Count() != 0 || res.SelectedAttrs != nil || res.Epsilon != 0 {
		t.Fatalf("empty stream detect: %+v", res)
	}
	s.Append(nil) // no-op
	s.Append(metrics.MustNewDataset(nil))
	if s.Rows() != 0 {
		t.Fatalf("rows = %d after empty appends", s.Rows())
	}
}

func TestStreamResultAliasing(t *testing.T) {
	// Result scratch is documented as valid only until the next Detect;
	// the monitor clones before retaining. Verify two consecutive calls
	// return consistent (re-usable) state rather than accumulating.
	ds := buildStreamTrace(19, 400)
	p := DefaultParams()
	s := NewStream(p, 300, 1)
	s.Append(ds)
	first := s.Detect()
	count := first.Abnormal.Count()
	second := s.Detect()
	if second.Abnormal.Count() != count {
		t.Fatalf("repeat Detect diverged: %d then %d abnormal rows", count, second.Abnormal.Count())
	}
	want := refDetect(windowSlice(ds, ds.Rows()-300, ds.Rows()), p)
	requireSameResult(t, "repeat", second, want)
}

func BenchmarkDetectTickStream(b *testing.B) {
	// The streaming monitor cost per tick: one appended row of state
	// advance plus an incremental Detect over the same 600-row window
	// BenchmarkDetectTickNaive snapshots.
	ds := buildStreamTrace(29, 900)
	p := DefaultParams()
	prefix := windowSlice(ds, 0, 600)
	rows := make([]*metrics.Dataset, 0, 300)
	for r := 600; r < ds.Rows(); r++ {
		rows = append(rows, windowSlice(ds, r, r+1))
	}
	newFilled := func() *Stream {
		s := NewStream(p, 600, 1)
		s.Append(prefix)
		return s
	}
	s := newFilled()
	idx := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx == len(rows) {
			// The pregenerated trace is exhausted; restart outside the
			// timed region.
			b.StopTimer()
			s = newFilled()
			idx = 0
			b.StartTimer()
		}
		s.Append(rows[idx])
		idx++
		res := s.Detect()
		if res.Abnormal == nil {
			b.Fatal("no result")
		}
	}
}

// BenchmarkDetectLongTrace is batch Detect on a 2,400-row trace, where
// the clustering pass computes rows instead of filling the matrix.
func BenchmarkDetectLongTrace(b *testing.B) {
	ds := buildLongTrace(2400)
	p := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := Detect(ds, p); res.Abnormal == nil {
			b.Fatal("no result")
		}
	}
}

func BenchmarkDetectTickNaive(b *testing.B) {
	ds := buildStreamTrace(29, 900)
	p := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The snapshot-per-tick monitor cost: a deep copy of the window
		// plus batch Detect, a one-shot Stream that rebuilds every
		// attribute's state before its clustering pass.
		win := windowSlice(ds, ds.Rows()-600, ds.Rows()).Clone()
		res := Detect(win, p)
		if res.Abnormal == nil {
			b.Fatal("no result")
		}
	}
}
