package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"dbsherlock/internal/anomaly"
	"dbsherlock/internal/causal"
	"dbsherlock/internal/core"
	"dbsherlock/internal/metrics"
)

// MergedModelTheta is the paper's threshold for models destined for
// merging (Section 8.5): a lower theta admits more predicates so the
// merge has material to work with.
const MergedModelTheta = 0.05

// mergedParams returns the default parameters for merged-model
// experiments.
func mergedParams() core.Params {
	p := core.DefaultParams()
	p.Theta = MergedModelTheta
	return p
}

// modelSet is one model per anomaly class.
type modelSet map[anomaly.Kind]*causal.Model

// mergedModelSet builds, for every class, a merged model from the given
// training indices.
func (b *Battery) mergedModelSet(indices map[anomaly.Kind][]int, p core.Params) (modelSet, error) {
	out := make(modelSet, len(indices))
	for kind, idx := range indices {
		m, err := b.MergedModel(kind, idx, p)
		if err != nil {
			return nil, err
		}
		out[kind] = m
	}
	return out, nil
}

// evaluator builds the Equation 3 evaluator of a target's diagnosis
// context. Every target's regions are non-empty and disjoint by
// construction, so a failure here is a harness bug.
func evaluator(target *Dataset, p core.Params) *core.Evaluator {
	ev, err := core.NewEvaluator(context.Background(), target.Data, target.Abnormal, target.Normal, p, nil)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s dataset %d: %v", target.Kind, target.Index, err))
	}
	return ev
}

// diagnose ranks the model set on a target and reports the correct
// cause's rank (1-based), its confidence, and the margin over the best
// incorrect cause.
func diagnose(ms modelSet, target *Dataset, p core.Params) (rank int, confidence, margin float64) {
	ev := evaluator(target, p)
	conf := make(map[anomaly.Kind]float64, len(ms))
	for kind, m := range ms {
		conf[kind] = m.ConfidenceEval(ev)
	}
	ranked := rankKinds(conf)
	rank = len(ranked)
	for i, k := range ranked {
		if k == target.Kind {
			rank = i + 1
			break
		}
	}
	bestOther := -1.0
	for k, c := range conf {
		if k != target.Kind && c > bestOther {
			bestOther = c
		}
	}
	return rank, conf[target.Kind], conf[target.Kind] - bestOther
}

// Fig8Row is one test case of Figures 8a/8b.
type Fig8Row struct {
	Kind anomaly.Kind
	// SingleMarginPct / MergedMarginPct compare margins of confidence of
	// single (1-dataset) vs merged (5-dataset) models.
	SingleMarginPct float64
	MergedMarginPct float64
	// Top1Pct / Top2Pct are the merged models' correct-explanation
	// ratios when the top-1 / top-2 causes are shown.
	Top1Pct float64
	Top2Pct float64
}

// Fig8Result reproduces Figures 8a and 8b: 50 random 5/6 train/test
// splits per class, merged models versus single models.
type Fig8Result struct {
	Rows        []Fig8Row
	AvgTop1Pct  float64
	AvgTop2Pct  float64
	Repetitions int
	TrainSize   int
}

// RunFig8 runs the merging experiment of Section 8.5 with the given
// number of repetitions (the paper uses 50, yielding 300 explanation
// instances per test case).
func RunFig8(b *Battery, repetitions int) (*Fig8Result, error) {
	p := mergedParams()
	const trainSize = 5
	rng := rand.New(rand.NewSource(8))
	res := &Fig8Result{Repetitions: repetitions, TrainSize: trainSize}

	type agg struct {
		singleMargin, mergedMargin float64
		top1, top2, n              int
	}
	aggs := make(map[anomaly.Kind]*agg)
	for _, kind := range b.Kinds() {
		aggs[kind] = &agg{}
	}

	for rep := 0; rep < repetitions; rep++ {
		train := make(map[anomaly.Kind][]int, len(aggs))
		for _, kind := range b.Kinds() {
			perm := rng.Perm(DatasetsPerKind)
			train[kind] = perm[:trainSize]
		}
		merged, err := b.mergedModelSet(train, p)
		if err != nil {
			return nil, err
		}
		// Single models for the margin comparison: the first training
		// dataset of each class.
		single := make(modelSet, len(aggs))
		for _, kind := range b.Kinds() {
			m, err := b.Model(b.ByKind[kind][train[kind][0]], p)
			if err != nil {
				return nil, err
			}
			single[kind] = m
		}
		for _, kind := range b.Kinds() {
			inTrain := make(map[int]bool, trainSize)
			for _, i := range train[kind] {
				inTrain[i] = true
			}
			a := aggs[kind]
			for i, target := range b.ByKind[kind] {
				if inTrain[i] {
					continue
				}
				rank, _, margin := diagnose(merged, target, p)
				_, _, sMargin := diagnose(single, target, p)
				a.mergedMargin += margin
				a.singleMargin += sMargin
				a.n++
				if rank == 1 {
					a.top1++
				}
				if rank <= 2 {
					a.top2++
				}
			}
		}
	}

	var sum1, sum2 float64
	for _, kind := range b.Kinds() {
		a := aggs[kind]
		row := Fig8Row{
			Kind:            kind,
			SingleMarginPct: 100 * a.singleMargin / float64(a.n),
			MergedMarginPct: 100 * a.mergedMargin / float64(a.n),
			Top1Pct:         100 * float64(a.top1) / float64(a.n),
			Top2Pct:         100 * float64(a.top2) / float64(a.n),
		}
		res.Rows = append(res.Rows, row)
		sum1 += row.Top1Pct
		sum2 += row.Top2Pct
	}
	res.AvgTop1Pct = sum1 / float64(len(res.Rows))
	res.AvgTop2Pct = sum2 / float64(len(res.Rows))
	return res, nil
}

// String prints Figures 8a and 8b as one table.
func (r *Fig8Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 8a/8b: single vs merged causal models (%d reps, %d training datasets)\n",
		r.Repetitions, r.TrainSize)
	fmt.Fprintf(&sb, "%-22s %12s %12s %10s %10s\n",
		"Test case", "1-ds margin", "5-ds margin", "Top-1 (%)", "Top-2 (%)")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-22s %12.1f %12.1f %10.1f %10.1f\n",
			row.Kind, row.SingleMarginPct, row.MergedMarginPct, row.Top1Pct, row.Top2Pct)
	}
	fmt.Fprintf(&sb, "Average: top-1 %.1f%%, top-2 %.1f%%\n", r.AvgTop1Pct, r.AvgTop2Pct)
	return sb.String()
}

// Fig8cResult reproduces Figure 8c: accuracy as a function of how many
// datasets are merged into each model.
type Fig8cResult struct {
	// Top1Pct[k] / Top2Pct[k] are the accuracies with k+1 training
	// datasets.
	Top1Pct []float64
	Top2Pct []float64
}

// RunFig8c sweeps the merged-model training-set size from 1 to 5
// datasets (Section 8.5, Figure 8c).
func RunFig8c(b *Battery, repetitions int) (*Fig8cResult, error) {
	p := mergedParams()
	rng := rand.New(rand.NewSource(83))
	res := &Fig8cResult{}
	for trainSize := 1; trainSize <= 5; trainSize++ {
		var top1, top2, n int
		for rep := 0; rep < repetitions; rep++ {
			train := make(map[anomaly.Kind][]int)
			for _, kind := range b.Kinds() {
				perm := rng.Perm(DatasetsPerKind)
				train[kind] = perm[:trainSize]
			}
			ms, err := b.mergedModelSet(train, p)
			if err != nil {
				return nil, err
			}
			for _, kind := range b.Kinds() {
				inTrain := make(map[int]bool, trainSize)
				for _, i := range train[kind] {
					inTrain[i] = true
				}
				for i, target := range b.ByKind[kind] {
					if inTrain[i] {
						continue
					}
					rank, _, _ := diagnose(ms, target, p)
					n++
					if rank == 1 {
						top1++
					}
					if rank <= 2 {
						top2++
					}
				}
			}
		}
		res.Top1Pct = append(res.Top1Pct, 100*float64(top1)/float64(n))
		res.Top2Pct = append(res.Top2Pct, 100*float64(top2)/float64(n))
	}
	return res, nil
}

// String prints Figure 8c.
func (r *Fig8cResult) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 8c: accuracy vs number of merged datasets\n")
	fmt.Fprintf(&sb, "%-12s %10s %10s\n", "# datasets", "Top-1 (%)", "Top-2 (%)")
	for i := range r.Top1Pct {
		fmt.Fprintf(&sb, "%-12d %10.1f %10.1f\n", i+1, r.Top1Pct[i], r.Top2Pct[i])
	}
	return sb.String()
}

// leaveOneOutModels builds, for every class, a merged model over all
// datasets except the fold index (used by Table 5/6 and Figures 11/12).
func (b *Battery) leaveOneOutModels(fold int, p core.Params) (modelSet, error) {
	train := make(map[anomaly.Kind][]int)
	for _, kind := range b.Kinds() {
		train[kind] = allBut(DatasetsPerKind, fold)
	}
	return b.mergedModelSet(train, p)
}

// looOutcome aggregates a leave-one-out evaluation.
type looOutcome struct {
	Top1Pct, Top2Pct     float64
	AvgMarginPct         float64
	AvgConfidencePct     float64
	PerKindMarginPct     map[anomaly.Kind]float64
	PerKindConfidencePct map[anomaly.Kind]float64
	PerKindTop1Pct       map[anomaly.Kind]float64
	PerKindTop2Pct       map[anomaly.Kind]float64
}

// runLeaveOneOut evaluates 10-dataset merged models on every held-out
// dataset. regionOf lets callers perturb the diagnosed region (Table 5);
// nil uses the ground-truth regions.
func (b *Battery) runLeaveOneOut(p core.Params, regionOf func(d *Dataset) (*Dataset, bool)) (*looOutcome, error) {
	out := &looOutcome{
		PerKindMarginPct:     make(map[anomaly.Kind]float64),
		PerKindConfidencePct: make(map[anomaly.Kind]float64),
		PerKindTop1Pct:       make(map[anomaly.Kind]float64),
		PerKindTop2Pct:       make(map[anomaly.Kind]float64),
	}
	counts := make(map[anomaly.Kind]int)
	var top1, top2, n int
	for fold := 0; fold < DatasetsPerKind; fold++ {
		ms, err := b.leaveOneOutModels(fold, p)
		if err != nil {
			return nil, err
		}
		for _, kind := range b.Kinds() {
			target := b.ByKind[kind][fold]
			if regionOf != nil {
				perturbed, ok := regionOf(target)
				if !ok {
					continue
				}
				target = perturbed
			}
			rank, conf, margin := diagnose(ms, target, p)
			n++
			counts[kind]++
			if rank == 1 {
				top1++
				out.PerKindTop1Pct[kind]++
			}
			if rank <= 2 {
				top2++
				out.PerKindTop2Pct[kind]++
			}
			out.PerKindMarginPct[kind] += margin
			out.PerKindConfidencePct[kind] += conf
			out.AvgMarginPct += margin
			out.AvgConfidencePct += conf
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("experiments: leave-one-out produced no diagnoses")
	}
	out.Top1Pct = 100 * float64(top1) / float64(n)
	out.Top2Pct = 100 * float64(top2) / float64(n)
	out.AvgMarginPct = 100 * out.AvgMarginPct / float64(n)
	out.AvgConfidencePct = 100 * out.AvgConfidencePct / float64(n)
	for kind, c := range counts {
		out.PerKindMarginPct[kind] = 100 * out.PerKindMarginPct[kind] / float64(c)
		out.PerKindConfidencePct[kind] = 100 * out.PerKindConfidencePct[kind] / float64(c)
		out.PerKindTop1Pct[kind] = 100 * out.PerKindTop1Pct[kind] / float64(c)
		out.PerKindTop2Pct[kind] = 100 * out.PerKindTop2Pct[kind] / float64(c)
	}
	return out, nil
}

// Fig11Result reproduces Figure 11 (Appendix B): merged models from 10
// datasets (leave-one-out) versus the 5-dataset models of Figure 8.
type Fig11Result struct {
	Kind10             []anomaly.Kind
	ConfidencePct      map[anomaly.Kind]float64
	MarginPct          map[anomaly.Kind]float64
	Top1Pct, Top2Pct   float64
	PerKindTop1        map[anomaly.Kind]float64
	PerKindTop2        map[anomaly.Kind]float64
	Compare5DatasetRef *Fig8Result
}

// RunFig11 evaluates the over-fitting question of Appendix B.
func RunFig11(b *Battery, fiveDatasetRef *Fig8Result) (*Fig11Result, error) {
	p := mergedParams()
	loo, err := b.runLeaveOneOut(p, nil)
	if err != nil {
		return nil, err
	}
	return &Fig11Result{
		Kind10:             b.Kinds(),
		ConfidencePct:      loo.PerKindConfidencePct,
		MarginPct:          loo.PerKindMarginPct,
		Top1Pct:            loo.Top1Pct,
		Top2Pct:            loo.Top2Pct,
		PerKindTop1:        loo.PerKindTop1Pct,
		PerKindTop2:        loo.PerKindTop2Pct,
		Compare5DatasetRef: fiveDatasetRef,
	}, nil
}

// String prints Figure 11.
func (r *Fig11Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 11 (App. B): merged causal models from 10 datasets (leave-one-out)\n")
	fmt.Fprintf(&sb, "%-22s %14s %12s %10s %10s\n", "Test case", "Confidence (%)", "Margin (%)", "Top-1 (%)", "Top-2 (%)")
	for _, kind := range r.Kind10 {
		fmt.Fprintf(&sb, "%-22s %14.1f %12.1f %10.1f %10.1f\n",
			kind, r.ConfidencePct[kind], r.MarginPct[kind], r.PerKindTop1[kind], r.PerKindTop2[kind])
	}
	fmt.Fprintf(&sb, "Overall: top-1 %.1f%%, top-2 %.1f%%", r.Top1Pct, r.Top2Pct)
	if r.Compare5DatasetRef != nil {
		fmt.Fprintf(&sb, " (5-dataset models: top-1 %.1f%%, top-2 %.1f%%)",
			r.Compare5DatasetRef.AvgTop1Pct, r.Compare5DatasetRef.AvgTop2Pct)
	}
	sb.WriteString("\n")
	return sb.String()
}

// Table5Result reproduces Table 5 (Appendix C): robustness against
// imperfect abnormal regions.
type Table5Result struct {
	Rows []Table5Row
}

// Table5Row is one region-perturbation setting.
type Table5Row struct {
	Name             string
	Top1Pct, Top2Pct float64
}

// RunTable5 perturbs the diagnosed abnormal region: exact, 10% longer,
// 10% shorter, and a random two-second sliver of the true anomaly.
func RunTable5(b *Battery) (*Table5Result, error) {
	p := mergedParams()
	rng := rand.New(rand.NewSource(55))

	withRegion := func(name string, fn func(d *Dataset) (*Dataset, bool)) (Table5Row, error) {
		loo, err := b.runLeaveOneOut(p, fn)
		if err != nil {
			return Table5Row{}, err
		}
		return Table5Row{Name: name, Top1Pct: loo.Top1Pct, Top2Pct: loo.Top2Pct}, nil
	}
	perturb := func(pad func(d *Dataset) int) func(d *Dataset) (*Dataset, bool) {
		return func(d *Dataset) (*Dataset, bool) {
			abn := d.Abnormal.Expand(pad(d))
			if abn.Empty() {
				return nil, false
			}
			cp := *d
			cp.Abnormal = abn
			cp.Normal = abn.Complement()
			return &cp, true
		}
	}

	res := &Table5Result{}
	row, err := withRegion("Original", nil)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, row)
	row, err = withRegion("10% Longer", perturb(func(d *Dataset) int { return (d.Duration + 19) / 20 }))
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, row)
	row, err = withRegion("10% Shorter", perturb(func(d *Dataset) int { return -((d.Duration + 19) / 20) }))
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, row)
	// Two-second sliver, repeated 10 times per dataset (Appendix C).
	const slivers = 10
	var top1, top2, n int
	for fold := 0; fold < DatasetsPerKind; fold++ {
		ms, err := b.leaveOneOutModels(fold, p)
		if err != nil {
			return nil, err
		}
		for _, kind := range b.Kinds() {
			target := b.ByKind[kind][fold]
			idx := target.Abnormal.Indices()
			for s := 0; s < slivers; s++ {
				start := idx[rng.Intn(len(idx)-1)]
				cp := *target
				cp.Abnormal = metrics.RegionFromRange(target.Data.Rows(), start, start+2)
				// The normal region stays the ORIGINAL one: this
				// simulates an anomaly that only lasted two seconds, so
				// the rows of the full injected window outside the
				// sliver are simply unselected (ignored), not normal.
				cp.Normal = target.Normal
				rank, _, _ := diagnose(ms, &cp, p)
				n++
				if rank == 1 {
					top1++
				}
				if rank <= 2 {
					top2++
				}
			}
		}
	}
	res.Rows = append(res.Rows, Table5Row{
		Name:    "Two Seconds",
		Top1Pct: 100 * float64(top1) / float64(n),
		Top2Pct: 100 * float64(top2) / float64(n),
	})
	return res, nil
}

// String prints Table 5.
func (r *Table5Result) String() string {
	var sb strings.Builder
	sb.WriteString("Table 5 (App. C): robustness against imperfect abnormal regions\n")
	fmt.Fprintf(&sb, "%-24s %10s %10s\n", "Width of region", "Top-1 (%)", "Top-2 (%)")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-24s %10.1f %10.1f\n", row.Name, row.Top1Pct, row.Top2Pct)
	}
	return sb.String()
}

// Table6Result reproduces Table 6 (Appendix D): contribution of the
// filtering and gap-filling steps.
type Table6Result struct {
	Rows []Table6Row
}

// Table6Row is one algorithm variant.
type Table6Row struct {
	Name         string
	AvgMarginPct float64
	Top1Pct      float64
}

// RunTable6 ablates the partition-filtering and gap-filling steps, both
// at model construction and confidence evaluation.
func RunTable6(b *Battery) (*Table6Result, error) {
	variants := []struct {
		name             string
		noFill, noFilter bool
	}{
		{"Original (all 5 steps)", false, false},
		{"Without Filling the Gaps", true, false},
		{"Without Partition Filtering", false, true},
		{"Without Filling & Filtering", true, true},
	}
	res := &Table6Result{}
	for _, v := range variants {
		p := mergedParams()
		p.DisableGapFilling = v.noFill
		p.DisableFiltering = v.noFilter
		loo, err := b.runLeaveOneOut(p, nil)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table6Row{
			Name:         v.name,
			AvgMarginPct: loo.AvgMarginPct,
			Top1Pct:      loo.Top1Pct,
		})
	}
	return res, nil
}

// String prints Table 6.
func (r *Table6Result) String() string {
	var sb strings.Builder
	sb.WriteString("Table 6 (App. D): contribution of the algorithm steps\n")
	fmt.Fprintf(&sb, "%-30s %14s %10s\n", "Algorithm", "Avg margin (%)", "Top-1 (%)")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-30s %14.1f %10.1f\n", row.Name, row.AvgMarginPct, row.Top1Pct)
	}
	return sb.String()
}

// Table4Result reproduces Table 4 (Appendix A): TPC-C vs TPC-E accuracy
// with 5-dataset merged models.
type Table4Result struct {
	TPCCTop1, TPCCTop2 float64
	TPCETop1, TPCETop2 float64
}

// RunTable4 reuses the TPC-C battery and generates a TPC-E battery.
func RunTable4(tpcc *Battery, tpce *Battery, repetitions int) (*Table4Result, error) {
	c, err := RunFig8(tpcc, repetitions)
	if err != nil {
		return nil, err
	}
	e, err := RunFig8(tpce, repetitions)
	if err != nil {
		return nil, err
	}
	return &Table4Result{
		TPCCTop1: c.AvgTop1Pct, TPCCTop2: c.AvgTop2Pct,
		TPCETop1: e.AvgTop1Pct, TPCETop2: e.AvgTop2Pct,
	}, nil
}

// String prints Table 4.
func (r *Table4Result) String() string {
	var sb strings.Builder
	sb.WriteString("Table 4 (App. A): accuracy for TPC-C and TPC-E workloads\n")
	fmt.Fprintf(&sb, "%-12s %10s %10s\n", "Workload", "Top-1 (%)", "Top-2 (%)")
	fmt.Fprintf(&sb, "%-12s %10.1f %10.1f\n", "TPC-C", r.TPCCTop1, r.TPCCTop2)
	fmt.Fprintf(&sb, "%-12s %10.1f %10.1f\n", "TPC-E", r.TPCETop1, r.TPCETop2)
	return sb.String()
}

// Fig12aResult reproduces Figure 12a: sweep of the partition count R.
type Fig12aResult struct {
	R             []int
	ConfidencePct []float64
	Elapsed       []time.Duration
}

// RunFig12a sweeps R over the paper's values, measuring the correct
// model's average confidence and the predicate-generation time across
// the whole battery.
func RunFig12a(b *Battery) (*Fig12aResult, error) {
	res := &Fig12aResult{}
	for _, r := range []int{125, 250, 500, 1000, 2000} {
		p := mergedParams()
		p.NumPartitions = r
		start := time.Now()
		for _, kind := range b.Kinds() {
			for _, d := range b.ByKind[kind] {
				// Time predicate generation uncached.
				if _, err := core.Generate(d.Data, d.Abnormal, d.Normal, p); err != nil {
					return nil, err
				}
			}
		}
		elapsed := time.Since(start)
		loo, err := b.runLeaveOneOut(p, nil)
		if err != nil {
			return nil, err
		}
		res.R = append(res.R, r)
		res.ConfidencePct = append(res.ConfidencePct, loo.AvgConfidencePct)
		res.Elapsed = append(res.Elapsed, elapsed)
	}
	return res, nil
}

// String prints Figure 12a.
func (r *Fig12aResult) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 12a (App. D): effect of the number of partitions R\n")
	fmt.Fprintf(&sb, "%-8s %16s %16s\n", "R", "Confidence (%)", "Generation time")
	for i := range r.R {
		fmt.Fprintf(&sb, "%-8d %16.1f %16s\n", r.R[i], r.ConfidencePct[i], r.Elapsed[i].Round(time.Millisecond))
	}
	return sb.String()
}

// Fig12bResult reproduces Figure 12b: sweep of the anomaly distance
// multiplier delta.
type Fig12bResult struct {
	Delta         []float64
	ConfidencePct []float64
}

// RunFig12b sweeps delta over the paper's values.
func RunFig12b(b *Battery) (*Fig12bResult, error) {
	res := &Fig12bResult{}
	for _, delta := range []float64{0.1, 0.5, 1, 5, 10} {
		p := mergedParams()
		p.Delta = delta
		loo, err := b.runLeaveOneOut(p, nil)
		if err != nil {
			return nil, err
		}
		res.Delta = append(res.Delta, delta)
		res.ConfidencePct = append(res.ConfidencePct, loo.AvgConfidencePct)
	}
	return res, nil
}

// String prints Figure 12b.
func (r *Fig12bResult) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 12b (App. D): effect of the anomaly distance multiplier delta\n")
	fmt.Fprintf(&sb, "%-8s %16s\n", "delta", "Confidence (%)")
	for i := range r.Delta {
		fmt.Fprintf(&sb, "%-8.1f %16.1f\n", r.Delta[i], r.ConfidencePct[i])
	}
	return sb.String()
}

// Fig12cResult reproduces Figure 12c: sweep of the normalized difference
// threshold theta.
type Fig12cResult struct {
	Theta         []float64
	ConfidencePct []float64
	AvgPredicates []float64
}

// RunFig12c sweeps theta over the paper's values, also counting the
// average number of predicates per generated model.
func RunFig12c(b *Battery) (*Fig12cResult, error) {
	res := &Fig12cResult{}
	for _, theta := range []float64{0.01, 0.05, 0.1, 0.2, 0.4} {
		p := mergedParams()
		p.Theta = theta
		var predCount, models int
		for _, kind := range b.Kinds() {
			for _, d := range b.ByKind[kind] {
				preds, err := b.Predicates(d, p)
				if err != nil {
					return nil, err
				}
				predCount += len(preds)
				models++
			}
		}
		loo, err := b.runLeaveOneOut(p, nil)
		if err != nil {
			return nil, err
		}
		res.Theta = append(res.Theta, theta)
		res.ConfidencePct = append(res.ConfidencePct, loo.AvgConfidencePct)
		res.AvgPredicates = append(res.AvgPredicates, float64(predCount)/float64(models))
	}
	return res, nil
}

// String prints Figure 12c.
func (r *Fig12cResult) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 12c (App. D): effect of the normalized difference threshold theta\n")
	fmt.Fprintf(&sb, "%-8s %16s %16s\n", "theta", "Confidence (%)", "Avg #predicates")
	for i := range r.Theta {
		fmt.Fprintf(&sb, "%-8.2f %16.1f %16.1f\n", r.Theta[i], r.ConfidencePct[i], r.AvgPredicates[i])
	}
	return sb.String()
}
