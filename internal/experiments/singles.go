package experiments

import (
	"fmt"
	"sort"
	"strings"

	"dbsherlock/internal/anomaly"
	"dbsherlock/internal/causal"
	"dbsherlock/internal/core"
	"dbsherlock/internal/domain"
	"dbsherlock/internal/eval"
	"dbsherlock/internal/metrics"
)

// SingleModelTheta is the paper's normalized difference threshold for
// models built from a single dataset (Section 8.3).
const SingleModelTheta = 0.2

// singleModels holds one causal model per dataset, built from that
// dataset alone.
type singleModels struct {
	models map[anomaly.Kind][]*causal.Model
}

// buildSingleModels constructs all 110 single-dataset models, optionally
// pruning secondary symptoms with domain knowledge first (Table 2).
func buildSingleModels(b *Battery, p core.Params, know *domain.Knowledge) (*singleModels, error) {
	out := &singleModels{models: make(map[anomaly.Kind][]*causal.Model)}
	for _, kind := range b.Kinds() {
		ms := make([]*causal.Model, len(b.ByKind[kind]))
		for i, d := range b.ByKind[kind] {
			preds, err := b.Predicates(d, p)
			if err != nil {
				return nil, err
			}
			if know != nil {
				preds, _ = know.Apply(preds, d.Data)
			}
			ms[i] = causal.New(kind.String(), preds)
		}
		out.models[kind] = ms
	}
	return out, nil
}

// kindConfidences averages, for each anomaly class, the confidence of
// that class's single models on the target dataset, excluding any model
// trained on the target itself.
func (sm *singleModels) kindConfidences(target *Dataset, p core.Params) map[anomaly.Kind]float64 {
	ev := evaluator(target, p)
	out := make(map[anomaly.Kind]float64, len(sm.models))
	for kind, ms := range sm.models {
		var sum float64
		var n int
		for i, m := range ms {
			if kind == target.Kind && i == target.Index {
				continue // never score a model on its own training data
			}
			sum += m.ConfidenceEval(ev)
			n++
		}
		if n > 0 {
			out[kind] = sum / float64(n)
		}
	}
	return out
}

// rankKinds orders the classes by confidence, descending (ties by name).
func rankKinds(conf map[anomaly.Kind]float64) []anomaly.Kind {
	kinds := make([]anomaly.Kind, 0, len(conf))
	for k := range conf {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool {
		if conf[kinds[i]] != conf[kinds[j]] {
			return conf[kinds[i]] > conf[kinds[j]]
		}
		return kinds[i].String() < kinds[j].String()
	})
	return kinds
}

// Fig7Row is one test case of Figure 7.
type Fig7Row struct {
	Kind anomaly.Kind
	// MarginPct is the margin of confidence of the correct causal model
	// over the best incorrect model, in percent.
	MarginPct float64
	// F1Pct is the average F1-measure of the correct model's predicates
	// on the target datasets, in percent.
	F1Pct float64
}

// Fig7Result reproduces Figure 7 (accuracy of single causal models).
type Fig7Result struct {
	Rows         []Fig7Row
	AvgMarginPct float64
	// CorrectTop1 counts test cases whose correct model ranked first.
	CorrectTop1 int
}

// RunFig7 evaluates single-dataset causal models: each model is scored
// on every other dataset; per test case we report the correct model's
// confidence margin over the best incorrect cause and its predicate F1
// (Section 8.3).
func RunFig7(b *Battery) (*Fig7Result, error) {
	p := core.DefaultParams()
	p.Theta = SingleModelTheta
	sm, err := buildSingleModels(b, p, nil)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{}
	var marginSum float64
	for _, kind := range b.Kinds() {
		var margin, f1 float64
		for _, target := range b.ByKind[kind] {
			conf := sm.kindConfidences(target, p)
			bestOther := -1.0
			for other, c := range conf {
				if other != kind && c > bestOther {
					bestOther = c
				}
			}
			margin += conf[kind] - bestOther
			// F1 of the correct models' predicates on this target.
			var fSum float64
			var fN int
			for i, m := range sm.models[kind] {
				if i == target.Index {
					continue
				}
				flagged := classify(m.Predicates, target)
				fSum += eval.CompareRegions(flagged, target.Abnormal).F1()
				fN++
			}
			f1 += fSum / float64(fN)
		}
		n := float64(len(b.ByKind[kind]))
		row := Fig7Row{Kind: kind, MarginPct: 100 * margin / n, F1Pct: 100 * f1 / n}
		res.Rows = append(res.Rows, row)
		marginSum += row.MarginPct
		// The paper's Section 8.3 claim is aggregate: per test case, the
		// correct model's average confidence exceeds every incorrect
		// model's — i.e. a positive average margin.
		if row.MarginPct > 0 {
			res.CorrectTop1++
		}
	}
	res.AvgMarginPct = marginSum / float64(len(res.Rows))
	return res, nil
}

// classify flags the rows of a dataset matching all predicates.
func classify(preds []core.Predicate, d *Dataset) *metrics.Region {
	flagged := metrics.NewRegion(d.Data.Rows())
	for i := 0; i < d.Data.Rows(); i++ {
		if core.MatchesAll(preds, d.Data, i) {
			flagged.Add(i)
		}
	}
	return flagged
}

// String prints the figure as a table.
func (r *Fig7Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 7: single causal models (margin of confidence, F1 of correct model)\n")
	fmt.Fprintf(&sb, "%-22s %18s %14s\n", "Test case", "Margin of conf (%)", "F1-measure (%)")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-22s %18.1f %14.1f\n", row.Kind, row.MarginPct, row.F1Pct)
	}
	fmt.Fprintf(&sb, "Average margin: %.1f%%; correct model ranked #1 in %d/%d test cases\n",
		r.AvgMarginPct, r.CorrectTop1, len(r.Rows))
	return sb.String()
}

// Table2Result reproduces Table 2 (effect of domain knowledge on single
// causal models).
type Table2Result struct {
	WithTop1, WithTop2       float64 // percent
	WithoutTop1, WithoutTop2 float64
}

// RunTable2 measures per-diagnosis top-1/top-2 accuracy of single
// causal models with and without the four MySQL/Linux domain-knowledge
// rules (Section 8.6).
func RunTable2(b *Battery) (*Table2Result, error) {
	p := core.DefaultParams()
	p.Theta = SingleModelTheta
	withKnow, err := buildSingleModels(b, p, domain.MustMySQLLinuxKnowledge())
	if err != nil {
		return nil, err
	}
	without, err := buildSingleModels(b, p, nil)
	if err != nil {
		return nil, err
	}
	res := &Table2Result{}
	res.WithTop1, res.WithTop2 = singleModelAccuracy(b, withKnow, p)
	res.WithoutTop1, res.WithoutTop2 = singleModelAccuracy(b, without, p)
	return res, nil
}

// singleModelAccuracy measures per-diagnosis accuracy the hard way the
// paper does: each diagnosis instance pits ONE single-dataset model per
// cause against the others. Fold f uses each cause's f-th model (the
// correct cause skips the model trained on the target itself).
func singleModelAccuracy(b *Battery, sm *singleModels, p core.Params) (top1, top2 float64) {
	var n, hit1, hit2 int
	kinds := b.Kinds()
	for _, kind := range kinds {
		for _, target := range b.ByKind[kind] {
			ev := evaluator(target, p)
			for fold := 0; fold < DatasetsPerKind; fold++ {
				conf := make(map[anomaly.Kind]float64, len(kinds))
				for _, mk := range kinds {
					idx := fold
					if mk == kind && idx == target.Index {
						idx = (idx + 1) % DatasetsPerKind
					}
					conf[mk] = sm.models[mk][idx].ConfidenceEval(ev)
				}
				ranked := rankKinds(conf)
				n++
				if ranked[0] == kind {
					hit1++
				}
				if ranked[0] == kind || (len(ranked) > 1 && ranked[1] == kind) {
					hit2++
				}
			}
		}
	}
	return 100 * float64(hit1) / float64(n), 100 * float64(hit2) / float64(n)
}

// String prints the table.
func (r *Table2Result) String() string {
	var sb strings.Builder
	sb.WriteString("Table 2: effect of domain knowledge (single causal models)\n")
	fmt.Fprintf(&sb, "%-28s %12s %12s\n", "", "Top-1 (%)", "Top-2 (%)")
	fmt.Fprintf(&sb, "%-28s %12.1f %12.1f\n", "With Domain Knowledge", r.WithTop1, r.WithTop2)
	fmt.Fprintf(&sb, "%-28s %12.1f %12.1f\n", "Without Domain Knowledge", r.WithoutTop1, r.WithoutTop2)
	return sb.String()
}
