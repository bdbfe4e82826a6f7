package experiments

import (
	"fmt"
	"strings"

	"dbsherlock/internal/anomaly"
	"dbsherlock/internal/core"
	"dbsherlock/internal/eval"
)

// Fig10Row is one compound scenario of Figure 10.
type Fig10Row struct {
	Name string
	// CorrectPct is the ratio of the scenario's true causes found in the
	// top-3 diagnosis.
	CorrectPct float64
	// AvgF1Pct is the average F1 of the correct causes' model predicates
	// on the compound dataset.
	AvgF1Pct float64
}

// Fig10Result reproduces Figure 10 (Section 8.7): compound situations
// where two or three anomalies strike simultaneously.
type Fig10Result struct {
	Rows []Fig10Row
}

// RunFig10 builds, per class, a merged model over every dataset of the
// battery (the paper merges "causal models from every dataset"), then
// diagnoses six compound datasets and checks how many of the true causes
// appear among the top-3 reported causes.
func RunFig10(b *Battery) (*Fig10Result, error) {
	p := mergedParams()
	models, err := b.mergedModelSet(fullTraining(b), p)
	if err != nil {
		return nil, err
	}

	res := &Fig10Result{}
	for ci, compound := range anomaly.Compounds() {
		cfg := b.Config
		cfg.Seed = b.Config.Seed + 77000 + int64(ci)*13
		const duration = 60
		injs := make([]anomaly.Injection, len(compound.Kinds))
		for i, k := range compound.Kinds {
			injs[i] = anomaly.Injection{Kind: k, Start: normalLeadSeconds, Duration: duration}
		}
		data, abn, err := GenerateDataset(cfg, normalLeadSeconds+duration+tailSeconds, injs)
		if err != nil {
			return nil, err
		}
		target := &Dataset{Data: data, Abnormal: abn, Normal: abn.Complement()}

		ranked := rankModelSet(models, target, p)
		top3 := ranked
		if len(top3) > 3 {
			top3 = top3[:3]
		}
		inTop3 := make(map[anomaly.Kind]bool, 3)
		for _, k := range top3 {
			inTop3[k] = true
		}
		var found int
		var f1Sum float64
		for _, k := range compound.Kinds {
			if inTop3[k] {
				found++
			}
			flagged := classify(models[k].Predicates, target)
			f1Sum += eval.CompareRegions(flagged, target.Abnormal).F1()
		}
		res.Rows = append(res.Rows, Fig10Row{
			Name:       compound.Name,
			CorrectPct: 100 * float64(found) / float64(len(compound.Kinds)),
			AvgF1Pct:   100 * f1Sum / float64(len(compound.Kinds)),
		})
	}
	return res, nil
}

// fullTraining maps every class to all of its dataset indices.
func fullTraining(b *Battery) map[anomaly.Kind][]int {
	out := make(map[anomaly.Kind][]int)
	for _, kind := range b.Kinds() {
		out[kind] = rangeInts(DatasetsPerKind)
	}
	return out
}

// rankModelSet orders the model set's causes by confidence on the target.
func rankModelSet(ms modelSet, target *Dataset, p core.Params) []anomaly.Kind {
	ev := evaluator(target, p)
	conf := make(map[anomaly.Kind]float64, len(ms))
	for kind, m := range ms {
		conf[kind] = m.ConfidenceEval(ev)
	}
	return rankKinds(conf)
}

// String prints Figure 10.
func (r *Fig10Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 10: compound situations (top-3 causes shown)\n")
	fmt.Fprintf(&sb, "%-40s %14s %14s\n", "Compound test case", "Correct (%)", "Avg F1 (%)")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-40s %14.1f %14.1f\n", row.Name, row.CorrectPct, row.AvgF1Pct)
	}
	return sb.String()
}
