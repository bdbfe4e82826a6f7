package dbsherlock

import (
	"io"

	"dbsherlock/internal/anomaly"
	"dbsherlock/internal/causal"
	"dbsherlock/internal/collector"
	"dbsherlock/internal/core"
	"dbsherlock/internal/domain"
	"dbsherlock/internal/metrics"
	"dbsherlock/internal/obs"
	"dbsherlock/internal/workload"
)

// Re-exported data-model types. The aliases make the internal packages'
// values interchangeable with the public API.
type (
	// Dataset is the timestamp-aligned statistics table
	// (Timestamp, Attr1, ..., Attrk) the diagnostic algorithm consumes.
	Dataset = metrics.Dataset
	// Region is a selection of dataset rows (an abnormal or normal
	// region).
	Region = metrics.Region
	// Attribute describes one dataset column.
	Attribute = metrics.Attribute
	// Predicate is one simple predicate of an explanation
	// (Attr < x, Attr > x, x < Attr < y, or Attr IN {...}).
	Predicate = core.Predicate
	// Params are the predicate-generation parameters (R, theta, delta).
	Params = core.Params
	// CausalModel is a cause label plus its effect predicates.
	CausalModel = causal.Model
	// RankedCause is one diagnosis candidate with its confidence.
	RankedCause = causal.RankedCause
	// Rule is one piece of domain knowledge (cause attr -> effect attr).
	Rule = domain.Rule
	// PrunedPredicate reports a predicate removed as a secondary
	// symptom, with the rule and independence factor that justified it.
	PrunedPredicate = domain.Pruned
	// TraceSnapshot is the JSON-ready per-stage timing and work-count
	// view of one traced diagnosis (WithTracing / DiagnoseRequest.Trace).
	TraceSnapshot = obs.Snapshot
	// TraceStage is one stage's cumulative duration in a TraceSnapshot.
	TraceStage = obs.StageTiming
)

// NewDataset creates an empty dataset over strictly increasing
// timestamps; add columns with AddNumeric / AddCategorical.
func NewDataset(timestamps []int64) (*Dataset, error) { return metrics.NewDataset(timestamps) }

// NewRegion returns an empty row selection over n rows.
func NewRegion(n int) *Region { return metrics.NewRegion(n) }

// RegionFromRange selects rows [lo, hi) of an n-row dataset.
func RegionFromRange(n, lo, hi int) *Region { return metrics.RegionFromRange(n, lo, hi) }

// NewCausalModel builds a causal model from a diagnosed cause and its
// effect predicates.
func NewCausalModel(cause string, preds []Predicate) *CausalModel { return causal.New(cause, preds) }

// MergeModels merges causal models of the same cause (Section 6.2 of
// the paper).
func MergeModels(models []*CausalModel) (*CausalModel, error) { return causal.MergeAll(models) }

// MySQLLinuxRules returns the paper's four domain-knowledge rules for
// MySQL on Linux, expressed over this testbed's attribute names.
func MySQLLinuxRules() []Rule { return domain.MySQLLinuxRules() }

// SeparationPower computes Equation (1) of the paper for a predicate:
// the fraction of abnormal tuples satisfying it minus the fraction of
// normal tuples satisfying it.
func SeparationPower(p Predicate, ds *Dataset, abnormal, normal *Region) float64 {
	return core.SeparationPower(p, ds, abnormal, normal)
}

// WriteCSV serializes a dataset (categorical columns are marked in the
// header so the schema round-trips).
func WriteCSV(w io.Writer, ds *Dataset) error { return collector.WriteCSV(w, ds) }

// ReadCSV parses a dataset written by WriteCSV.
func ReadCSV(r io.Reader) (*Dataset, error) { return collector.ReadCSV(r) }

// Testbed re-exports: the synthetic OLTP server and anomaly injectors
// that stand in for the paper's MySQL/Linux/TPC-C environment.
type (
	// TestbedConfig configures the simulated server and client fleet.
	TestbedConfig = workload.Config
	// AnomalyKind identifies one of the paper's ten anomaly classes.
	AnomalyKind = anomaly.Kind
	// Injection activates one anomaly during [Start, Start+Duration)
	// seconds of a simulated run.
	Injection = anomaly.Injection
)

// The ten anomaly classes of the paper's evaluation (Table 1).
const (
	PoorlyWrittenQuery = anomaly.PoorlyWrittenQuery
	PoorPhysicalDesign = anomaly.PoorPhysicalDesign
	WorkloadSpike      = anomaly.WorkloadSpike
	IOSaturation       = anomaly.IOSaturation
	DatabaseBackup     = anomaly.DatabaseBackup
	TableRestore       = anomaly.TableRestore
	CPUSaturation      = anomaly.CPUSaturation
	FlushLogTable      = anomaly.FlushLogTable
	NetworkCongestion  = anomaly.NetworkCongestion
	LockContention     = anomaly.LockContention
)

// AnomalyKinds lists all ten classes in the paper's order.
func AnomalyKinds() []AnomalyKind { return anomaly.Kinds() }

// DefaultTestbed returns the TPC-C testbed configuration of the paper's
// experiments (4 cores, 7 GB RAM, scale 500, 128 terminals).
func DefaultTestbed() TestbedConfig { return workload.DefaultConfig() }

// TPCETestbed returns the TPC-E configuration of Appendix A.
func TPCETestbed() TestbedConfig { return workload.TPCEConfig() }

// Simulate runs the synthetic testbed for the given number of seconds
// with the injections active in their windows, and returns the aligned
// statistics table plus the ground-truth abnormal region (the union of
// the injection windows).
func Simulate(cfg TestbedConfig, startTime int64, seconds int, injs []Injection) (*Dataset, *Region, error) {
	sim := workload.NewSimulator(cfg)
	logs := sim.Run(startTime, seconds, anomaly.Perturb(injs))
	ds, err := collector.Align(logs)
	if err != nil {
		return nil, nil, err
	}
	abn := metrics.NewRegion(ds.Rows())
	for _, inj := range injs {
		lo, hi := ds.RowsInTimeRange(startTime+int64(inj.Start), startTime+int64(inj.Start+inj.Duration))
		abn.AddRange(lo, hi)
	}
	return ds, abn, nil
}

// AvgLatencyAttr is the name of the average-transaction-latency column,
// the performance indicator users typically plot (paper Figure 3).
const AvgLatencyAttr = workload.AttrAvgLatency
