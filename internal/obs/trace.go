package obs

import (
	"sync/atomic"
	"time"
)

// Stage identifies one instrumented phase of the diagnosis pipeline.
// The first five are the steps of Algorithm 1 (paper Section 4); the
// rest cover pruning (Section 5) and causal-model ranking (Section 6.1).
type Stage int

const (
	// StagePartition is partition-space construction and labeling
	// (Algorithm 1 steps 1-2).
	StagePartition Stage = iota
	// StageFilter is partition filtering (step 3).
	StageFilter
	// StageGapFill is gap filling (step 4).
	StageGapFill
	// StageExtract is the normalized-difference check and predicate
	// extraction (step 5, Equation 2).
	StageExtract
	// StagePrune is domain-knowledge secondary-symptom pruning
	// (Section 5).
	StagePrune
	// StageScore is separation-power scoring of the kept predicates
	// (Equation 1).
	StageScore
	// StageRank is causal-model confidence ranking (Equation 3).
	StageRank

	numStages
)

// String returns the stage's snake_case name as used in trace JSON.
func (s Stage) String() string {
	switch s {
	case StagePartition:
		return "partition"
	case StageFilter:
		return "filter"
	case StageGapFill:
		return "gap_fill"
	case StageExtract:
		return "extract"
	case StagePrune:
		return "prune"
	case StageScore:
		return "score"
	case StageRank:
		return "rank"
	default:
		return "unknown"
	}
}

// WorkCounter identifies one work counter of a diagnosis trace.
type WorkCounter int

const (
	// CounterAttributes counts dataset attributes processed by
	// predicate generation.
	CounterAttributes WorkCounter = iota
	// CounterPartitionsCreated counts partitions across all built
	// partition spaces.
	CounterPartitionsCreated
	// CounterPartitionsFiltered counts partitions blanked by the
	// filtering step.
	CounterPartitionsFiltered
	// CounterPredicatesKept counts predicates surviving generation.
	CounterPredicatesKept
	// CounterPredicatesPruned counts predicates removed as secondary
	// symptoms.
	CounterPredicatesPruned
	// CounterSpacesBuilt counts partition spaces built by an evaluator's
	// construction: one per attribute on a cold diagnosis, none on a
	// diagnosis that reuses a captured state.
	CounterSpacesBuilt
	// CounterModelsRanked counts causal models scored for confidence.
	CounterModelsRanked

	numCounters
)

// String returns the counter's snake_case name as used in trace JSON.
func (c WorkCounter) String() string {
	switch c {
	case CounterAttributes:
		return "attributes"
	case CounterPartitionsCreated:
		return "partitions_created"
	case CounterPartitionsFiltered:
		return "partitions_filtered"
	case CounterPredicatesKept:
		return "predicates_kept"
	case CounterPredicatesPruned:
		return "predicates_pruned"
	case CounterSpacesBuilt:
		return "spaces_built"
	case CounterModelsRanked:
		return "models_ranked"
	default:
		return "unknown"
	}
}

// Trace accumulates per-stage wall time and work counts for one
// diagnosis. Stage times are cumulative across the worker pool: with W
// workers, concurrently executed per-attribute stage work sums the
// workers' individual durations, so a stage's total can exceed the
// trace's wall-clock total. All methods are safe for concurrent use and
// safe on a nil receiver — a nil *Trace is the disabled state and costs
// one branch per call, no allocations.
type Trace struct {
	start   time.Time
	workers int
	stages  [numStages]atomic.Int64
	counts  [numCounters]atomic.Int64
}

// NewTrace starts a trace; workers records the resolved worker-pool
// size for the snapshot.
func NewTrace(workers int) *Trace {
	return &Trace{start: time.Now(), workers: workers}
}

// Start returns the current time for a later EndStage, or the zero time
// on a nil (disabled) trace — the zero time makes the paired EndStage a
// no-op without a time.Now() call on the disabled path.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// EndStage adds the elapsed time since start (a value from Start) to
// the stage's cumulative total.
func (t *Trace) EndStage(s Stage, start time.Time) {
	if t == nil {
		return
	}
	t.stages[s].Add(int64(time.Since(start)))
}

// Count adds n to a work counter.
func (t *Trace) Count(c WorkCounter, n int) {
	if t == nil || n == 0 {
		return
	}
	t.counts[c].Add(int64(n))
}

// StageTiming is one stage's cumulative duration in a snapshot.
type StageTiming struct {
	Name       string  `json:"name"`
	DurationMS float64 `json:"duration_ms"`
}

// Snapshot is an immutable, JSON-ready view of a trace. Stages appear
// in pipeline order and only if they recorded time; counters only if
// non-zero.
type Snapshot struct {
	// TotalMS is wall-clock milliseconds from NewTrace to Snapshot.
	TotalMS float64 `json:"total_ms"`
	// Workers is the resolved worker-pool size. Stage durations are
	// cumulative across workers, so with Workers > 1 a stage can exceed
	// TotalMS.
	Workers  int              `json:"workers"`
	Stages   []StageTiming    `json:"stages"`
	Counters map[string]int64 `json:"counters"`
}

// Snapshot captures the trace's current state. Nil traces snapshot to
// nil.
func (t *Trace) Snapshot() *Snapshot {
	if t == nil {
		return nil
	}
	snap := &Snapshot{
		TotalMS:  float64(time.Since(t.start)) / float64(time.Millisecond),
		Workers:  t.workers,
		Counters: make(map[string]int64),
	}
	for s := Stage(0); s < numStages; s++ {
		if ns := t.stages[s].Load(); ns > 0 {
			snap.Stages = append(snap.Stages, StageTiming{
				Name:       s.String(),
				DurationMS: float64(ns) / float64(time.Millisecond),
			})
		}
	}
	for c := WorkCounter(0); c < numCounters; c++ {
		if n := t.counts[c].Load(); n != 0 {
			snap.Counters[c.String()] = n
		}
	}
	return snap
}

// StageMS returns a snapshot stage's duration, with ok=false if the
// stage recorded no time. Convenience for tests and tooling.
func (s *Snapshot) StageMS(name string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	for _, st := range s.Stages {
		if st.Name == name {
			return st.DurationMS, true
		}
	}
	return 0, false
}
