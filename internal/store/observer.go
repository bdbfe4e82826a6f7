package store

import "time"

// Observer receives the Durable backend's operational signals: append
// and fsync latency, replay and compaction cost, WAL growth, and every
// failure class the crash harness exercises. It exists so the storage
// engine can be instrumented (internal/obs.StoreMetrics adapts these
// calls onto a Prometheus registry) without this package importing an
// observability layer — the interface speaks only std types, so any
// metrics backend can implement it.
//
// Methods are called with the store's mutex held, mostly on the commit
// path. ObserveCompaction for a finished snapshot, and the size reports
// that follow it, arrive from the background compaction goroutine,
// which takes the mutex to make them. Implementations must be fast,
// non-blocking, and must not call back into the store. A nil Observer
// (the default) costs the commit path only a few nil checks.
type Observer interface {
	// ObserveAppend records one committed WAL append: time writing the
	// frame, time in fsync (zero when sync writes are off), frame size.
	ObserveAppend(write, sync time.Duration, bytes int)
	// ObserveCommit records one acknowledged mutation by tenant and op
	// name ("put_dataset", "delete_dataset", "put_model",
	// "replace_models").
	ObserveCommit(tenant, op string)
	// ObserveRollback records a failed append that was rolled back (the
	// store stays writable).
	ObserveRollback()
	// ObserveReplay records the WAL replay performed at open: duration,
	// records applied, bytes scanned.
	ObserveReplay(d time.Duration, records int, bytes int64)
	// ObserveCompaction records one snapshot compaction attempt, from
	// the log rotation through the snapshot's publication and the
	// deletion of the segments it covers; snapshotBytes is the current
	// snapshot size (the new one on success). A failed rotation is
	// reported from the commit that attempted it.
	ObserveCompaction(d time.Duration, snapshotBytes int64, err error)
	// ObserveTornTail records torn bytes truncated from the WAL at open.
	ObserveTornTail(bytes int64)
	// ObserveTooLarge records a write rejected with ErrTooLarge.
	ObserveTooLarge()
	// SetWALState reports the WAL size — every live segment, which is
	// what a restart would replay — and the last committed sequence
	// number after every change (open, commit, rotation, compaction).
	SetWALState(sizeBytes int64, seq uint64)
	// SetSnapshotSize reports the current snapshot size (0 when none).
	SetSnapshotSize(bytes int64)
	// SetReadOnly reports whether the store refuses writes: opened
	// read-only, or latched after an unrecoverable log failure.
	SetReadOnly(readOnly bool)
}

// WithObserver instruments the durable store. The observer is invoked
// under the store lock; see Observer for the contract.
func WithObserver(o Observer) DurableOption {
	return func(d *Durable) { d.obs = o }
}

// opName returns the stable metric label for an op kind.
func opName(kind uint8) string {
	switch kind {
	case opPutDataset:
		return "put_dataset"
	case opDeleteDataset:
		return "delete_dataset"
	case opPutModel:
		return "put_model"
	case opReplaceModels:
		return "replace_models"
	default:
		return "unknown"
	}
}
