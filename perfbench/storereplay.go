package main

import (
	"os"
	"path/filepath"
	"time"

	"dbsherlock"
	"dbsherlock/internal/store"
)

// maxDatasets mirrors the daemon's -max-datasets in daemonArgs.
const maxDatasets = 32

// storeRecorder is a store.Observer that keeps every signal in memory.
type storeRecorder struct {
	writes, syncs []float64 // ms per append
	appendBytes   int64
	compactions   []float64 // ms
	snapBytes     int64     // snapshot bytes written by compactions
	timedSyncs    int
	timedCompact  int
	timed         bool // the current write belongs to a timed operation
}

func (r *storeRecorder) ObserveAppend(write, sync time.Duration, bytes int) {
	r.writes = append(r.writes, ms(write))
	r.appendBytes += int64(bytes)
	if sync > 0 {
		r.syncs = append(r.syncs, ms(sync))
		if r.timed {
			r.timedSyncs++
		}
	}
}
func (r *storeRecorder) ObserveCommit(string, string)            {}
func (r *storeRecorder) ObserveRollback()                        {}
func (r *storeRecorder) ObserveReplay(time.Duration, int, int64) {}
func (r *storeRecorder) ObserveCompaction(d time.Duration, snapshotBytes int64, err error) {
	r.compactions = append(r.compactions, ms(d))
	r.snapBytes += snapshotBytes
	if r.timed {
		r.timedCompact++
	}
}
func (r *storeRecorder) ObserveTornTail(int64)     {}
func (r *storeRecorder) ObserveTooLarge()          {}
func (r *storeRecorder) SetWALState(int64, uint64) {}
func (r *storeRecorder) SetSnapshotSize(int64)     {}
func (r *storeRecorder) SetReadOnly(bool)          {}

// storeReplay replays a workload's writes through store.OpenDurable in
// a private directory, with the daemon's defaults (per-commit fsync on)
// and its dataset cap, recording every store signal.
type storeReplay struct {
	dir      string
	st       *store.Durable
	rec      *storeRecorder
	tr       *tracer
	csvBytes int64
}

func newStoreReplay(o *options, tr *tracer) (*storeReplay, error) {
	dir := filepath.Join(o.work, "store-replay")
	rec := &storeRecorder{}
	st, err := store.OpenDurable(dir, store.WithObserver(rec))
	if err != nil {
		return nil, err
	}
	return &storeReplay{dir: dir, st: st, rec: rec, tr: tr}, nil
}

// putDataset stores ds and evicts the oldest datasets beyond the cap, as
// the upload handler does. It returns the new id.
func (s *storeReplay) putDataset(op, parent int, ds *dbsherlock.Dataset, csvLen int, timed bool) (string, error) {
	s.rec.timed = timed
	s.csvBytes += int64(csvLen)
	var id string
	var err error
	s.tr.do("store.put_dataset", op, parent, func() { id, err = s.st.PutDataset(store.DefaultTenant, ds) })
	if err != nil {
		return "", err
	}
	for infos := s.st.Datasets(store.DefaultTenant); len(infos) > maxDatasets; infos = infos[1:] {
		s.tr.do("store.delete_dataset", op, parent, func() { _, err = s.st.DeleteDataset(store.DefaultTenant, infos[0].ID) })
		if err != nil {
			return "", err
		}
	}
	return id, nil
}

// putModel persists a learned model, as the learn handler does.
func (s *storeReplay) putModel(op, parent int, m *dbsherlock.CausalModel, timed bool) error {
	s.rec.timed = timed
	var err error
	s.tr.do("store.put_model", op, parent, func() { err = s.st.PutModel(store.DefaultTenant, m) })
	return err
}

// finish closes the store, times a reopen (WAL replay over the latest
// snapshot), and writes the store's per-layer metrics into L.
func (s *storeReplay) finish(timedOps int, L map[string]float64) error {
	defer os.RemoveAll(s.dir)
	if err := s.st.Close(); err != nil {
		return err
	}
	var reopened *store.Durable
	var err error
	replay := s.tr.do("store.replay", -1, -1, func() { reopened, err = store.OpenDurableReadOnly(s.dir) })
	if err != nil {
		return err
	}
	_ = reopened.Close()
	r := s.rec
	L["store.append_ms"] = median(r.writes)
	L["store.fsync_ms"] = median(r.syncs)
	L["store.compaction_ms"] = median(r.compactions)
	L["store.replay_ms"] = replay
	if timedOps > 0 {
		L["store.fsyncs_per_op"] = float64(r.timedSyncs) / float64(timedOps)
		L["store.compactions_per_kop"] = float64(r.timedCompact) / float64(timedOps) * 1000
	}
	if s.csvBytes > 0 {
		L["store.write_amp"] = float64(r.appendBytes+r.snapBytes) / float64(s.csvBytes)
	}
	return nil
}
