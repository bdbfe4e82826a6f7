package store

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"dbsherlock/internal/causal"
)

// recordingObserver captures every Observer callback for assertions.
// Methods run with the store mutex held, so the recorder takes its own
// lock only to satisfy -race when tests read it afterwards.
type recordingObserver struct {
	mu          sync.Mutex
	appends     int
	appendBytes int
	lastSync    time.Duration
	commits     []string // "tenant/op"
	rollbacks   int
	replays     int
	replayRecs  int
	replayBytes int64
	compactions int
	compactErrs int
	torn        int64
	tooLarge    int
	walSize     int64
	walSeq      uint64
	snapSize    int64
	readOnly    bool
}

func (o *recordingObserver) ObserveAppend(write, sync time.Duration, bytes int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.appends++
	o.appendBytes += bytes
	o.lastSync = sync
}

func (o *recordingObserver) ObserveCommit(tenant, op string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.commits = append(o.commits, tenant+"/"+op)
}

func (o *recordingObserver) ObserveRollback() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.rollbacks++
}

func (o *recordingObserver) ObserveReplay(d time.Duration, records int, bytes int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.replays++
	o.replayRecs = records
	o.replayBytes = bytes
}

func (o *recordingObserver) ObserveCompaction(d time.Duration, snapshotBytes int64, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.compactions++
	if err != nil {
		o.compactErrs++
	}
}

func (o *recordingObserver) ObserveTornTail(bytes int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.torn += bytes
}

func (o *recordingObserver) ObserveTooLarge() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.tooLarge++
}

func (o *recordingObserver) SetWALState(sizeBytes int64, seq uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.walSize, o.walSeq = sizeBytes, seq
}

func (o *recordingObserver) SetSnapshotSize(bytes int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.snapSize = bytes
}

func (o *recordingObserver) SetReadOnly(readOnly bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.readOnly = readOnly
}

func (o *recordingObserver) snapshot() recordingObserver {
	o.mu.Lock()
	defer o.mu.Unlock()
	return recordingObserver{
		appends: o.appends, appendBytes: o.appendBytes, lastSync: o.lastSync,
		commits: append([]string(nil), o.commits...), rollbacks: o.rollbacks,
		replays: o.replays, replayRecs: o.replayRecs, replayBytes: o.replayBytes,
		compactions: o.compactions, compactErrs: o.compactErrs,
		torn: o.torn, tooLarge: o.tooLarge,
		walSize: o.walSize, walSeq: o.walSeq, snapSize: o.snapSize, readOnly: o.readOnly,
	}
}

func TestObserverCommitLifecycle(t *testing.T) {
	ffs := NewFailFS()
	obs := &recordingObserver{}
	d, err := OpenDurable("data", WithFS(ffs), WithObserver(obs))
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	defer d.Close()

	id, err := d.PutDataset("acme", testDataset(t, 4, 1))
	if err != nil {
		t.Fatalf("PutDataset: %v", err)
	}
	if err := d.PutModel("acme", testModel("Lock Contention", 1)); err != nil {
		t.Fatalf("PutModel: %v", err)
	}
	if err := d.ReplaceModels("beta", []*causal.Model{testModel("IO Saturation", 1)}); err != nil {
		t.Fatalf("ReplaceModels: %v", err)
	}
	if _, err := d.DeleteDataset("acme", id); err != nil {
		t.Fatalf("DeleteDataset: %v", err)
	}

	got := obs.snapshot()
	wantCommits := []string{
		"acme/put_dataset", "acme/put_model", "beta/replace_models", "acme/delete_dataset",
	}
	if strings.Join(got.commits, ",") != strings.Join(wantCommits, ",") {
		t.Errorf("commits = %v, want %v", got.commits, wantCommits)
	}
	if got.appends != 4 || got.appendBytes <= 0 {
		t.Errorf("appends = %d (%d bytes), want 4 with positive bytes", got.appends, got.appendBytes)
	}
	if got.lastSync <= 0 {
		t.Errorf("sync duration = %v, want > 0 (sync writes are on)", got.lastSync)
	}
	if got.walSeq != 4 || got.walSize <= int64(len(walMagic)) {
		t.Errorf("WAL state = (%d bytes, seq %d), want seq 4 and size past the header", got.walSize, got.walSeq)
	}
	if got.replays != 1 || got.replayRecs != 0 {
		t.Errorf("replays = %d with %d records, want 1 replay of an empty dir", got.replays, got.replayRecs)
	}
	if got.readOnly {
		t.Error("read-only reported true on a writable store")
	}
	if got.rollbacks != 0 || got.tooLarge != 0 || got.torn != 0 {
		t.Errorf("unexpected failure observations: rollbacks=%d tooLarge=%d torn=%d",
			got.rollbacks, got.tooLarge, got.torn)
	}
}

func TestObserverReplayAndTornTail(t *testing.T) {
	ffs := NewFailFS()
	d, err := OpenDurable("data", WithFS(ffs))
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	if _, err := d.PutDataset("a", testDataset(t, 4, 1)); err != nil {
		t.Fatalf("PutDataset: %v", err)
	}
	// Tear the next record a few bytes in: the power cut fires mid-frame.
	ffs.CrashAfterBytes(7)
	if _, err := d.PutDataset("a", testDataset(t, 4, 2)); err == nil {
		t.Fatal("PutDataset should fail at the power cut")
	}
	_ = d.Close()

	obs := &recordingObserver{}
	d2, err := OpenDurable("data", WithFS(ffs.PostCrashFS()), WithObserver(obs))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	got := obs.snapshot()
	if got.replays != 1 || got.replayRecs != 1 {
		t.Errorf("replay = %d runs, %d records; want 1 run applying the 1 intact record", got.replays, got.replayRecs)
	}
	if got.torn != 7 {
		t.Errorf("torn tail = %d bytes, want the 7 that reached the platter", got.torn)
	}
	if got.replayBytes <= 0 {
		t.Errorf("replay bytes = %d, want > 0", got.replayBytes)
	}
	if got.walSeq != 1 {
		t.Errorf("post-recovery sequence = %d, want 1", got.walSeq)
	}
}

func TestObserverRollbackLatchesReadOnly(t *testing.T) {
	ffs := NewFailFS()
	obs := &recordingObserver{}
	d, err := OpenDurable("data", WithFS(ffs), WithObserver(obs))
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	defer d.Close()

	// Every sync from now on fails: the append's fsync fails, and the
	// rollback's fsync fails too — the double failure latches the store.
	ffs.FailSyncFrom(1)
	if _, err := d.PutDataset("a", testDataset(t, 4, 1)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("PutDataset = %v, want ErrUnavailable", err)
	}
	got := obs.snapshot()
	if got.rollbacks != 1 {
		t.Errorf("rollbacks = %d, want 1", got.rollbacks)
	}
	if !got.readOnly {
		t.Error("SetReadOnly(true) not observed after the double log failure")
	}
	if len(got.commits) != 0 {
		t.Errorf("failed append must not count as a commit: %v", got.commits)
	}
	h := d.Health()
	if !h.ReadOnly || h.Err == "" || h.Writable() {
		t.Errorf("Health after latch = %+v, want read-only with an error", h)
	}
}

func TestObserverTooLarge(t *testing.T) {
	ffs := NewFailFS()
	obs := &recordingObserver{}
	d, err := OpenDurable("data", WithFS(ffs), WithObserver(obs))
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	defer d.Close()
	d.maxRecord = 8 // force the frame-limit rejection without a 1 GiB payload
	if _, err := d.PutDataset("a", testDataset(t, 4, 1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("PutDataset = %v, want ErrTooLarge", err)
	}
	if got := obs.snapshot(); got.tooLarge != 1 || got.appends != 0 {
		t.Errorf("tooLarge = %d, appends = %d; want 1 rejection and no append", got.tooLarge, got.appends)
	}
}

func TestObserverCompaction(t *testing.T) {
	ffs := NewFailFS()
	obs := &recordingObserver{}
	d, err := OpenDurable("data", WithFS(ffs), WithObserver(obs), WithCompactEvery(1))
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	defer d.Close()
	if _, err := d.PutDataset("a", testDataset(t, 4, 1)); err != nil {
		t.Fatalf("PutDataset: %v", err)
	}
	waitCompaction(d)
	got := obs.snapshot()
	if got.compactions != 1 || got.compactErrs != 0 {
		t.Errorf("compactions = %d (errs %d), want 1 clean compaction", got.compactions, got.compactErrs)
	}
	if got.snapSize <= 0 {
		t.Errorf("snapshot size = %d, want > 0 after compaction", got.snapSize)
	}
	if got.walSize != int64(len(walMagic)) {
		t.Errorf("post-compaction WAL size = %d, want the bare header (%d)", got.walSize, len(walMagic))
	}
}

// TestWALBytesCountsLiveSegments crosses a rotation whose background
// snapshot fails and then one whose snapshot finishes. WAL bytes — in
// Health, in the observer, and in the next open's replay — must always
// be the size of every live segment, which is what a restart replays;
// the failure must leave the store writable, and the next snapshot must
// delete every segment it covers, the failed round's included.
func TestWALBytesCountsLiveSegments(t *testing.T) {
	ffs := NewFailFS()
	obs := &recordingObserver{}
	d, err := OpenDurable("data", WithFS(ffs), WithObserver(obs), WithCompactEvery(1))
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	check := func(stage string, wantSegments int) {
		t.Helper()
		var live int64
		segments := 0
		for name, n := range ffs.files {
			if _, ok := segmentIndex(strings.TrimPrefix(name, "data/")); ok {
				live += int64(len(n.data))
				segments++
			}
		}
		if segments != wantSegments {
			t.Fatalf("%s: %d live segments, want %d", stage, segments, wantSegments)
		}
		h := d.Health()
		if h.WALBytes != live || !h.Writable() {
			t.Errorf("%s: Health = %+v, want writable with WALBytes = %d (all live segments)", stage, h, live)
		}
		if got := obs.snapshot().walSize; got != live {
			t.Errorf("%s: observed WAL size = %d, want %d", stage, got, live)
		}
	}

	// The first commit rotates; its snapshot fails to publish, so the
	// sealed segment stays live next to the new one.
	ffs.FailRenameAfter(1)
	if _, err := d.PutDataset("a", testDataset(t, 4, 1)); err != nil {
		t.Fatalf("PutDataset: %v", err)
	}
	waitCompaction(d)
	if got := obs.snapshot(); got.compactions != 1 || got.compactErrs != 1 {
		t.Fatalf("compactions = %d (errs %d), want 1 failed", got.compactions, got.compactErrs)
	}
	check("after a failed snapshot", 2)

	// The next commit lands in the new segment, rotates again, and this
	// snapshot covers both older segments.
	if err := d.PutModel("a", testModel("Lock Contention", 1)); err != nil {
		t.Fatalf("PutModel after a failed compaction: %v", err)
	}
	waitCompaction(d)
	if got := obs.snapshot(); got.compactions != 2 || got.compactErrs != 1 {
		t.Fatalf("compactions = %d (errs %d), want 1 failed then 1 clean", got.compactions, got.compactErrs)
	}
	check("after a finished snapshot", 1)
	want := encodeState(d.mem)
	walBytes, snapBytes := d.Health().WALBytes, d.Health().SnapshotBytes
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	obs2 := &recordingObserver{}
	d2, err := OpenDurable("data", WithFS(ffs), WithObserver(obs2))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if got := obs2.snapshot(); got.replayBytes != walBytes+snapBytes {
		t.Errorf("replay scanned %d bytes, want WAL %d + snapshot %d", got.replayBytes, walBytes, snapBytes)
	}
	if got := encodeState(d2.mem); !bytes.Equal(got, want) {
		t.Fatal("state differs after reopen")
	}
}

func TestDurableHealth(t *testing.T) {
	ffs := NewFailFS()
	d, err := OpenDurable("data", WithFS(ffs))
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	defer d.Close()
	if _, err := d.PutDataset("a", testDataset(t, 4, 1)); err != nil {
		t.Fatalf("PutDataset: %v", err)
	}
	if err := d.PutModel("b", testModel("Lock Contention", 1)); err != nil {
		t.Fatalf("PutModel: %v", err)
	}
	h := d.Health()
	if h.Backend != "durable" || h.ReadOnly || h.Err != "" || !h.Writable() {
		t.Errorf("Health = %+v, want healthy durable", h)
	}
	if h.Tenants != 2 || h.Datasets != 1 || h.Models != 1 {
		t.Errorf("counts = %d tenants / %d datasets / %d models, want 2/1/1", h.Tenants, h.Datasets, h.Models)
	}
	if h.WALSequence != 2 || h.WALBytes <= int64(len(walMagic)) {
		t.Errorf("WAL state = (%d bytes, seq %d), want seq 2 and size past the header", h.WALBytes, h.WALSequence)
	}
}

func TestMemoryHealth(t *testing.T) {
	m := NewMemory()
	if _, err := m.PutDataset("a", testDataset(t, 4, 1)); err != nil {
		t.Fatalf("PutDataset: %v", err)
	}
	h := m.Health()
	if h.Backend != "memory" || !h.Writable() || h.Tenants != 1 || h.Datasets != 1 {
		t.Errorf("Health = %+v, want writable memory with 1 tenant / 1 dataset", h)
	}
}

func TestReadOnlyOpenReportsReadOnlyHealth(t *testing.T) {
	ffs := NewFailFS()
	d, err := OpenDurable("data", WithFS(ffs))
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	if _, err := d.PutDataset("a", testDataset(t, 4, 1)); err != nil {
		t.Fatalf("PutDataset: %v", err)
	}
	_ = d.Close()

	obs := &recordingObserver{}
	ro, err := OpenDurableReadOnly("data", WithFS(ffs), WithObserver(obs))
	if err != nil {
		t.Fatalf("OpenDurableReadOnly: %v", err)
	}
	defer ro.Close()
	if h := ro.Health(); !h.ReadOnly || h.Err != "" {
		t.Errorf("read-only Health = %+v, want ReadOnly with no error", h)
	}
	if got := obs.snapshot(); !got.readOnly {
		t.Error("SetReadOnly(true) not observed on a read-only open")
	}
}
