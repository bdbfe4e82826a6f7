package store

import (
	"bytes"
	"errors"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dbsherlock/internal/causal"
	"dbsherlock/internal/core"
	"dbsherlock/internal/metrics"
)

// testDataset builds a small dataset whose values exercise the codec's
// IEEE-754 path: NaN, ±Inf, and ordinary floats derived from seed.
func testDataset(t testing.TB, rows int, seed int64) *metrics.Dataset {
	t.Helper()
	times := make([]int64, rows)
	for i := range times {
		times[i] = int64(i+1) * 10
	}
	ds, err := metrics.NewDataset(times)
	if err != nil {
		t.Fatalf("NewDataset: %v", err)
	}
	num := make([]float64, rows)
	for i := range num {
		switch i % 5 {
		case 0:
			num[i] = math.NaN()
		case 1:
			num[i] = math.Inf(1)
		case 2:
			num[i] = math.Inf(-1)
		default:
			num[i] = float64(seed)*0.25 + float64(i)*1.5
		}
	}
	if err := ds.AddNumeric("cpu", num); err != nil {
		t.Fatalf("AddNumeric: %v", err)
	}
	cat := make([]string, rows)
	for i := range cat {
		cat[i] = "state-" + strconv.Itoa(i%3)
	}
	if err := ds.AddCategorical("mode", cat); err != nil {
		t.Fatalf("AddCategorical: %v", err)
	}
	return ds
}

func testModel(cause string, merged int) *causal.Model {
	return &causal.Model{
		Cause:  cause,
		Merged: merged,
		Predicates: []core.Predicate{
			{Attr: "cpu", Type: metrics.Numeric, HasLower: true, Lower: 10, HasUpper: true, Upper: 90},
			{Attr: "mode", Type: metrics.Categorical, Categories: []string{"state-1"}},
		},
		Remediations: []string{"check " + cause},
	}
}

func TestValidTenant(t *testing.T) {
	good := []string{"default", "a", "Tenant-1", "db.prod_7", string(bytes.Repeat([]byte{'x'}, MaxTenantLen))}
	for _, g := range good {
		if err := ValidTenant(g); err != nil {
			t.Errorf("ValidTenant(%q) = %v, want nil", g, err)
		}
	}
	bad := []string{"", "has space", "slash/y", "colon:x", string(bytes.Repeat([]byte{'x'}, MaxTenantLen+1)), "\x00", "é"}
	for _, b := range bad {
		if err := ValidTenant(b); err == nil {
			t.Errorf("ValidTenant(%q) = nil, want error", b)
		}
	}
}

func TestMemoryDatasetLifecycle(t *testing.T) {
	m := NewMemory()
	ds1 := testDataset(t, 4, 1)
	id1, err := m.PutDataset("a", ds1)
	if err != nil {
		t.Fatalf("PutDataset: %v", err)
	}
	if id1 != "ds-1" {
		t.Fatalf("first id = %q, want ds-1", id1)
	}
	id2, _ := m.PutDataset("a", testDataset(t, 4, 2))
	if id2 != "ds-2" {
		t.Fatalf("second id = %q, want ds-2", id2)
	}
	// Another tenant's counter is independent.
	idB, _ := m.PutDataset("b", testDataset(t, 4, 3))
	if idB != "ds-1" {
		t.Fatalf("tenant b first id = %q, want ds-1", idB)
	}
	if got, ok := m.GetDataset("a", id1); !ok || got != ds1 {
		t.Fatalf("GetDataset(a, %s) = %v, %v", id1, got, ok)
	}
	if _, ok := m.GetDataset("b", id2); ok {
		t.Fatal("tenant b sees tenant a's dataset")
	}
	infos := m.Datasets("a")
	if len(infos) != 2 || infos[0].ID != "ds-1" || infos[1].ID != "ds-2" {
		t.Fatalf("Datasets(a) = %+v", infos)
	}
	if infos[0].Rows != 4 || infos[0].Attributes != 2 {
		t.Fatalf("DatasetInfo = %+v", infos[0])
	}
	ok, err := m.DeleteDataset("a", id1)
	if err != nil || !ok {
		t.Fatalf("DeleteDataset = %v, %v", ok, err)
	}
	ok, err = m.DeleteDataset("a", id1)
	if err != nil || ok {
		t.Fatalf("second DeleteDataset = %v, %v, want false, nil", ok, err)
	}
	// Ids are never reused, even after the newest dataset is deleted.
	if _, err := m.DeleteDataset("a", id2); err != nil {
		t.Fatal(err)
	}
	id3, _ := m.PutDataset("a", testDataset(t, 4, 4))
	if id3 != "ds-3" {
		t.Fatalf("id after deletes = %q, want ds-3", id3)
	}
}

func TestMemoryModelBank(t *testing.T) {
	m := NewMemory()
	orig := testModel("lock contention", 1)
	if err := m.PutModel("a", orig); err != nil {
		t.Fatalf("PutModel: %v", err)
	}
	// The store keeps a clone: mutating the original must not leak in.
	orig.Merged = 99
	got := m.Models("a")
	if len(got) != 1 || got[0].Merged != 1 {
		t.Fatalf("Models(a) = %+v, want the pre-mutation clone", got)
	}
	if err := m.PutModel("a", testModel("lock contention", 3)); err != nil {
		t.Fatal(err)
	}
	if got := m.Models("a"); len(got) != 1 || got[0].Merged != 3 {
		t.Fatalf("PutModel did not replace in place: %+v", got)
	}
	if got := m.Models("b"); len(got) != 0 {
		t.Fatalf("tenant b sees tenant a's models: %+v", got)
	}
	repl := []*causal.Model{testModel("io saturation", 2), testModel("cpu saturation", 1)}
	if err := m.ReplaceModels("a", repl); err != nil {
		t.Fatal(err)
	}
	got = m.Models("a")
	if len(got) != 2 || got[0].Cause != "io saturation" || got[1].Cause != "cpu saturation" {
		t.Fatalf("ReplaceModels order = %+v", got)
	}
	if err := m.PutModel("a", &causal.Model{Cause: "", Merged: 1}); err == nil {
		t.Fatal("PutModel accepted an empty cause")
	}
	if err := m.PutModel("bad tenant!", testModel("x", 1)); err == nil {
		t.Fatal("PutModel accepted an invalid tenant")
	}
	if got := m.Tenants(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("Tenants = %v, want [a]", got)
	}
}

// openFail opens a Durable over a FailFS.
func openFail(t testing.TB, ffs *FailFS, opts ...DurableOption) *Durable {
	t.Helper()
	d, err := OpenDurable("data", append([]DurableOption{WithFS(ffs)}, opts...)...)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return d
}

func TestDurableReopenRoundTrip(t *testing.T) {
	// Real filesystem: the end-to-end contract on the OS backend.
	dir := t.TempDir()
	d, err := OpenDurable(dir)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	id, err := d.PutDataset("alpha", testDataset(t, 6, 7))
	if err != nil {
		t.Fatalf("PutDataset: %v", err)
	}
	if err := d.PutModel("alpha", testModel("lock contention", 2)); err != nil {
		t.Fatalf("PutModel: %v", err)
	}
	if _, err := d.PutDataset("beta", testDataset(t, 3, 9)); err != nil {
		t.Fatal(err)
	}
	if ok, err := d.DeleteDataset("beta", "ds-1"); err != nil || !ok {
		t.Fatalf("DeleteDataset = %v, %v", ok, err)
	}
	want := encodeState(d.mem)
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := d.PutModel("alpha", testModel("x", 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after Close = %v, want ErrClosed", err)
	}

	d2, err := OpenDurable(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if got := encodeState(d2.mem); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs from state at close")
	}
	if _, ok := d2.GetDataset("alpha", id); !ok {
		t.Fatalf("dataset %s lost across reopen", id)
	}
	// The id allocator survives too: beta's ds-1 was deleted, so the
	// next beta id must be ds-2.
	id2, err := d2.PutDataset("beta", testDataset(t, 3, 11))
	if err != nil {
		t.Fatal(err)
	}
	if id2 != "ds-2" {
		t.Fatalf("beta id after reopen = %q, want ds-2 (ids are never reused)", id2)
	}
}

func TestDurableCompactionRoundTrip(t *testing.T) {
	ffs := NewFailFS()
	d := openFail(t, ffs, WithCompactEvery(512))
	for i := 0; i < 20; i++ {
		if _, err := d.PutDataset("a", testDataset(t, 4, int64(i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		waitCompaction(d)
	}
	if err := d.PutModel("a", testModel("net slow", 1)); err != nil {
		t.Fatal(err)
	}
	waitCompaction(d)
	if d.walSize >= 512+int64(len(walMagic)) {
		// Every put is bigger than the threshold, so each commit should
		// have compacted: the live WAL stays near-empty.
		t.Fatalf("walSize = %d, compaction never ran", d.walSize)
	}
	want := encodeState(d.mem)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openFail(t, ffs)
	defer d2.Close()
	if got := encodeState(d2.mem); !bytes.Equal(got, want) {
		t.Fatal("state after compacted reopen differs")
	}
}

func TestDurableExplicitCompact(t *testing.T) {
	ffs := NewFailFS()
	d := openFail(t, ffs)
	if _, err := d.PutDataset("a", testDataset(t, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if d.walSize != int64(len(walMagic)) {
		t.Fatalf("walSize after Compact = %d, want bare header", d.walSize)
	}
	// Writes after compaction land in the fresh log and replay fine.
	if err := d.PutModel("a", testModel("after compact", 1)); err != nil {
		t.Fatal(err)
	}
	want := encodeState(d.mem)
	d.Close()
	d2 := openFail(t, ffs)
	defer d2.Close()
	if got := encodeState(d2.mem); !bytes.Equal(got, want) {
		t.Fatal("state differs after compact + append + reopen")
	}
}

// TestCompactAndCloseWaitForInFlightCompaction: a commit that crosses
// the threshold leaves its snapshot to the compaction goroutine.
// Compact must wait for that one and then compact synchronously, and
// Close must not return while a snapshot is still being written.
func TestCompactAndCloseWaitForInFlightCompaction(t *testing.T) {
	ffs := NewFailFS()
	d := openFail(t, ffs, WithCompactEvery(1))
	liveSegments := func() (names []string) {
		for name := range ffs.files {
			if _, ok := segmentIndex(strings.TrimPrefix(name, "data/")); ok {
				names = append(names, name)
			}
		}
		return names
	}
	snapshotSeq := func() uint64 {
		t.Helper()
		n, ok := ffs.files["data/"+snapName]
		if !ok {
			t.Fatal("no snapshot published")
		}
		_, seq, err := decodeSnapshot(n.data)
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}

	if _, err := d.PutDataset("a", testDataset(t, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatalf("Compact with a compaction in flight: %v", err)
	}
	if h := d.Health(); h.WALBytes != int64(len(walMagic)) || h.SnapshotBytes == 0 {
		t.Fatalf("after Compact: Health = %+v, want a snapshot and a bare open segment", h)
	}
	if segs := liveSegments(); len(segs) != 1 || snapshotSeq() != 1 {
		t.Fatalf("after Compact: segments %v, snapshot seq %d; want one segment and seq 1", segs, snapshotSeq())
	}

	if err := d.PutModel("a", testModel("in flight at close", 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := liveSegments(); len(segs) != 1 || snapshotSeq() != 2 {
		t.Fatalf("after Close: segments %v, snapshot seq %d; want one segment and seq 2", segs, snapshotSeq())
	}
}

func TestDurableTornTailTruncated(t *testing.T) {
	ffs := NewFailFS()
	d := openFail(t, ffs)
	if _, err := d.PutDataset("a", testDataset(t, 4, 1)); err != nil {
		t.Fatal(err)
	}
	want := encodeState(d.mem)
	d.Close()

	// Simulate a torn append: garbage bytes that never completed.
	node := ffs.files["data/wal"]
	node.data = append(node.data, 0xde, 0xad, 0xbe)
	node.synced = len(node.data)

	d2 := openFail(t, ffs)
	defer d2.Close()
	if got := encodeState(d2.mem); !bytes.Equal(got, want) {
		t.Fatal("torn tail changed recovered state")
	}
	// The tail must be gone from disk so the next append is parseable.
	if err := d2.PutModel("a", testModel("post torn", 1)); err != nil {
		t.Fatal(err)
	}
	want2 := encodeState(d2.mem)
	d2.Close()
	d3 := openFail(t, ffs)
	defer d3.Close()
	if got := encodeState(d3.mem); !bytes.Equal(got, want2) {
		t.Fatal("append after torn-tail truncation did not replay")
	}
}

func TestDurableForeignWALRefused(t *testing.T) {
	ffs := NewFailFS()
	f, err := ffs.OpenFile("data/wal", os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("NOTOURS1 some other program's file"))
	f.Close()
	if _, err := OpenDurable("data", WithFS(ffs)); err == nil {
		t.Fatal("OpenDurable accepted a foreign wal file")
	}
}

func TestDurableCorruptSnapshotRefused(t *testing.T) {
	ffs := NewFailFS()
	d := openFail(t, ffs)
	if _, err := d.PutDataset("a", testDataset(t, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	// Flip a byte inside the snapshot payload: unlike a torn WAL tail,
	// a damaged snapshot is unrecoverable corruption and must refuse to
	// open rather than silently serve partial state.
	node := ffs.files["data/snapshot"]
	node.data[len(node.data)/2] ^= 0x40
	if _, err := OpenDurable("data", WithFS(ffs)); err == nil {
		t.Fatal("OpenDurable accepted a corrupt snapshot")
	}
}

func TestDurableSyncFailureRollsBack(t *testing.T) {
	ffs := NewFailFS()
	d := openFail(t, ffs)
	if _, err := d.PutDataset("a", testDataset(t, 4, 1)); err != nil {
		t.Fatal(err)
	}
	want := encodeState(d.mem)

	// Fail the next Sync (the commit fsync). The rollback truncate+sync
	// succeeds, so the store stays healthy and the op is fully undone.
	ffs.FailSyncAfter(1)
	err := d.PutModel("a", testModel("doomed", 1))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("PutModel with failing sync = %v, want ErrUnavailable", err)
	}
	if got := encodeState(d.mem); !bytes.Equal(got, want) {
		t.Fatal("failed commit leaked into the materialized state")
	}
	// Store recovered: next write succeeds and replays.
	if err := d.PutModel("a", testModel("survivor", 1)); err != nil {
		t.Fatalf("write after rolled-back failure: %v", err)
	}
	want2 := encodeState(d.mem)
	d.Close()
	d2 := openFail(t, ffs)
	defer d2.Close()
	if got := encodeState(d2.mem); !bytes.Equal(got, want2) {
		t.Fatal("state after rollback + append differs on reopen")
	}
}

func TestDurableDoubleSyncFailureBricksWrites(t *testing.T) {
	ffs := NewFailFS()
	d := openFail(t, ffs)
	if _, err := d.PutDataset("a", testDataset(t, 4, 1)); err != nil {
		t.Fatal(err)
	}
	// Kill the disk: the commit fsync fails AND the rollback fsync
	// fails, so the log position is unknowable. The store must latch
	// failed and refuse all further writes while still serving reads.
	ffs.FailSyncFrom(1)
	if err := d.PutModel("a", testModel("doomed", 1)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("first failure = %v, want ErrUnavailable", err)
	}
	// Even after the disk "recovers", the store stays refused: it can
	// no longer know what the log holds.
	ffs.FailSyncFrom(0)
	if err := d.PutModel("a", testModel("x", 1)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("write on failed store = %v, want ErrUnavailable", err)
	}
	if _, ok := d.GetDataset("a", "ds-1"); !ok {
		t.Fatal("reads must keep working on a failed store")
	}
	d.Close()
}

func TestDurableCompactRenameFailureKeepsLog(t *testing.T) {
	ffs := NewFailFS()
	d := openFail(t, ffs)
	if _, err := d.PutDataset("a", testDataset(t, 4, 1)); err != nil {
		t.Fatal(err)
	}
	want := encodeState(d.mem)
	ffs.FailRenameAfter(1)
	if err := d.Compact(); err == nil {
		t.Fatal("Compact with failing rename succeeded")
	}
	// The old log is intact: writes keep working and reopen agrees.
	if err := d.PutModel("a", testModel("still alive", 1)); err != nil {
		t.Fatalf("write after failed compaction: %v", err)
	}
	d.Close()
	d2 := openFail(t, ffs)
	defer d2.Close()
	got := encodeState(d2.mem)
	if bytes.Equal(got, want) {
		t.Fatal("post-compaction-failure write was lost")
	}
	if _, ok := d2.GetDataset("a", "ds-1"); !ok {
		t.Fatal("original dataset lost after failed compaction")
	}
	if models := d2.Models("a"); len(models) != 1 || models[0].Cause != "still alive" {
		t.Fatalf("Models after reopen = %+v", models)
	}
}

func TestDurableTempFilesRemovedOnOpen(t *testing.T) {
	ffs := NewFailFS()
	f, _ := ffs.OpenFile("data/snapshot.tmp", os.O_CREATE|os.O_WRONLY, 0o644)
	f.Write([]byte("half-written snapshot"))
	f.Close()
	d := openFail(t, ffs)
	defer d.Close()
	if _, ok := ffs.files["data/snapshot.tmp"]; ok {
		t.Fatal("stale .tmp file survived open")
	}
}

func TestDurableSingleWriterLock(t *testing.T) {
	// Real filesystem: the locks are real flock(2) locks.
	dir := t.TempDir()
	d, err := OpenDurable(dir)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	if _, err := OpenDurable(dir); !errors.Is(err, ErrLocked) {
		t.Fatalf("second writer open = %v, want ErrLocked", err)
	}
	if _, err := OpenDurableReadOnly(dir); !errors.Is(err, ErrLocked) {
		t.Fatalf("reader open against live writer = %v, want ErrLocked", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Readers coexist with each other but exclude a writer.
	r1, err := OpenDurableReadOnly(dir)
	if err != nil {
		t.Fatalf("read-only open: %v", err)
	}
	r2, err := OpenDurableReadOnly(dir)
	if err != nil {
		t.Fatalf("second read-only open: %v", err)
	}
	if _, err := OpenDurable(dir); !errors.Is(err, ErrLocked) {
		t.Fatalf("writer open against live readers = %v, want ErrLocked", err)
	}
	r1.Close()
	r2.Close()

	// Both locks released: the writer opens again.
	d2, err := OpenDurable(dir)
	if err != nil {
		t.Fatalf("reopen after readers closed: %v", err)
	}
	d2.Close()
}

func TestDurableReadOnly(t *testing.T) {
	ffs := NewFailFS()
	d := openFail(t, ffs)
	if _, err := d.PutDataset("a", testDataset(t, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.PutModel("a", testModel("lock contention", 2)); err != nil {
		t.Fatal(err)
	}
	want := encodeState(d.mem)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: a daemon crashed mid-append.
	f, err := ffs.OpenFile("data/wal", os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 2, 3})
	f.Close()
	tornLen := len(ffs.files["data/wal"].data)

	ro, err := OpenDurableReadOnly("data", WithFS(ffs))
	if err != nil {
		t.Fatalf("read-only open over torn tail: %v", err)
	}
	if got := encodeState(ro.mem); !bytes.Equal(got, want) {
		t.Fatal("read-only open did not recover the intact prefix")
	}
	if _, err := ro.PutDataset("a", testDataset(t, 4, 2)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("PutDataset on read-only store = %v, want ErrReadOnly", err)
	}
	if err := ro.PutModel("a", testModel("x", 1)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("PutModel on read-only store = %v, want ErrReadOnly", err)
	}
	if err := ro.Compact(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Compact on read-only store = %v, want ErrReadOnly", err)
	}
	if err := ro.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The reader left the torn tail exactly as found; only the next
	// writer truncates it.
	if got := len(ffs.files["data/wal"].data); got != tornLen {
		t.Fatalf("read-only open changed the wal: %d bytes, want %d", got, tornLen)
	}
	d2 := openFail(t, ffs)
	defer d2.Close()
	if got := len(ffs.files["data/wal"].data); got != tornLen-3 {
		t.Fatalf("writer reopen left %d wal bytes, want %d", got, tornLen-3)
	}
}

func TestDurableRejectsOversizedOp(t *testing.T) {
	ffs := NewFailFS()
	d := openFail(t, ffs)
	defer d.Close()
	if err := d.PutModel("a", testModel("small", 1)); err != nil {
		t.Fatal(err)
	}
	sizeBefore := d.walSize
	// Shrink the limit so the rejection path runs without gigabyte
	// payloads; production uses maxFrameSize.
	d.maxRecord = int(sizeBefore)
	err := d.PutModel("a", testModel("this cause name alone exceeds the tiny record limit", 1))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized PutModel = %v, want ErrTooLarge", err)
	}
	if d.walSize != sizeBefore {
		t.Fatalf("rejected op changed walSize from %d to %d", sizeBefore, d.walSize)
	}
	// The store stays healthy: small writes still commit and replay.
	if err := d.PutModel("a", testModel("ok", 1)); err != nil {
		t.Fatalf("write after rejected op: %v", err)
	}
	want := encodeState(d.mem)
	d.Close()
	d2 := openFail(t, ffs)
	defer d2.Close()
	if got := encodeState(d2.mem); !bytes.Equal(got, want) {
		t.Fatal("state diverged after an oversized op was rejected")
	}
	if models := d2.Models("a"); len(models) != 2 {
		t.Fatalf("Models after reopen = %+v, want the two accepted ones", models)
	}
}
