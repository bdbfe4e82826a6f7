package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path"
	"slices"
	"strings"
	"sync"
	"time"

	"dbsherlock/internal/causal"
	"dbsherlock/internal/metrics"
)

// File names inside the data directory. The WAL is one or more segment
// files (segmentName) and there is at most one current snapshot; *.tmp
// files are in-flight compaction output, ignored and removed on open.
const (
	walName  = "wal"
	snapName = "snapshot"
	lockName = "lock"
	tmpExt   = ".tmp"
)

// DefaultCompactBytes is the number of bytes appended to the WAL since
// its last rotation that triggers snapshot compaction.
const DefaultCompactBytes = 4 << 20

// Durable is the persistent Store backend: a Memory store as the
// materialized state plus a write-ahead log. Every mutation is
// CRC-framed, appended, and fsync'd before it is applied and
// acknowledged, so an acknowledged write survives a power cut and an
// unacknowledged one disappears cleanly at replay (the torn tail is
// truncated). When the open log segment outgrows the compaction
// threshold, the commit that crossed it rotates the log to a fresh
// segment and takes a pointer image of the state; a background
// goroutine then writes that image to an atomically renamed snapshot
// and deletes the segments it covers. Replay loads the snapshot and
// skips the records it already covers.
//
// A Durable is safe for concurrent use: reads go straight to the
// materialized state, writes serialize on the log. After a log failure
// that cannot be rolled back, reads keep working and every write
// returns an error wrapping ErrUnavailable — the store refuses to let
// memory diverge silently from disk.
//
// The data directory is single-writer: OpenDurable takes an exclusive
// advisory lock on a lock file inside it, OpenDurableReadOnly a shared
// one, so a CLI pointed at a live daemon's -data-dir fails fast with
// ErrLocked instead of interleaving appends or truncating the daemon's
// in-flight record as a torn tail.
type Durable struct {
	mu           sync.Mutex
	idle         sync.Cond // on mu; broadcast when a compaction finishes
	fs           FS
	dir          string
	mem          *Memory
	wal          File // append handle on the open segment
	lock         io.Closer
	segIndex     int             // index of the open segment
	walSize      int64           // bytes in the open segment
	sealed       []sealedSegment // closed segments still on disk, oldest first
	compacting   bool            // rotated; the snapshot is not yet recorded
	seq          uint64
	snapSize     int64
	syncWrites   bool
	readOnly     bool
	compactBytes int64
	maxRecord    int      // largest accepted encoded op payload
	obs          Observer // optional instrumentation; nil = off
	failed       error    // first unrecoverable log error; nil while healthy
	closed       bool
}

// sealedSegment is a closed WAL segment that no published snapshot has
// yet made redundant (or whose deletion failed).
type sealedSegment struct {
	index int
	size  int64
}

var _ Store = (*Durable)(nil)

// DurableOption configures OpenDurable.
type DurableOption func(*Durable)

// WithFS substitutes the filesystem (the crash battery injects a
// FailFS). Default: the real one.
func WithFS(fsys FS) DurableOption {
	return func(d *Durable) { d.fs = fsys }
}

// WithCompactEvery sets the number of WAL bytes since the last rotation
// that triggers snapshot compaction; n <= 0 keeps the default (4 MiB).
func WithCompactEvery(n int64) DurableOption {
	return func(d *Durable) {
		if n > 0 {
			d.compactBytes = n
		}
	}
}

// WithSyncWrites toggles the per-commit fsync. Leaving it on (the
// default) is the durability contract; turning it off trades the
// crash guarantee for throughput (benchmarks, bulk loads) — Close
// still syncs.
func WithSyncWrites(on bool) DurableOption {
	return func(d *Durable) { d.syncWrites = on }
}

// OpenDurable opens (creating if needed) a durable store rooted at
// dir: it takes the directory's exclusive lock, loads the newest
// snapshot, replays the intact prefix of the WAL segments over it,
// truncates any torn tail, and is then ready to serve.
func OpenDurable(dir string, opts ...DurableOption) (*Durable, error) {
	return openDurable(dir, false, opts)
}

// OpenDurableReadOnly opens the store for reading only: it takes a
// shared lock (so concurrent readers coexist but a writer excludes
// them and vice versa), replays the intact prefix in memory, and never
// initializes, truncates, or appends to any file. Every write returns
// ErrReadOnly. This is the open path for diagnosis against a directory
// a daemon may own.
func OpenDurableReadOnly(dir string, opts ...DurableOption) (*Durable, error) {
	return openDurable(dir, true, opts)
}

func openDurable(dir string, readOnly bool, opts []DurableOption) (*Durable, error) {
	d := &Durable{
		fs:           OSFS{},
		dir:          dir,
		mem:          NewMemory(),
		syncWrites:   true,
		readOnly:     readOnly,
		compactBytes: DefaultCompactBytes,
		maxRecord:    maxFrameSize,
	}
	d.idle.L = &d.mu
	for _, opt := range opts {
		opt(d)
	}
	if err := d.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create data dir: %w", err)
	}
	lock, err := d.fs.Lock(d.path(lockName), !readOnly)
	if err != nil {
		if errors.Is(err, ErrLocked) {
			return nil, fmt.Errorf("%w (%s)", ErrLocked, dir)
		}
		return nil, fmt.Errorf("store: lock data dir: %w", err)
	}
	d.lock = lock
	if err := d.load(); err != nil {
		_ = lock.Close()
		return nil, err
	}
	return d, nil
}

// load recovers the materialized state under the already-held lock and
// (read-write only) prepares the newest WAL segment for appending.
func (d *Durable) load() error {
	replayStart := time.Now()
	if !d.readOnly {
		d.removeTemps()
	}

	// Snapshot first: it defines the floor sequence number.
	var snapSeq uint64
	snapData, err := d.readFile(d.path(snapName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// First boot, or compaction has never run.
	case err != nil:
		return fmt.Errorf("store: read snapshot: %w", err)
	default:
		mem, seq, err := decodeSnapshot(snapData)
		if err != nil {
			return fmt.Errorf("store: %s is corrupt: %w", d.path(snapName), err)
		}
		d.mem, snapSeq = mem, seq
		d.snapSize = int64(len(snapData))
	}
	d.seq = snapSeq

	// Replay the log's intact prefix, segment by segment.
	segs, err := d.readSegments()
	if err != nil {
		return err
	}
	recs, goodSizes, err := replaySegments(segs)
	if err != nil {
		return err
	}
	applied := 0
	for _, rec := range recs {
		if rec.seq <= snapSeq {
			continue // already folded into the snapshot
		}
		rec.op.apply(d.mem)
		d.seq = rec.seq
		applied++
	}
	var scanned, torn int64
	for i, s := range segs {
		scanned += int64(len(s.data))
		torn += int64(len(s.data)) - goodSizes[i]
	}
	if d.obs != nil {
		d.obs.ObserveReplay(time.Since(replayStart), applied, scanned+d.snapSize)
		if torn > 0 {
			d.obs.ObserveTornTail(torn)
		}
		d.obs.SetSnapshotSize(d.snapSize)
		d.obs.SetReadOnly(d.readOnly)
	}
	if d.readOnly {
		// Readers serve the intact prefix and leave the files exactly as
		// found — a torn tail is the owner's to truncate.
		for _, s := range segs {
			d.sealed = append(d.sealed, sealedSegment{index: s.index, size: int64(len(s.data))})
		}
		if d.obs != nil {
			d.obs.SetWALState(d.walBytesLocked(), d.seq)
		}
		return nil
	}
	if len(segs) == 0 {
		segs, goodSizes = []segment{{index: 0}}, []int64{0}
	}
	last := len(segs) - 1
	for i, good := range goodSizes {
		name := d.path(segmentName(segs[i].index))
		switch {
		case i == last && good < int64(len(walMagic)):
			// Missing file, or a crash mid-creation tore the header: start
			// the segment afresh.
			if err := d.writeFileSync(name, walMagic); err != nil {
				return fmt.Errorf("store: initialize wal: %w", err)
			}
			goodSizes[i] = int64(len(walMagic))
		case good < int64(len(segs[i].data)):
			if err := d.truncateSync(name, good); err != nil {
				return fmt.Errorf("store: truncate torn wal tail: %w", err)
			}
		}
		if i < last {
			d.sealed = append(d.sealed, sealedSegment{index: segs[i].index, size: goodSizes[i]})
		}
	}
	wal, err := d.fs.OpenFile(d.path(segmentName(segs[last].index)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open wal for append: %w", err)
	}
	d.wal = wal
	d.segIndex = segs[last].index
	d.walSize = goodSizes[last]
	if d.obs != nil {
		d.obs.SetWALState(d.walBytesLocked(), d.seq)
	}
	return nil
}

// readSegments reads every WAL segment in the data directory, oldest
// first.
func (d *Durable) readSegments() ([]segment, error) {
	entries, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("store: list data dir: %w", err)
	}
	var indexes []int
	for _, e := range entries {
		if i, ok := segmentIndex(e.Name()); ok {
			indexes = append(indexes, i)
		}
	}
	slices.Sort(indexes)
	segs := make([]segment, len(indexes))
	for k, i := range indexes {
		data, err := d.readFile(d.path(segmentName(i)))
		if err != nil {
			return nil, fmt.Errorf("store: read %s: %w", segmentName(i), err)
		}
		segs[k] = segment{index: i, data: data}
	}
	return segs, nil
}

// walBytesLocked is the log's size on disk: every live segment, which
// is what a restart would replay. Caller holds mu.
func (d *Durable) walBytesLocked() int64 {
	n := d.walSize
	for _, s := range d.sealed {
		n += s.size
	}
	return n
}

func (d *Durable) path(name string) string { return path.Join(d.dir, name) }

// removeTemps clears in-flight compaction leftovers; best-effort.
func (d *Durable) removeTemps() {
	entries, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpExt) {
			_ = d.fs.Remove(d.path(e.Name()))
		}
	}
}

func (d *Durable) readFile(name string) ([]byte, error) {
	f, err := d.fs.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// writeFileSync (re)creates a file with the given contents, fsync'd.
func (d *Durable) writeFileSync(name string, data []byte) error {
	f, err := d.fs.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (d *Durable) truncateSync(name string, size int64) error {
	f, err := d.fs.OpenFile(name, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commit is the single write path: frame the op under the next
// sequence number, append, fsync, and only then apply it to the
// materialized state. The op is therefore either durable and visible,
// or neither.
func (d *Durable) commit(o *op) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.writableLocked(); err != nil {
		return err
	}
	return d.commitLocked(o)
}

func (d *Durable) writableLocked() error {
	if d.closed {
		return ErrClosed
	}
	if d.readOnly {
		return ErrReadOnly
	}
	if d.failed != nil {
		return fmt.Errorf("%w: log failed earlier: %v", ErrUnavailable, d.failed)
	}
	return nil
}

func (d *Durable) commitLocked(o *op) error {
	frame := encodeWALRecord(d.seq+1, o)
	// Replay treats any frame longer than maxFrameSize as a torn tail,
	// so appending one would be acknowledged now and silently discarded
	// (with every later record) on the next open. Refuse it up front; a
	// payload past 4 GiB would additionally overflow the u32 length
	// word.
	if payload := len(frame) - frameHeaderSize; payload > d.maxRecord {
		if d.obs != nil {
			d.obs.ObserveTooLarge()
		}
		return fmt.Errorf("%w: op encodes to %d bytes (limit %d)", ErrTooLarge, payload, d.maxRecord)
	}
	var writeStart time.Time
	if d.obs != nil {
		writeStart = time.Now()
	}
	if _, err := d.wal.Write(frame); err != nil {
		return d.rollbackAppend(err)
	}
	var syncDur time.Duration
	if d.syncWrites {
		var syncStart time.Time
		if d.obs != nil {
			syncStart = time.Now()
		}
		if err := d.wal.Sync(); err != nil {
			return d.rollbackAppend(err)
		}
		if d.obs != nil {
			syncDur = time.Since(syncStart)
		}
	}
	d.seq++
	d.walSize += int64(len(frame))
	o.apply(d.mem)
	if d.obs != nil {
		d.obs.ObserveAppend(time.Since(writeStart)-syncDur, syncDur, len(frame))
		d.obs.ObserveCommit(o.tenant, opName(o.kind))
		d.obs.SetWALState(d.walBytesLocked(), d.seq)
	}
	if d.walSize >= d.compactBytes && !d.compacting {
		// Compaction failure is not a commit failure: the record above is
		// durable, and a failed rotation or snapshot leaves the log as it
		// was, correct and writable.
		if c, err := d.rotateLocked(); err == nil {
			// The outcome reaches the observer; Close waits for the goroutine.
			go func() { _ = d.compact(c) }()
		}
	}
	return nil
}

// rollbackAppend tries to cut the log back to the last committed
// record after a failed append. If the rollback itself fails the log
// position is unknowable and the store stops accepting writes.
func (d *Durable) rollbackAppend(cause error) error {
	if err := d.wal.Truncate(d.walSize); err != nil {
		d.failed = fmt.Errorf("append failed (%v) and rollback truncate failed (%v)", cause, err)
	} else if err := d.wal.Sync(); err != nil {
		d.failed = fmt.Errorf("append failed (%v) and rollback sync failed (%v)", cause, err)
	}
	if d.obs != nil {
		d.obs.ObserveRollback()
		if d.failed != nil {
			// The double failure latched the store read-only.
			d.obs.SetReadOnly(true)
		}
	}
	return fmt.Errorf("%w: append: %v", ErrUnavailable, cause)
}

// Compact forces snapshot compaction regardless of the WAL size. It
// waits for any compaction already in flight, then rotates and writes
// the snapshot on the caller's goroutine.
func (d *Durable) Compact() error {
	d.mu.Lock()
	for d.compacting {
		d.idle.Wait()
	}
	if err := d.writableLocked(); err != nil {
		d.mu.Unlock()
		return err
	}
	c, err := d.rotateLocked()
	d.mu.Unlock()
	if err != nil {
		return err
	}
	return d.compact(c)
}

// compaction is one snapshot in flight: the image of the state at seq
// and the sealed segments whose records the snapshot covers.
type compaction struct {
	seq     uint64
	image   *Memory
	covered []sealedSegment
	start   time.Time
}

// rotateLocked is the part of compaction that runs under the lock: seal
// the open segment, create, fsync and open the next one, and take the
// image of the state as of the seal. The new append handle opens before
// the old one closes, so no failure here can leave the store without
// one: a failed rotation keeps appending to the old segment. On success
// the store is marked compacting until compact finishes with the
// returned job. A failed rotation is reported as a failed compaction.
func (d *Durable) rotateLocked() (*compaction, error) {
	start := time.Now()
	next, err := d.openNextSegment()
	if err != nil {
		if d.obs != nil {
			d.obs.ObserveCompaction(time.Since(start), d.snapSize, err)
		}
		return nil, err
	}
	// The sealed segment's bytes are already durable (synced per commit
	// or by openNextSegment), so a failed close loses nothing.
	_ = d.wal.Close()
	d.sealed = append(d.sealed, sealedSegment{index: d.segIndex, size: d.walSize})
	d.wal = next
	d.segIndex++
	d.walSize = int64(len(walMagic))
	d.compacting = true
	if d.obs != nil {
		d.obs.SetWALState(d.walBytesLocked(), d.seq)
	}
	return &compaction{seq: d.seq, image: d.mem.image(), covered: slices.Clone(d.sealed), start: start}, nil
}

// openNextSegment makes the open segment durable, then creates segment
// segIndex+1 holding just the magic, fsyncs it and the directory, and
// returns it open for append. A segment is always fsync'd before its
// successor exists, which is what lets replay treat a torn frame as the
// end of the whole log.
func (d *Durable) openNextSegment() (File, error) {
	if !d.syncWrites {
		if err := d.wal.Sync(); err != nil {
			return nil, fmt.Errorf("store: sync wal before rotation: %w", err)
		}
	}
	name := d.path(segmentName(d.segIndex + 1))
	if err := d.writeFileSync(name, walMagic); err != nil {
		_ = d.fs.Remove(name)
		return nil, fmt.Errorf("store: create wal segment: %w", err)
	}
	if err := d.fs.SyncDir(d.dir); err != nil {
		_ = d.fs.Remove(name)
		return nil, fmt.Errorf("store: sync data dir: %w", err)
	}
	f, err := d.fs.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		_ = d.fs.Remove(name)
		return nil, fmt.Errorf("store: open wal segment: %w", err)
	}
	return f, nil
}

// compact is the part of compaction that runs outside the lock: encode
// the image, write snapshot.tmp, fsync, rename it over the snapshot,
// fsync the directory, and delete the covered segments oldest first.
// Then, under the lock, it records the outcome and clears the
// in-flight mark. A crash or failure anywhere leaves a correct log:
// until the rename the old snapshot and every segment are intact, and
// after it replay skips the records of any covered segment left behind;
// the next compaction deletes those.
func (d *Durable) compact(c *compaction) error {
	size, err := d.writeSnapshot(c)
	published := err == nil
	removed := 0
	if published {
		for _, s := range c.covered {
			if rerr := d.fs.Remove(d.path(segmentName(s.index))); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
				err = fmt.Errorf("store: delete compacted wal segment: %w", rerr)
				break
			}
			removed++
		}
	}
	elapsed := time.Since(c.start)

	d.mu.Lock()
	defer d.mu.Unlock()
	if published {
		// The deleted segments are the front of the sealed list: no
		// rotation runs while a compaction is in flight.
		d.snapSize = size
		d.sealed = d.sealed[removed:]
	}
	d.compacting = false
	d.idle.Broadcast()
	if d.obs != nil {
		d.obs.ObserveCompaction(elapsed, d.snapSize, err)
		d.obs.SetSnapshotSize(d.snapSize)
		d.obs.SetWALState(d.walBytesLocked(), d.seq)
	}
	return err
}

// writeSnapshot encodes the image and publishes it as the snapshot,
// returning its size.
func (d *Durable) writeSnapshot(c *compaction) (int64, error) {
	img := encodeSnapshot(c.seq, c.image)
	// A snapshot frame past the replay limit would make the store
	// unopenable; keep the (growing but correct) log instead.
	if payload := len(img) - len(snapMagic) - frameHeaderSize; payload > maxFrameSize {
		return 0, fmt.Errorf("store: snapshot payload of %d bytes exceeds the %d-byte frame limit", payload, maxFrameSize)
	}
	snapTmp := d.path(snapName + tmpExt)
	if err := d.writeFileSync(snapTmp, img); err != nil {
		_ = d.fs.Remove(snapTmp)
		return 0, fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := d.fs.Rename(snapTmp, d.path(snapName)); err != nil {
		_ = d.fs.Remove(snapTmp)
		return 0, fmt.Errorf("store: publish snapshot: %w", err)
	}
	if err := d.fs.SyncDir(d.dir); err != nil {
		return 0, fmt.Errorf("store: sync data dir: %w", err)
	}
	return int64(len(img)), nil
}

// PutDataset implements Store.
func (d *Durable) PutDataset(tenant string, ds *metrics.Dataset) (string, error) {
	if err := ValidTenant(tenant); err != nil {
		return "", err
	}
	if ds == nil {
		return "", fmt.Errorf("store: nil dataset")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.writableLocked(); err != nil {
		return "", err
	}
	// The id is derived inside the same critical section that commits
	// the record, so concurrent uploads cannot collide.
	id := d.mem.peekDatasetID(tenant)
	if err := d.commitLocked(&op{kind: opPutDataset, tenant: tenant, id: id, ds: ds}); err != nil {
		return "", err
	}
	return id, nil
}

// GetDataset implements Store.
func (d *Durable) GetDataset(tenant, id string) (*metrics.Dataset, bool) {
	return d.mem.GetDataset(tenant, id)
}

// Datasets implements Store.
func (d *Durable) Datasets(tenant string) []DatasetInfo { return d.mem.Datasets(tenant) }

// DeleteDataset implements Store.
func (d *Durable) DeleteDataset(tenant, id string) (bool, error) {
	if err := ValidTenant(tenant); err != nil {
		return false, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.writableLocked(); err != nil {
		return false, err
	}
	// Existence is checked inside the critical section so a concurrent
	// delete cannot double-log the op.
	if _, ok := d.mem.GetDataset(tenant, id); !ok {
		return false, nil
	}
	if err := d.commitLocked(&op{kind: opDeleteDataset, tenant: tenant, id: id}); err != nil {
		return false, err
	}
	return true, nil
}

// PutModel implements Store.
func (d *Durable) PutModel(tenant string, m *causal.Model) error {
	if err := ValidTenant(tenant); err != nil {
		return err
	}
	if err := validateModel(m); err != nil {
		return err
	}
	return d.commit(&op{kind: opPutModel, tenant: tenant, model: m.Clone()})
}

// Models implements Store.
func (d *Durable) Models(tenant string) []*causal.Model { return d.mem.Models(tenant) }

// ReplaceModels implements Store.
func (d *Durable) ReplaceModels(tenant string, models []*causal.Model) error {
	if err := ValidTenant(tenant); err != nil {
		return err
	}
	cp := make([]*causal.Model, len(models))
	for i, m := range models {
		if err := validateModel(m); err != nil {
			return err
		}
		cp[i] = m.Clone()
	}
	return d.commit(&op{kind: opReplaceModels, tenant: tenant, models: cp})
}

// Tenants implements Store.
func (d *Durable) Tenants() []string { return d.mem.Tenants() }

// Health implements HealthReporter: the memory backend's counts plus
// this backend's log state. ReadOnly covers both the read-only open
// mode and the latch a double log failure sets; Err carries the first
// unrecoverable error so a readiness probe can say *why* writes are
// refused, not just that they are.
func (d *Durable) Health() Health {
	h := d.mem.Health()
	d.mu.Lock()
	defer d.mu.Unlock()
	h.Backend = "durable"
	h.ReadOnly = d.readOnly || d.failed != nil
	if d.failed != nil {
		h.Err = d.failed.Error()
	}
	h.WALBytes = d.walBytesLocked()
	h.WALSequence = d.seq
	h.SnapshotBytes = d.snapSize
	return h
}

// Close implements Store: wait for an in-flight compaction, flush the
// log, release the handle, and drop the directory lock. The store is
// unusable afterwards.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	for d.compacting {
		d.idle.Wait()
	}
	var err error
	if d.wal != nil {
		if d.failed == nil && !d.syncWrites {
			err = d.wal.Sync()
		}
		if cerr := d.wal.Close(); err == nil {
			err = cerr
		}
	}
	if d.lock != nil {
		if lerr := d.lock.Close(); err == nil {
			err = lerr
		}
	}
	return err
}
