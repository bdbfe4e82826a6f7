package store

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"sync"
	"time"
)

// FailFS is an in-memory filesystem with failpoints, the harness that
// carries this package's durability claim. It models a power cut as a
// byte budget: once CrashAfterBytes bytes have been written (across
// the WAL and snapshot files), the write that crosses the budget is
// truncated at the boundary — a torn record at an arbitrary byte
// offset — and every subsequent operation fails with ErrCrashed, like
// a kernel that lost its disk. The test then reopens the directory
// through PostCrashFS, which exposes what a real disk would hold after
// the cut:
//
//   - KeepTorn (default false ⇒ used when DropUnsynced is false): every
//     byte handed to write(2) before the cut survives, including the
//     torn tail of the in-flight record.
//   - DropUnsynced: each file rolls back to its length at the last
//     successful Sync, modeling a volatile write cache that lost
//     everything fsync had not yet forced down.
//
// CrashAtOp arms the cut by operation count instead: the nth call that
// can change what the disk holds (a create or truncating open, Write,
// Sync, Truncate, Rename, Remove, SyncDir) fails with ErrCrashed before
// it takes effect, so a sweep over n cuts power between every pair of
// consecutive operations, including those that write no bytes.
//
// Renames and removes are modeled as atomic and immediately durable
// (the backend additionally fsyncs the directory on the real
// filesystem; FailFS does not model directory-entry loss). Sync and
// Rename calls can also be made to fail outright via FailSyncAfter /
// FailRenameAfter to exercise the error paths without a crash.
type FailFS struct {
	mu    sync.Mutex
	files map[string]*memNode
	locks map[string]*memLock

	// CrashAfterBytes arms the power cut: the budget of bytes that may
	// still be written. Negative = disarmed.
	crashBudget int64
	crashAtOp   int // cut power at this mutating call (1-based); 0 = off
	crashed     bool
	dropUnsync  bool
	written     int64 // cumulative bytes handed to Write
	ops         int   // mutating calls so far

	failSyncAfter   int // fail the Nth Sync call (1-based); 0 = off
	failSyncFrom    int // fail every Sync call from the Nth on (1-based); 0 = off
	failRenameAfter int // fail the Nth Rename call (1-based); 0 = off
	syncCalls       int
	renameCalls     int
}

// ErrCrashed is returned by every FailFS operation after the simulated
// power cut.
var ErrCrashed = errors.New("failfs: simulated power cut")

// ErrInjected is returned by operations failed via FailSyncAfter /
// FailRenameAfter.
var ErrInjected = errors.New("failfs: injected I/O error")

type memNode struct {
	data   []byte
	synced int // length at last successful Sync
}

// memLock models flock state on one lock file: at most one exclusive
// holder, or any number of shared ones.
type memLock struct {
	excl    bool
	readers int
}

// NewFailFS returns an empty in-memory filesystem with all failpoints
// disarmed.
func NewFailFS() *FailFS {
	return &FailFS{
		files:       make(map[string]*memNode),
		locks:       make(map[string]*memLock),
		crashBudget: -1,
	}
}

var _ FS = (*FailFS)(nil)

// CrashAfterBytes arms the power cut n bytes of writes from now.
func (f *FailFS) CrashAfterBytes(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashBudget = n
}

// CrashAtOp arms the power cut at the nth (1-based) mutating call from
// now; 0 disarms.
func (f *FailFS) CrashAtOp(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAtOp = n
	if n > 0 {
		f.crashAtOp += f.ops
	}
}

// DropUnsynced selects the harsher post-crash model: bytes not covered
// by a successful Sync are lost.
func (f *FailFS) DropUnsynced(drop bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropUnsync = drop
}

// FailSyncAfter makes the nth (1-based) future Sync call fail with
// ErrInjected; 0 disables.
func (f *FailFS) FailSyncAfter(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failSyncAfter = n
	f.syncCalls = 0
}

// FailSyncFrom makes every Sync call from the nth (1-based) on fail
// with ErrInjected — a disk that died and stays dead; 0 disables.
func (f *FailFS) FailSyncFrom(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failSyncFrom = n
	f.syncCalls = 0
}

// FailRenameAfter makes the nth (1-based) future Rename call fail with
// ErrInjected; 0 disables.
func (f *FailFS) FailRenameAfter(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failRenameAfter = n
	f.renameCalls = 0
}

// BytesWritten reports the cumulative bytes accepted by Write across
// all files; a dry run uses it to size the crash-offset space.
func (f *FailFS) BytesWritten() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.written
}

// OpsDone reports the mutating calls made so far; a dry run uses it to
// size the CrashAtOp space.
func (f *FailFS) OpsDone() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the power cut has fired.
func (f *FailFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// PostCrashFS returns a fresh, failpoint-free filesystem holding what
// stable storage would contain after the cut, for the recovery reopen.
func (f *FailFS) PostCrashFS() *FailFS {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := NewFailFS()
	for name, n := range f.files {
		data := n.data
		if f.dropUnsync && n.synced < len(data) {
			data = data[:n.synced]
		}
		cp := make([]byte, len(data))
		copy(cp, data)
		out.files[name] = &memNode{data: cp, synced: len(cp)}
	}
	return out
}

func norm(name string) string { return path.Clean(strings.ReplaceAll(name, "\\", "/")) }

// checkAlive reports the crash error once the budget has fired. Caller
// holds mu.
func (f *FailFS) checkAlive() error {
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

// mutate counts one call that can change what the disk holds and fires
// the CrashAtOp cut when this is the armed call; the call must then
// fail without effect. Caller holds mu.
func (f *FailFS) mutate() error {
	if err := f.checkAlive(); err != nil {
		return err
	}
	f.ops++
	if f.crashAtOp > 0 && f.ops == f.crashAtOp {
		f.crashed = true
		return ErrCrashed
	}
	return nil
}

type failFile struct {
	fs     *FailFS
	name   string
	node   *memNode
	off    int // read offset
	append bool
	wronly bool
	rdonly bool
	closed bool
}

// OpenFile implements FS.
func (f *FailFS) OpenFile(name string, flag int, _ fs.FileMode) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkAlive(); err != nil {
		return nil, err
	}
	name = norm(name)
	node, ok := f.files[name]
	if (!ok && flag&os.O_CREATE != 0) || (ok && flag&os.O_TRUNC != 0) {
		if err := f.mutate(); err != nil {
			return nil, err
		}
	}
	switch {
	case !ok && flag&os.O_CREATE == 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	case !ok:
		node = &memNode{}
		f.files[name] = node
	case flag&os.O_TRUNC != 0:
		node.data = node.data[:0]
		node.synced = 0
	}
	return &failFile{
		fs:     f,
		name:   name,
		node:   node,
		append: flag&os.O_APPEND != 0,
		wronly: flag&os.O_WRONLY != 0,
		rdonly: flag&(os.O_WRONLY|os.O_RDWR) == 0,
	}, nil
}

func (ff *failFile) Read(p []byte) (int, error) {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if err := ff.fs.checkAlive(); err != nil {
		return 0, err
	}
	if ff.closed || ff.wronly {
		return 0, fs.ErrInvalid
	}
	if ff.off >= len(ff.node.data) {
		return 0, io.EOF
	}
	n := copy(p, ff.node.data[ff.off:])
	ff.off += n
	return n, nil
}

func (ff *failFile) Write(p []byte) (int, error) {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if err := ff.fs.mutate(); err != nil {
		return 0, err
	}
	if ff.closed || ff.rdonly {
		return 0, fs.ErrInvalid
	}
	n := len(p)
	short := false
	if ff.fs.crashBudget >= 0 && int64(n) >= ff.fs.crashBudget {
		// The power cut lands inside this write: the prefix that fit in
		// the budget reaches the platter, the rest is gone, and the
		// machine is dead from here on.
		n = int(ff.fs.crashBudget)
		ff.fs.crashed = true
		short = true
	} else if ff.fs.crashBudget >= 0 {
		ff.fs.crashBudget -= int64(n)
	}
	if !ff.append {
		// The backend only ever appends or rewrites whole files opened
		// with O_TRUNC, so a plain write is an append at the data end.
		ff.append = true
	}
	ff.node.data = append(ff.node.data, p[:n]...)
	ff.fs.written += int64(n)
	if short {
		return n, ErrCrashed
	}
	return n, nil
}

func (ff *failFile) Sync() error {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if err := ff.fs.mutate(); err != nil {
		return err
	}
	ff.fs.syncCalls++
	if ff.fs.syncShouldFail() {
		return ErrInjected
	}
	ff.node.synced = len(ff.node.data)
	return nil
}

// syncShouldFail evaluates the sync failpoints; caller holds mu and has
// already counted the call.
func (f *FailFS) syncShouldFail() bool {
	if f.failSyncAfter > 0 && f.syncCalls == f.failSyncAfter {
		return true
	}
	return f.failSyncFrom > 0 && f.syncCalls >= f.failSyncFrom
}

func (ff *failFile) Truncate(size int64) error {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if err := ff.fs.mutate(); err != nil {
		return err
	}
	if size < 0 || size > int64(len(ff.node.data)) {
		return fs.ErrInvalid
	}
	ff.node.data = ff.node.data[:size]
	if ff.node.synced > int(size) {
		ff.node.synced = int(size)
	}
	return nil
}

func (ff *failFile) Size() (int64, error) {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if err := ff.fs.checkAlive(); err != nil {
		return 0, err
	}
	return int64(len(ff.node.data)), nil
}

func (ff *failFile) Close() error {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	ff.closed = true
	return nil
}

// Rename implements FS. Renames are atomic and (in this model)
// immediately durable.
func (f *FailFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.mutate(); err != nil {
		return err
	}
	f.renameCalls++
	if f.failRenameAfter > 0 && f.renameCalls == f.failRenameAfter {
		return ErrInjected
	}
	oldpath, newpath = norm(oldpath), norm(newpath)
	node, ok := f.files[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(f.files, oldpath)
	f.files[newpath] = node
	return nil
}

// Remove implements FS.
func (f *FailFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.mutate(); err != nil {
		return err
	}
	name = norm(name)
	if _, ok := f.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(f.files, name)
	return nil
}

// ReadDir implements FS.
func (f *FailFS) ReadDir(name string) ([]fs.DirEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkAlive(); err != nil {
		return nil, err
	}
	prefix := norm(name)
	if prefix != "." && !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	var names []string
	for p := range f.files {
		if prefix == "./" || prefix == "." || strings.HasPrefix(p, prefix) {
			rest := strings.TrimPrefix(p, prefix)
			if rest != "" && !strings.Contains(rest, "/") {
				names = append(names, rest)
			}
		}
	}
	sort.Strings(names)
	out := make([]fs.DirEntry, len(names))
	for i, n := range names {
		out[i] = memDirEntry(n)
	}
	return out, nil
}

// Lock implements FS. Lock state lives outside the file map and is
// not copied by PostCrashFS: like flock(2), locks die with the holding
// process, so a recovery reopen never finds a stale lock.
func (f *FailFS) Lock(name string, exclusive bool) (io.Closer, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkAlive(); err != nil {
		return nil, err
	}
	name = norm(name)
	l := f.locks[name]
	if l == nil {
		l = &memLock{}
		f.locks[name] = l
	}
	if l.excl || (exclusive && l.readers > 0) {
		return nil, ErrLocked
	}
	if exclusive {
		l.excl = true
	} else {
		l.readers++
	}
	return &memLockHandle{fs: f, lock: l, excl: exclusive}, nil
}

// memLockHandle releases one acquisition; idempotent, and it works
// even after the simulated crash (a dead process drops its locks).
type memLockHandle struct {
	fs       *FailFS
	lock     *memLock
	excl     bool
	released bool
}

func (h *memLockHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.released {
		return nil
	}
	h.released = true
	if h.excl {
		h.lock.excl = false
	} else {
		h.lock.readers--
	}
	return nil
}

// MkdirAll implements FS; directories are implicit in this model.
func (f *FailFS) MkdirAll(string, fs.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.checkAlive()
}

// SyncDir implements FS; renames are already durable in this model.
func (f *FailFS) SyncDir(string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.mutate(); err != nil {
		return err
	}
	f.syncCalls++
	if f.syncShouldFail() {
		return ErrInjected
	}
	return nil
}

type memDirEntry string

func (e memDirEntry) Name() string               { return string(e) }
func (e memDirEntry) IsDir() bool                { return false }
func (e memDirEntry) Type() fs.FileMode          { return 0 }
func (e memDirEntry) Info() (fs.FileInfo, error) { return memFileInfo(e), nil }

type memFileInfo string

func (i memFileInfo) Name() string       { return string(i) }
func (i memFileInfo) Size() int64        { return 0 }
func (i memFileInfo) Mode() fs.FileMode  { return 0 }
func (i memFileInfo) ModTime() time.Time { return time.Time{} }
func (i memFileInfo) IsDir() bool        { return false }
func (i memFileInfo) Sys() any           { return nil }
