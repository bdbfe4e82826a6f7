package store

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"dbsherlock/internal/causal"
	"dbsherlock/internal/core"
	"dbsherlock/internal/metrics"
)

// The crash matrix: randomized op sequences run against a Durable on a
// failpoint filesystem armed to cut power at a random byte offset, in
// both post-crash models (torn tail kept / unsynced bytes dropped).
// After every cut the directory is reopened and the recovered state
// must be byte-identical to an in-memory oracle that applied exactly
// the acknowledged ops.
//
// One op per trial can be ambiguous — the op whose own write tripped
// the cut. Its record may have reached the platter in full (the cut
// landed exactly on the frame boundary) even though the caller saw an
// error, which is the real-world fsync ambiguity. For that single op,
// and only that one, recovery may land on acked+1; anything else is a
// correctness bug.
//
// Compaction runs on a background goroutine. The deterministic
// batteries wait it out after every op (waitCompaction), so a seed
// always issues the same filesystem calls in the same order and the
// dry run's counts size the crash space; the concurrent battery does
// not wait, so its cuts land while snapshots are being written.

const (
	crashOps          = 40
	crashCompactEvery = 600 // tiny threshold so trials cross compaction constantly
)

// genOps builds a deterministic op sequence from a seed: uploads with
// NaN/Inf samples, model learns, deletes (some of missing ids), and
// bank replacements, spread over three tenants.
func genOps(rng *rand.Rand, n int) []*op {
	tenants := []string{"a", "b", "c"}
	causes := []string{"lock contention", "io saturation", "net slow", "workload spike"}
	ops := make([]*op, 0, n)
	for i := 0; i < n; i++ {
		tenant := tenants[rng.Intn(len(tenants))]
		switch k := rng.Intn(10); {
		case k < 5:
			ops = append(ops, &op{kind: opPutDataset, tenant: tenant, ds: genDataset(rng)})
		case k < 7:
			ops = append(ops, &op{kind: opPutModel, tenant: tenant, model: genModel(rng, causes[rng.Intn(len(causes))])})
		case k < 9:
			// Random id: deleting a missing one is a legal no-op and
			// must not log a record.
			id := "ds-" + strconv.Itoa(1+rng.Intn(8))
			ops = append(ops, &op{kind: opDeleteDataset, tenant: tenant, id: id})
		default:
			models := make([]*causal.Model, rng.Intn(3))
			for j := range models {
				models[j] = genModel(rng, causes[j])
			}
			ops = append(ops, &op{kind: opReplaceModels, tenant: tenant, models: models})
		}
	}
	return ops
}

func genDataset(rng *rand.Rand) *metrics.Dataset {
	rows := 2 + rng.Intn(3)
	times := make([]int64, rows)
	for i := range times {
		times[i] = int64(i+1) * 5
	}
	ds, err := metrics.NewDataset(times)
	if err != nil {
		panic(err)
	}
	num := make([]float64, rows)
	for i := range num {
		switch rng.Intn(8) {
		case 0:
			num[i] = math.NaN()
		case 1:
			num[i] = math.Inf(1 - 2*rng.Intn(2))
		default:
			num[i] = rng.NormFloat64() * 100
		}
	}
	if err := ds.AddNumeric("cpu", num); err != nil {
		panic(err)
	}
	cat := make([]string, rows)
	for i := range cat {
		cat[i] = "s" + strconv.Itoa(rng.Intn(3))
	}
	if err := ds.AddCategorical("mode", cat); err != nil {
		panic(err)
	}
	return ds
}

func genModel(rng *rand.Rand, cause string) *causal.Model {
	lo := rng.NormFloat64() * 50
	return &causal.Model{
		Cause:  cause,
		Merged: 1 + rng.Intn(5),
		Predicates: []core.Predicate{
			{Attr: "cpu", Type: metrics.Numeric, HasLower: true, Lower: lo, HasUpper: rng.Intn(2) == 0, Upper: lo + 100},
			{Attr: "mode", Type: metrics.Categorical, Categories: []string{"s" + strconv.Itoa(rng.Intn(3))}},
		},
		Remediations: []string{"inspect " + cause},
	}
}

// execOp runs one op against the durable store through its public
// surface, checking that ids allocate as the oracle predicts.
func execOp(t *testing.T, d *Durable, o *op) error {
	t.Helper()
	switch o.kind {
	case opPutDataset:
		id, err := d.PutDataset(o.tenant, o.ds)
		if err == nil && id != o.id {
			t.Fatalf("PutDataset allocated %q, oracle predicted %q", id, o.id)
		}
		return err
	case opDeleteDataset:
		_, err := d.DeleteDataset(o.tenant, o.id)
		return err
	case opPutModel:
		return d.PutModel(o.tenant, o.model)
	case opReplaceModels:
		return d.ReplaceModels(o.tenant, o.models)
	}
	t.Fatalf("unknown op kind %d", o.kind)
	return nil
}

// waitCompaction blocks until no compaction is in flight.
func waitCompaction(d *Durable) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.compacting {
		d.idle.Wait()
	}
}

// dryRun runs the sequence with no crash armed, verifies the clean
// close/reopen round trip, and returns the total bytes the sequence
// writes and the mutating filesystem calls it makes (the two crash
// spaces).
func dryRun(t *testing.T, seed int64) (bytesWritten int64, ops int) {
	t.Helper()
	ffs := NewFailFS()
	d, err := OpenDurable("data", WithFS(ffs), WithCompactEvery(crashCompactEvery))
	if err != nil {
		t.Fatalf("seed %d: open: %v", seed, err)
	}
	oracle := NewMemory()
	for _, o := range genOps(rand.New(rand.NewSource(seed)), crashOps) {
		if o.kind == opPutDataset {
			o.id = oracle.peekDatasetID(o.tenant)
		}
		if err := execOp(t, d, o); err != nil {
			t.Fatalf("seed %d: op failed with no crash armed: %v", seed, err)
		}
		waitCompaction(d)
		o.apply(oracle)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("seed %d: close: %v", seed, err)
	}
	d2, err := OpenDurable("data", WithFS(ffs))
	if err != nil {
		t.Fatalf("seed %d: clean reopen: %v", seed, err)
	}
	defer d2.Close()
	if !bytes.Equal(encodeState(d2.mem), encodeState(oracle)) {
		t.Fatalf("seed %d: clean round trip diverged from oracle", seed)
	}
	return ffs.BytesWritten(), ffs.OpsDone()
}

// crashCase is one trial: the op sequence, where the power cut lands,
// the post-crash model, and whether ops wait out each compaction.
type crashCase struct {
	seed       int64
	budget     int64 // cut after this many written bytes, unless atOp is set
	atOp       int   // > 0: cut at this mutating filesystem call instead
	drop       bool  // post-crash model: unsynced bytes are lost
	concurrent bool  // run ops without waiting for compactions
}

// crashLayout describes the data directory a cut left behind, before
// recovery touches it.
type crashLayout struct {
	segments    int  // WAL segment files
	withRecords int  // segments holding at least one intact record
	newestTorn  bool // a rotated-to segment's header is incomplete
	coveredLeft bool // the snapshot covers every record of a segment still present
	snapshotTmp bool // a snapshot write was cut short
}

func describeLayout(t *testing.T, post *FailFS, dir string) crashLayout {
	t.Helper()
	var l crashLayout
	var snapSeq uint64
	if n, ok := post.files[dir+"/"+snapName]; ok {
		_, seq, err := decodeSnapshot(n.data)
		if err != nil {
			t.Fatalf("post-crash snapshot is corrupt: %v", err)
		}
		snapSeq = seq
	}
	_, l.snapshotTmp = post.files[dir+"/"+snapName+tmpExt]
	newest, newestLen := -1, 0
	for name, n := range post.files {
		i, ok := segmentIndex(strings.TrimPrefix(name, dir+"/"))
		if !ok {
			continue
		}
		l.segments++
		if i > newest {
			newest, newestLen = i, len(n.data)
		}
		recs, _, err := replayWAL(n.data)
		if err != nil {
			t.Fatalf("post-crash %s: %v", name, err)
		}
		if len(recs) > 0 {
			l.withRecords++
			if snapSeq > 0 && recs[len(recs)-1].seq <= snapSeq {
				l.coveredLeft = true
			}
		}
	}
	l.newestTorn = newest > 0 && newestLen < len(walMagic)
	return l
}

// crashTrial cuts power as c says and asserts exact recovery. It
// returns the layout the cut left.
func crashTrial(t *testing.T, c crashCase) crashLayout {
	t.Helper()
	seed, budget, drop := c.seed, c.budget, c.drop
	ffs := NewFailFS()
	ffs.DropUnsynced(drop)
	if c.atOp > 0 {
		ffs.CrashAtOp(c.atOp)
		budget = -int64(c.atOp) // failure messages show an op cut as a negative budget
	} else {
		ffs.CrashAfterBytes(budget)
	}

	oracle := NewMemory()
	var ambiguous *op
	d, err := OpenDurable("data", WithFS(ffs), WithCompactEvery(crashCompactEvery))
	if err != nil {
		if !ffs.Crashed() {
			t.Fatalf("seed %d budget %d: open failed without a crash: %v", seed, budget, err)
		}
	} else {
		for _, o := range genOps(rand.New(rand.NewSource(seed)), crashOps) {
			if o.kind == opPutDataset {
				o.id = oracle.peekDatasetID(o.tenant)
			}
			crashedBefore := ffs.Crashed()
			err := execOp(t, d, o)
			if !c.concurrent {
				waitCompaction(d)
			}
			switch {
			case err == nil:
				o.apply(oracle)
			case !crashedBefore && ffs.Crashed():
				// This op's own I/O tripped the cut: its record may or
				// may not have completed on disk.
				ambiguous = o
			}
			if ffs.Crashed() {
				break
			}
		}
		if !ffs.Crashed() {
			if err := d.Close(); err != nil {
				t.Fatalf("seed %d budget %d: close: %v", seed, budget, err)
			}
		} else {
			// Join the compaction goroutine; on the dead disk the close
			// itself may fail.
			_ = d.Close()
		}
	}

	post := ffs.PostCrashFS()
	layout := describeLayout(t, post, "data")
	d2, err := OpenDurable("data", WithFS(post), WithCompactEvery(crashCompactEvery))
	if err != nil {
		t.Fatalf("seed %d budget %d drop=%v: recovery open failed: %v", seed, budget, drop, err)
	}
	defer d2.Close()
	got := encodeState(d2.mem)
	if want := encodeState(oracle); !bytes.Equal(got, want) {
		matched := false
		if ambiguous != nil {
			// The in-flight record completed on disk: recovery may
			// include exactly that one extra op.
			oracle2, err := decodeState(want)
			if err != nil {
				t.Fatalf("oracle state does not round-trip: %v", err)
			}
			ambiguous.apply(oracle2)
			matched = bytes.Equal(got, encodeState(oracle2))
		}
		if !matched {
			t.Fatalf("seed %d budget %d drop=%v: recovered state is not the acked prefix (±the in-flight op)",
				seed, budget, drop)
		}
	}

	// Recovery must leave a writable store: the torn tail is truly gone
	// from disk, not just skipped.
	if _, err := d2.PutDataset("post-recovery", genDataset(rand.New(rand.NewSource(seed)))); err != nil {
		t.Fatalf("seed %d budget %d drop=%v: write after recovery: %v", seed, budget, drop, err)
	}
	return layout
}

// TestCrashMatrix is the battery: ≥500 randomized crash points across
// append, compaction, and log rotation, in both post-crash models.
func TestCrashMatrix(t *testing.T) {
	seeds := []int64{101, 202}
	pointsPerSeed := 125
	if testing.Short() {
		pointsPerSeed = 15
	}
	trials := 0
	for _, drop := range []bool{false, true} {
		for _, seed := range seeds {
			total, _ := dryRun(t, seed)
			if total < 10*crashCompactEvery {
				t.Fatalf("seed %d writes only %d bytes; sequence too small to cross compaction", seed, total)
			}
			// The first bytes cover header creation and the very first
			// frames — crash there deterministically, then sample the
			// rest of the offset space at random.
			offRng := rand.New(rand.NewSource(seed * 7919))
			for i := 0; i < pointsPerSeed; i++ {
				var budget int64
				if i < 20 {
					budget = int64(i) // 0..19: creation and first-frame torn writes
				} else {
					budget = 1 + offRng.Int63n(total)
				}
				crashTrial(t, crashCase{seed: seed, budget: budget, drop: drop})
				trials++
			}
		}
	}
	if !testing.Short() && trials < 500 {
		t.Fatalf("battery ran only %d crash points, want >= 500", trials)
	}
}

// TestCrashBoundaries cuts power at every mutating filesystem call of
// each sequence, in both post-crash models: before and after each step
// of segment creation, of the snapshot write and publish, and of each
// covered segment's deletion. It asserts that the sweep reached the
// layouts those boundaries leave.
func TestCrashBoundaries(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 7
	}
	var torn, two, covered, midSnap, trials int
	for _, drop := range []bool{false, true} {
		for _, seed := range []int64{101, 202} {
			_, ops := dryRun(t, seed)
			for n := 1; n <= ops; n += stride {
				l := crashTrial(t, crashCase{seed: seed, atOp: n, drop: drop})
				trials++
				if l.newestTorn {
					torn++
				}
				if l.segments >= 2 {
					two++
				}
				if l.coveredLeft {
					covered++
				}
				if l.snapshotTmp {
					midSnap++
				}
			}
		}
	}
	t.Logf("%d cuts: %d in segment creation, %d with two live segments, %d with a published snapshot over undeleted segments, %d mid-snapshot",
		trials, torn, two, covered, midSnap)
	if torn == 0 || two == 0 || covered == 0 || midSnap == 0 {
		t.Fatal("the sweep missed a compaction boundary")
	}
}

// TestCrashMatrixConcurrent is the battery without the wait: commits
// run on while the compaction goroutine writes its snapshot, and the
// cut (at a random byte or a random filesystem call) lands wherever the
// interleaving puts it.
func TestCrashMatrixConcurrent(t *testing.T) {
	pointsPerSeed := 60
	if testing.Short() {
		pointsPerSeed = 10
	}
	var midSnap, twoWithRecords, trials int
	for _, drop := range []bool{false, true} {
		for _, seed := range []int64{101, 202} {
			total, ops := dryRun(t, seed)
			rng := rand.New(rand.NewSource(seed * 104729))
			for i := 0; i < pointsPerSeed; i++ {
				c := crashCase{seed: seed, drop: drop, concurrent: true}
				if i%2 == 0 {
					c.budget = 1 + rng.Int63n(total)
				} else {
					c.atOp = 1 + rng.Intn(ops)
				}
				l := crashTrial(t, c)
				trials++
				if l.snapshotTmp {
					midSnap++
				}
				if l.withRecords >= 2 {
					twoWithRecords++
				}
			}
		}
	}
	t.Logf("%d cuts: %d mid-snapshot, %d with records in two live segments", trials, midSnap, twoWithRecords)
	if midSnap == 0 {
		t.Fatal("no cut landed while a snapshot was being written")
	}
}
