package ingest

import (
	"flag"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// soakDuration keeps the CI run short; `make soak SOAK=5m` raises it.
var soakDuration = flag.Duration("soak", 2*time.Second, "ingest soak test duration")

// TestIngestSoakFlatFootprint churns the registry — instances appear,
// stream rows, go silent, get evicted, reappear — for the soak duration
// and asserts the daemon's footprint stays flat: goroutine count must
// not grow with instance churn (the single-flight drain design means no
// goroutine per instance) and the heap must stay bounded (evicted
// window state is actually freed).
func TestIngestSoakFlatFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	clock := newFakeClock()
	r := New(Config{
		Shards:     16,
		WindowRows: 120,
		StaleAfter: 30 * time.Second,
		EvictAfter: time.Minute,
		Now:        clock.Now,
	})
	defer r.Close()

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	goroutinesBefore := runtime.NumGoroutine()

	const cohort = 200 // live instances per generation
	deadline := time.Now().Add(*soakDuration)
	gen := 0
	for time.Now().Before(deadline) {
		// One generation: a cohort of instances streams for a while...
		for round := 0; round < 5; round++ {
			for i := 0; i < cohort; i++ {
				name := fmt.Sprintf("g%d-db-%d", gen, i)
				start := int64(1000 + round*10)
				if err := r.Ingest("t", name, flatChunk(start, 10)); err != nil {
					t.Fatal(err)
				}
			}
			clock.Advance(10 * time.Second)
		}
		// ...then goes silent and is evicted before the next generation.
		clock.Advance(2 * time.Minute)
		if _, evicted := r.Sweep(); evicted != cohort {
			t.Fatalf("generation %d: evicted %d, want %d", gen, evicted, cohort)
		}
		gen++
	}
	if gen == 0 {
		t.Skip("soak duration too short for one generation")
	}

	if live := r.Stats().Instances; live != 0 {
		t.Fatalf("%d instances leaked across %d generations", live, gen)
	}
	goroutinesAfter := runtime.NumGoroutine()
	if goroutinesAfter > goroutinesBefore+3 {
		t.Fatalf("goroutines grew %d -> %d over %d generations of churn",
			goroutinesBefore, goroutinesAfter, gen)
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	// One cohort's window state is ~cohort * WindowRows * 2 attrs * 8B
	// plus stream bookkeeping; allow a generous 64 MiB envelope — the
	// failure mode being pinned is unbounded growth with generation
	// count, which would blow through this within a few generations.
	const envelope = 64 << 20
	if after.HeapAlloc > before.HeapAlloc+envelope {
		t.Fatalf("heap grew %d -> %d bytes over %d generations",
			before.HeapAlloc, after.HeapAlloc, gen)
	}
	t.Logf("soak: %d generations, goroutines %d->%d, heap %dKiB->%dKiB",
		gen, goroutinesBefore, goroutinesAfter, before.HeapAlloc>>10, after.HeapAlloc>>10)
}
