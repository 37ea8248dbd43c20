package experiments

import (
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"texcache/internal/raster"
)

// tinyScale keeps the race-detector regression test cheap: the point is
// exercising the worker pool's goroutine structure, not cache accuracy.
var tinyScale = Scale{Name: "tiny", Width: 32, Height: 24,
	VillageFrames: 2, CityFrames: 2, MallFrames: 2}

// racedPrefetches is how many times TestPrefetchRace runs the parallel
// prefetch. The race detector reports two unsynchronized accesses only
// when no synchronization the goroutines happen to share orders them in
// that run, so with one parallel prefetch the test missed a captured
// counter in 1 of 30 runs; with four it missed in none of 30.
const racedPrefetches = 4

// TestPrefetchRace drives the parallel runner with more workers than jobs
// so every job runs concurrently, racedPrefetches times; `go test -race`
// turns any unsynchronized sharing between the workers, the isolated
// contexts and the spawning loop into a failure. It then checks
// that collection is order-deterministic: two prefetched contexts must
// memoize identical keys and identical totals regardless of which
// goroutine finished first. Last, it checks that no Prefetch call leaves a
// goroutine behind, including one on an already-filled context, which has
// no jobs to run.
func TestPrefetchRace(t *testing.T) {
	run := func(parallel int) *Context {
		c := NewContext(tinyScale, io.Discard)
		if err := c.Prefetch(parallel); err != nil {
			t.Fatalf("Prefetch(%d): %v", parallel, err)
		}
		return c
	}
	before := runtime.NumGoroutine()
	a := run(16)
	for i := 1; i < racedPrefetches; i++ {
		run(16)
	}
	b := run(1)

	if len(a.statsRuns) != 3 || len(a.cmpRuns) != 6 {
		t.Fatalf("prefetch memoized %d stats runs and %d sweeps, want 3 and 6",
			len(a.statsRuns), len(a.cmpRuns))
	}
	for _, name := range []string{"village", "city", "mall"} {
		ra, rb := a.statsRuns[name], b.statsRuns[name]
		if ra == nil || rb == nil {
			t.Fatalf("%s: missing stats run", name)
		}
		if ra.Totals != rb.Totals {
			t.Errorf("%s: stats totals differ between parallel and sequential prefetch", name)
		}
		if a.workloads[name] == nil {
			t.Errorf("%s: workload not retained", name)
		}
		for _, mode := range []raster.SampleMode{raster.Bilinear, raster.Trilinear} {
			key := fmt.Sprintf("%s/%s", name, mode)
			ca, cb := a.cmpRuns[key], b.cmpRuns[key]
			if ca == nil || cb == nil {
				t.Fatalf("%s: missing sweep", key)
			}
			if len(ca.Results) != len(cb.Results) {
				t.Fatalf("%s: sweep lengths differ", key)
			}
			for i := range ca.Results {
				if ca.Results[i].Totals != cb.Results[i].Totals {
					t.Errorf("%s spec %d: totals differ between parallel and sequential prefetch", key, i)
				}
			}
		}
	}

	if err := a.Prefetch(16); err != nil {
		t.Fatalf("Prefetch on a filled context: %v", err)
	}
	// Workers exit just after their last deferred call; give them a moment.
	deadline := time.Now().Add(2 * time.Second)
	for n := runtime.NumGoroutine(); n > before; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("Prefetch leaked goroutines: %d running, %d before", n, before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
