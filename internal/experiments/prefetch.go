package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"texcache/internal/core"
	"texcache/internal/raster"
	"texcache/internal/workload"
)

// prefetchJob is one memoizable simulation run: a point-sampled statistics
// run (mode == nil) or a workload-by-filter cache sweep.
type prefetchJob struct {
	name string
	mode *raster.SampleMode
}

// prefetchResult is the outcome of one job, written by exactly one worker
// goroutine into its own slot.
type prefetchResult struct {
	stats *core.Results
	sweep *core.Comparison
	wl    *workload.Workload
	err   error
}

// Prefetch computes the memoized simulation runs that the experiments
// share — the three point-sampled statistics runs and the six
// workload-by-filter cache sweeps — concurrently, bounded by `parallel`
// goroutines (0 means GOMAXPROCS). Each run builds its own workload so the
// scenes never race, and each worker writes only its own result slot, so
// no locking is needed. The memo maps are filled after all workers finish,
// in job order: which workload instance and which error the context ends
// up with is a function of the job list alone, never of goroutine
// scheduling.
func (c *Context) Prefetch(parallel int) error {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	var jobs []prefetchJob
	for _, name := range []string{"village", "city", "mall"} {
		if _, ok := c.statsRuns[name]; !ok {
			jobs = append(jobs, prefetchJob{name: name})
		}
		for _, mode := range []raster.SampleMode{raster.Bilinear, raster.Trilinear} {
			if _, ok := c.cmpRuns[fmt.Sprintf("%s/%s", name, mode)]; !ok {
				jobs = append(jobs, prefetchJob{name: name, mode: &mode})
			}
		}
	}

	results := make([]prefetchResult, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, parallel)
	for i, job := range jobs {
		wg.Add(1)
		go func(i int, job prefetchJob) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// An isolated context computes the run against its own
			// workload instance (scene graphs are not goroutine-safe
			// to share across concurrent renders of different runs).
			iso := NewContext(c.Scale, c.Out)
			res := &results[i]
			if job.mode == nil {
				res.stats, res.err = iso.statsRun(job.name)
			} else {
				res.sweep, res.err = iso.sweep(job.name, *job.mode)
			}
			res.wl = iso.workloads[job.name]
		}(i, job)
	}
	wg.Wait()

	// Merge in job order so the surviving workload instance (and the
	// reported error) are deterministic regardless of completion order.
	var first error
	for i, job := range jobs {
		res := results[i]
		if res.err != nil {
			if first == nil {
				first = res.err
			}
			continue
		}
		// Emission rides the merge, not the workers: the isolated
		// contexts carry no emitter, so each prefetched run reaches the
		// metric stream exactly once, here, in job order.
		if job.mode == nil {
			c.statsRuns[job.name] = res.stats
			core.EmitMetrics(c.Metrics, res.stats, "")
		} else {
			key := fmt.Sprintf("%s/%s", job.name, *job.mode)
			c.cmpRuns[key] = res.sweep
			c.emitSweep(key, res.sweep)
		}
		if _, ok := c.workloads[job.name]; !ok && res.wl != nil {
			c.workloads[job.name] = res.wl
		}
	}
	return first
}
