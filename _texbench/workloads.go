package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"

	"texcache/internal/core"
	"texcache/internal/experiments"
	"texcache/internal/raster"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

// Scene names, as the golden file records them.
const (
	sceneVillage = "village"
	sceneCity    = "city"
)

// Workload names.
const (
	villageSweep = "village-sweep"
	cityReplay   = "city-replay"
	villageFast  = "village-fast"
)

var workloadNames = []string{villageSweep, cityReplay, villageFast}

func isWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// scale is the render scale of every input, with the fast engine's
// admitted error at that scale.
type scale struct {
	Width         int `json:"width"`
	Height        int `json:"height"`
	VillageFrames int `json:"village_frames"`
	CityFrames    int `json:"city_frames"`
	// ModelTolPP bounds the fast engine's error, in percentage points, on
	// the L1 hit rate and the L2 full-hit rate. The reuse model's error
	// grows on short streams, so the bound belongs to the scale.
	ModelTolPP float64 `json:"model_tol_pp"`
}

// benchScale is the experiments' bench scale — 256x192, 24 Village frames
// and 30 City frames — where TestModelErrorBound holds the reuse model to
// 2 pp.
func benchScale() scale {
	s := experiments.Bench()
	return scale{s.Width, s.Height, s.VillageFrames, s.CityFrames, 2}
}

// input is one benchmark input: a scene with its camera path sampled at
// the scale's frame count, its render configuration (default engine
// knobs) and the cache specs simulated on it.
type input struct {
	key    inputKey
	w      *workload.Workload
	render core.Config
	specs  []core.CacheSpec
}

// newInput builds a scene — procedural geometry and textures — and
// finishes the lazy set-up every engine otherwise does on its first
// operation: the scene's bounding spheres and the texture tilings of the
// canonical L1 layout and of every spec's L2 layout. The Village carries
// the paper's 13-spec sweep, the City the default spec alone.
func newInput(sceneName string, sc scale) (*input, error) {
	var w *workload.Workload
	var frames int
	var specs []core.CacheSpec
	switch sceneName {
	case sceneVillage:
		w, frames, specs = workload.Village(), sc.VillageFrames, experiments.SweepSpecs()
	case sceneCity:
		w, frames, specs = workload.City(), sc.CityFrames, []core.CacheSpec{defaultSpec()}
	default:
		return nil, fmt.Errorf("unknown scene %q", sceneName)
	}
	w.Scene.PrepareBounds()
	set := w.Scene.Textures
	if err := set.Prepare(texture.CanonicalL1()); err != nil {
		return nil, err
	}
	for _, s := range specs {
		if s.L2 != nil {
			layout := s.L2.Layout
			layout.L1Size = 4 // the engines pin the sub-block to the L1 tile
			if err := set.Prepare(layout); err != nil {
				return nil, err
			}
		}
	}
	return &input{
		key:    inputKey{Scene: sceneName, Width: sc.Width, Height: sc.Height, Frames: frames},
		w:      w,
		render: core.Config{Width: sc.Width, Height: sc.Height, Frames: frames, Mode: raster.Trilinear},
		specs:  specs,
	}, nil
}

// defaultSpec is core.DefaultConfig()'s cache — 2 KB L1, 2 MB clock L2 of
// 16x16 tiles, 16-entry TLB — under the sweep's name for it.
func defaultSpec() core.CacheSpec {
	d := core.DefaultConfig()
	return core.CacheSpec{Name: "l2-2m", L1Bytes: d.L1Bytes, L1Ways: d.L1Ways, L2: d.L2, TLBEntries: d.TLBEntries}
}

// replayConfig is the configuration a City trace is recorded and
// replayed under: DefaultConfig's cache at the input's resolution.
func replayConfig(in *input) core.Config {
	cfg := core.DefaultConfig()
	cfg.Width, cfg.Height, cfg.Frames = in.render.Width, in.render.Height, in.render.Frames
	return cfg
}

// recordTrace renders the input once into an in-memory trace.
func recordTrace(in *input) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := core.RecordTrace(in.w, replayConfig(in), &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// opOutput is one operation's output: every spec's results and the size
// of the rendered stream.
type opOutput struct {
	cmp          *core.Comparison // nil for a replay
	results      []*core.Results
	refs, pixels int64
}

// runComparison is one core.RunComparison over the input.
func runComparison(in *input, render core.Config) (opOutput, error) {
	cmp, err := core.RunComparison(in.w, render, in.specs)
	if err != nil {
		return opOutput{}, err
	}
	out := opOutput{cmp: cmp, results: cmp.Results, refs: cmp.Results[0].Totals.L1.Accesses}
	for _, p := range cmp.FramePixels {
		out.pixels += p
	}
	return out, nil
}

// replay is one core.ReplayTrace of a recorded stream.
func replay(in *input, data []byte, cfg core.Config) (opOutput, error) {
	res, err := core.ReplayTrace(bytes.NewReader(data), in.w.Scene.Textures, cfg)
	if err != nil {
		return opOutput{}, err
	}
	out := opOutput{results: []*core.Results{res}, refs: res.Totals.L1.Accesses}
	for _, f := range res.Frames {
		out.pixels += f.Pixels
	}
	return out, nil
}

// bench is one workload prepared for the timed loop.
type bench struct {
	in *input
	op func() (opOutput, error)
	// model marks the fast engine, whose counters are checked against
	// the model tolerance rather than for equality.
	model bool
}

// prepare is a workload's set-up: build the input and, for the City
// replay, record its trace.
func prepare(name string, sc scale) (*bench, error) {
	switch name {
	case villageSweep, villageFast:
		in, err := newInput(sceneVillage, sc)
		if err != nil {
			return nil, err
		}
		render := in.render
		render.FastSweep = name == villageFast
		return &bench{in: in, model: render.FastSweep, op: func() (opOutput, error) {
			return runComparison(in, render)
		}}, nil
	case cityReplay:
		in, err := newInput(sceneCity, sc)
		if err != nil {
			return nil, err
		}
		data, err := recordTrace(in)
		if err != nil {
			return nil, err
		}
		cfg := replayConfig(in)
		return &bench{in: in, op: func() (opOutput, error) {
			return replay(in, data, cfg)
		}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sample is one timed operation.
type sample struct {
	wall, cpu time.Duration
	alloc     uint64
	refs      int64
}

func (s sample) nsPerRef() float64    { return float64(s.wall.Nanoseconds()) / float64(s.refs) }
func (s sample) cpuNSPerRef() float64 { return float64(s.cpu.Nanoseconds()) / float64(s.refs) }

// timeOp runs op once on a collected heap and measures its wall time,
// the process's user+system CPU time and the bytes it allocated.
func timeOp(op func() (opOutput, error)) (sample, opOutput, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	out, err := op()
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	return sample{wall: wall, cpu: c1 - c0, alloc: m1.TotalAlloc - m0.TotalAlloc, refs: out.refs}, out, err
}

// rusage reads the process's resource usage; it fails only on a bad
// argument.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("texbench: getrusage: " + err.Error())
	}
	return ru
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set so far.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// Set-up repeats: at least minSetupReps builds and as many more as fit
// in setupBudget, up to maxSetupReps; setup_s is their median. A Village
// build takes well under a millisecond, so it needs many repeats to give
// a steady median; a City set-up records a whole trace and stops at the
// minimum.
const (
	minSetupReps = 5
	maxSetupReps = 200
	setupBudget  = 500 * time.Millisecond
)

// runWorkload is an untraced run: set-up, then operations back to back
// until seconds have passed (at least one), each checked against the
// oracle, then one fast-engine pass over the same input for
// fast_err_max_pct where the workload's own op is not the fast engine.
func runWorkload(name string, sc scale, golden goldenFile, seconds float64, log io.Writer) (result, []streamTotals, error) {
	var b *bench
	var setup []float64
	var spent time.Duration
	for len(setup) < minSetupReps || (spent < setupBudget && len(setup) < maxSetupReps) {
		b = nil // let the collection below reclaim the previous build
		runtime.GC()
		t0 := time.Now()
		nb, err := prepare(name, sc)
		d := time.Since(t0)
		if err != nil {
			return result{}, nil, err
		}
		setup = append(setup, d.Seconds())
		spent += d
		b = nb
	}
	want, err := oracle(golden, b.in)
	if err != nil {
		return result{}, nil, err
	}

	var res result
	check := func(out opOutput, model bool) float64 {
		res.Attempted++
		var failed int
		var errPP float64
		var why string
		if model {
			failed, errPP, why = checkModel(want, out.results, sc.ModelTolPP)
		} else {
			failed, why = checkExact(want, totals(out.results))
		}
		if failed > 0 {
			res.Failed++
			fmt.Fprintf(log, "texbench: %s: output check failed on %d specs: %s\n", name, failed, why)
		}
		return errPP
	}

	var samples []sample
	var last opOutput
	var errPP float64
	start := time.Now()
	for res.Attempted == 0 || time.Since(start).Seconds() < seconds {
		s, out, err := timeOp(b.op)
		if err != nil {
			res.Attempted++
			res.Failed++
			fmt.Fprintf(log, "texbench: %s: op failed: %v\n", name, err)
			continue
		}
		errPP = check(out, b.model)
		samples = append(samples, s)
		last = out
		fmt.Fprintf(log, "texbench: %s op %d: %.3f s wall, %.3f s cpu, %.2f MB allocated\n",
			name, len(samples), s.wall.Seconds(), s.cpu.Seconds(), float64(s.alloc)/(1<<20))
	}
	if len(samples) == 0 {
		return result{}, nil, fmt.Errorf("every op failed")
	}
	if !b.model {
		render := b.in.render
		render.FastSweep = true
		out, err := runComparison(b.in, render)
		if err != nil {
			return result{}, nil, fmt.Errorf("fast engine: %w", err)
		}
		errPP = check(out, true)
	}
	res.Correct = res.Failed == 0

	rps := make([]float64, len(samples))
	cpu := make([]float64, len(samples))
	alloc := make([]float64, len(samples))
	for i, s := range samples {
		rps[i] = float64(s.refs) / s.wall.Seconds()
		cpu[i] = s.cpuNSPerRef()
		alloc[i] = float64(s.alloc) / (1 << 20)
	}
	rss := peakRSSMB()
	res.Metrics = map[string]metric{
		"setup_s":          {median(setup), "s"},
		"refs_per_s":       {median(rps), "1/s"},
		"cpu_ns_per_ref":   {median(cpu), "ns"},
		"alloc_mb":         {median(alloc), "MB"},
		"peak_rss_mb":      {rss, "MB"},
		"fast_err_max_pct": {errPP, "pp"},
	}

	fmt.Fprintf(log, "texbench: %s %+v: %d ops checked, %d failed (error_rate %.3g)\n",
		name, b.in.key, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	summaryRow(log, "setup_s", "s", setup)
	summaryRow(log, "refs_per_s", "1/s", rps)
	summaryRow(log, "cpu_ns_per_ref", "ns", cpu)
	summaryRow(log, "alloc_mb", "MB", alloc)
	summaryRow(log, "peak_rss_mb", "MB", []float64{rss})
	summaryRow(log, "fast_err_max_pct", "pp", []float64{errPP})
	return res, []streamTotals{streamOf(name, b.in.specs, last)}, nil
}
