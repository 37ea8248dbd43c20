// Command benchjson runs the sweep benchmarks exactly once each
// and writes a machine-readable BENCH_sweep.json: per-benchmark wall time
// and allocation counts plus a run manifest, so CI can archive comparable
// performance artifacts per commit without parsing `go test -bench`
// output. One iteration is deliberate — the full 13-spec Village sweep is
// long enough to be a stable single-shot sample in CI, and the artifact
// records the environment needed to compare runs honestly.
//
// Usage:
//
//	benchjson                          # writes BENCH_sweep.json
//	benchjson -o out.json
//	benchjson -diff BENCH_baseline.json
//
// With -diff, the run is additionally compared against a previously
// written report: any benchmark whose ns/op, allocs/op or bytes/op
// regresses by more than 25% against its same-named baseline entry fails
// the run (exit status 1), which is how CI gates performance — wall time
// catches slowdowns, allocation count catches hot-path allocations that
// a noisy timer would hide, and allocated bytes catch buffer-growth
// blowups that keep the allocation count flat. Benchmarks present on
// only one side are reported but never fail the gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"texcache/internal/core"
	"texcache/internal/experiments"
	"texcache/internal/raster"
	"texcache/internal/telemetry"
	"texcache/internal/texture"
	"texcache/internal/vecmath"
	"texcache/internal/workload"
)

// regressionLimit is the per-metric ratio (new/old) above which -diff
// fails; it applies to ns/op and allocs/op alike.
const regressionLimit = 1.25

// benchResult is one benchmark's single-iteration sample.
type benchResult struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	Frames      int    `json:"frames"`
	Specs       int    `json:"specs"`
}

// report is the artifact document.
type report struct {
	Benchmarks []benchResult      `json:"benchmarks"`
	Manifest   telemetry.Manifest `json:"manifest"`
}

func main() {
	os.Exit(run())
}

func run() int {
	out := flag.String("o", "BENCH_sweep.json", "output path")
	diff := flag.String("diff", "", "baseline report to compare against; >25% ns/op, allocs/op or bytes/op regressions fail the run")
	flag.Parse()

	scale := experiments.Bench()
	render := core.Config{
		Width:  scale.Width,
		Height: scale.Height,
		Frames: scale.VillageFrames,
		Mode:   raster.Trilinear,
	}
	specs := experiments.SweepSpecs()

	// Mirror bench_test.go's sweep benchmarks: the exact engine and the
	// analytic -fast engine (one instrumented render, no replay).
	cases := []struct {
		name string
		fast bool
	}{
		{"SweepSerial", false},
		{"SweepFast", true},
	}

	clock := telemetry.NewWallClock()
	rep := report{Manifest: telemetry.NewManifest("benchjson")}
	rep.Manifest.Workload = "village"
	rep.Manifest.Frames = render.Frames
	parts := []string{
		"village",
		fmt.Sprintf("%dx%d", render.Width, render.Height),
		fmt.Sprintf("frames=%d", render.Frames),
	}
	for _, s := range specs {
		rep.Manifest.Specs = append(rep.Manifest.Specs, s.Name)
		parts = append(parts, "spec="+s.Name)
	}
	rep.Manifest.ConfigHash = telemetry.ConfigHash(parts...)

	for _, bc := range cases {
		cfg := render
		cfg.FastSweep = bc.fast

		// Quiesce the heap so alloc deltas attribute to the run alone.
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := clock.Now()
		cmp, err := core.RunComparison(workload.Village(), cfg, specs)
		elapsed := clock.Now() - start
		runtime.ReadMemStats(&after)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", bc.name, err)
			return 1
		}
		rep.Benchmarks = append(rep.Benchmarks, benchResult{
			Name:        bc.name,
			NsPerOp:     elapsed,
			AllocsPerOp: int64(after.Mallocs - before.Mallocs),
			BytesPerOp:  int64(after.TotalAlloc - before.TotalAlloc),
			Frames:      len(cmp.FramePixels),
			Specs:       len(cmp.Results),
		})
		fmt.Fprintf(os.Stderr, "benchjson: %-25s %12d ns/op %12d allocs/op\n",
			bc.name, elapsed, after.Mallocs-before.Mallocs)
	}

	fill, err := rasterizerFill(clock)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	rep.Benchmarks = append(rep.Benchmarks, fill)
	fmt.Fprintf(os.Stderr, "benchjson: %-25s %12d ns/op %12d allocs/op\n",
		fill.Name, fill.NsPerOp, fill.AllocsPerOp)

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		_ = f.Close()
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s\n", *out)

	if *diff != "" {
		return diffReports(*diff, rep)
	}
	return 0
}

// rasterizerFill is the per-texel hot-path sample: repeated textured quad
// fills (two triangles covering a 256x256 target under trilinear
// filtering) through the devirtualized trace sink, averaged over enough
// iterations to be a stable single-shot measurement.
func rasterizerFill(clock *telemetry.WallClock) (benchResult, error) {
	const iters = 32
	r, err := raster.New(raster.Config{Width: 256, Height: 256, Mode: raster.Trilinear})
	if err != nil {
		return benchResult{}, err
	}
	var texels int64
	r.SetSink(raster.SinkFunc(func(tid texture.ID, u, v, m int) { texels++ }))
	tex, err := texture.New("t", 256, 256, texture.RGBA8888, nil)
	if err != nil {
		return benchResult{}, err
	}
	quad := benchQuad()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := clock.Now()
	for i := 0; i < iters; i++ {
		r.BeginFrame()
		for _, tri := range quad {
			r.DrawTriangle(tex, tri[0], tri[1], tri[2], 1)
		}
	}
	elapsed := clock.Now() - start
	runtime.ReadMemStats(&after)
	return benchResult{
		Name:        "RasterizerFill",
		NsPerOp:     elapsed / iters,
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / iters,
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / iters,
		Frames:      iters,
	}, nil
}

func benchQuad() [2][3]raster.Vertex {
	mk := func(x, y, u, v float64) raster.Vertex {
		return raster.Vertex{
			Pos: vecmath.Vec4{X: x, Y: y, Z: 0, W: 1},
			UV:  vecmath.Vec2{X: u, Y: v},
		}
	}
	bl := mk(-1, -1, 0, 1)
	br := mk(1, -1, 1, 1)
	tl := mk(-1, 1, 0, 0)
	tr := mk(1, 1, 1, 0)
	return [2][3]raster.Vertex{{tl, bl, br}, {tl, br, tr}}
}

// diffMetrics are the gated per-benchmark figures, in reporting order.
// A metric with a zero or negative baseline value is reported but not
// gated — a baseline with no recorded allocations cannot regress.
var diffMetrics = []struct {
	name string
	get  func(benchResult) int64
}{
	{"ns/op", func(b benchResult) int64 { return b.NsPerOp }},
	{"allocs/op", func(b benchResult) int64 { return b.AllocsPerOp }},
	{"bytes/op", func(b benchResult) int64 { return b.BytesPerOp }},
}

// diffReports compares the fresh report against a baseline artifact and
// fails (exit 1) when any gated metric of a same-named benchmark
// regresses beyond regressionLimit.
func diffReports(path string, cur report) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: diff:", err)
		return 1
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: diff: parsing %s: %v\n", path, err)
		return 1
	}
	return diffAgainst(os.Stderr, path, base, cur)
}

// diffAgainst is the comparison core behind -diff, split from the file
// handling so tests can drive it with synthetic reports. Output order is
// deterministic: current benchmarks in report order with one line per
// metric, then baseline-only leftovers sorted by name.
func diffAgainst(w io.Writer, path string, base, cur report) int {
	baseline := make(map[string]benchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}

	regressed := make(map[string]bool)
	for _, b := range cur.Benchmarks {
		old, ok := baseline[b.Name]
		if !ok {
			fmt.Fprintf(w, "benchjson: diff: %s: not in baseline, skipping\n", b.Name)
			continue
		}
		delete(baseline, b.Name)
		for _, m := range diffMetrics {
			was, now := m.get(old), m.get(b)
			if was <= 0 {
				fmt.Fprintf(w, "benchjson: diff: %s: baseline %s %d, skipping\n", b.Name, m.name, was)
				continue
			}
			ratio := float64(now) / float64(was)
			verdict := "ok"
			if ratio > regressionLimit {
				verdict = "REGRESSION"
				regressed[m.name] = true
			}
			fmt.Fprintf(w, "benchjson: diff: %-25s %12d -> %12d %s (%.2fx) %s\n",
				b.Name, was, now, m.name, ratio, verdict)
		}
	}
	leftovers := make([]string, 0, len(baseline))
	for name := range baseline {
		leftovers = append(leftovers, name)
	}
	sort.Strings(leftovers)
	for _, name := range leftovers {
		fmt.Fprintf(w, "benchjson: diff: %s: in baseline only, skipping\n", name)
	}
	if len(regressed) > 0 {
		for _, m := range diffMetrics {
			if regressed[m.name] {
				fmt.Fprintf(w, "benchjson: diff: %s regressed beyond %.0f%% against %s\n",
					m.name, 100*(regressionLimit-1), path)
			}
		}
		return 1
	}
	fmt.Fprintf(w, "benchjson: diff: within %.0f%% of %s\n", 100*(regressionLimit-1), path)
	return 0
}
