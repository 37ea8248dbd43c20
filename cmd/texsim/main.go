// Command texsim runs one workload through one texture cache configuration
// and prints a transaction report: L1/L2 hit rates, host and local memory
// traffic, TLB behaviour, and working-set statistics.
//
// Examples:
//
//	texsim -workload village -l1 2048 -l2mb 2
//	texsim -workload city -mode bilinear -l2mb 0          # pull architecture
//	texsim -workload village -l2mb 4 -l2tile 32 -policy lru -zfirst
//
// With -sweep the workload is rendered once and every texel reference is
// fanned out to the canonical cache sweep (the same 13 specs the
// experiment suite uses; -specs selects a comma-separated subset):
//
//	texsim -workload city -sweep -specs pull-2k,l2-2m
//
// With -sweep -fast the replay collapses to one instrumented render: the
// analytic reuse model (internal/model/reusemodel) predicts every
// model-reachable spec's counters from the stream's sector-aware
// stack-distance profile, TLB statistics come from exact in-probe
// filters, and only specs outside the model's reach are replayed. The
// report marks modeled rows; exact sweeps run with -reuse additionally
// report the model's per-spec error:
//
//	texsim -workload city -sweep -fast
//
// Telemetry and profiling:
//
//	-metrics run.jsonl   stream per-frame counters (JSONL, or CSV via .csv)
//	-manifest run.json   record config hash, environment, totals and spans
//	-reuse hist.json     reuse-distance histogram over L2 block addresses
//	-trace out.json      Chrome trace_event file — open it in Perfetto
//	                     (ui.perfetto.dev) or chrome://tracing; also prints
//	                     the aggregated phase report
//	-monitor addr        serve live JSON run snapshots over HTTP while the
//	                     run is in flight (GET /snapshot, GET /trace)
//	-spans out.jsonl     write the texscope phase-span log (read it back with
//	                     tracetool spans)
//	-cpuprofile cpu.pb   CPU profile; -memprofile heap.pb heap profile
//
//	texsim -workload village -sweep -metrics run.jsonl -manifest run.json
//	texsim -workload city -sweep -trace sweep.json
//	texsim -workload city -sweep -monitor localhost:8844
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"texcache/internal/cache"
	"texcache/internal/core"
	"texcache/internal/experiments"
	"texcache/internal/raster"
	"texcache/internal/telemetry"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes reports to stdout and
// diagnostics to stderr, and returns the exit status — 2 for a usage
// error, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("texsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "village", "village | city | mall")
	width := fs.Int("width", 512, "screen width")
	height := fs.Int("height", 384, "screen height")
	frames := fs.Int("frames", 60, "frames to simulate (0 = paper scale)")
	mode := fs.String("mode", "trilinear", "point | bilinear | trilinear")
	l1 := fs.Int("l1", 2048, "L1 cache bytes")
	l2mb := fs.Int("l2mb", 2, "L2 cache MB (0 = pull architecture)")
	l2tile := fs.Int("l2tile", 16, "L2 tile edge texels (8 | 16 | 32)")
	policy := fs.String("policy", "clock", "clock | lru | random")
	tlb := fs.Int("tlb", 16, "TLB entries")
	zfirst := fs.Bool("zfirst", false, "depth test before texture access")
	nosector := fs.Bool("nosector", false, "disable sector mapping")
	stats := fs.Bool("stats", false, "collect working-set statistics")
	sweep := fs.Bool("sweep", false, "simulate the canonical cache sweep against one render of the workload")
	fast := fs.Bool("fast", false,
		"with -sweep: predict model-reachable specs analytically from one instrumented render")
	specsArg := fs.String("specs", "all", `comma-separated sweep spec names, or "all" (with -sweep)`)
	metricsPath := fs.String("metrics", "", "write the per-frame metric stream here (.csv = CSV, else JSONL)")
	manifestPath := fs.String("manifest", "", "write a run manifest (config hash, environment, totals, spans) here")
	reusePath := fs.String("reuse", "", "write a reuse-distance histogram over L2 block addresses here")
	tracePath := fs.String("trace", "",
		"write a Chrome trace_event file (Perfetto) here and print the phase report")
	monitorAddr := fs.String("monitor", "",
		"serve live run snapshots as JSON over HTTP on this address while running")
	spansPath := fs.String("spans", "", "write the texscope phase-span log (JSONL, for tracetool spans) here")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile here")
	memprofile := fs.String("memprofile", "", "write a heap profile here")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var w *workload.Workload
	switch *wl {
	case "village":
		w = workload.Village()
	case "city":
		w = workload.City()
	case "mall":
		w = workload.Mall()
	default:
		fmt.Fprintf(stderr, "unknown workload %q\n", *wl)
		return 2
	}

	cfg := core.Config{
		Width: *width, Height: *height, Frames: *frames,
		L1Bytes:        *l1,
		TLBEntries:     *tlb,
		ZBeforeTexture: *zfirst,
	}
	switch *mode {
	case "point":
		cfg.Mode = raster.Point
	case "bilinear":
		cfg.Mode = raster.Bilinear
	case "trilinear":
		cfg.Mode = raster.Trilinear
	default:
		fmt.Fprintf(stderr, "unknown mode %q\n", *mode)
		return 2
	}
	if *l2mb > 0 {
		var pol cache.PolicyKind
		switch *policy {
		case "clock":
			pol = cache.Clock
		case "lru":
			pol = cache.TrueLRU
		case "random":
			pol = cache.Random
		default:
			fmt.Fprintf(stderr, "unknown policy %q\n", *policy)
			return 2
		}
		cfg.L2 = &cache.L2Config{
			SizeBytes:       *l2mb << 20,
			Layout:          texture.TileLayout{L2Size: *l2tile, L1Size: 4},
			Policy:          pol,
			NoSectorMapping: *nosector,
		}
	}
	if *stats {
		cfg.StatLayouts = []texture.TileLayout{{L2Size: 16, L1Size: 4}}
	}
	cfg.CollectReuse = *reusePath != ""

	if *fast && !*sweep {
		fmt.Fprintln(stderr, "texsim: -fast only applies to -sweep runs")
		return 2
	}

	var specs []core.CacheSpec
	if *sweep {
		var err error
		if specs, err = selectSpecs(*specsArg); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	// Telemetry plumbing: the metric stream goes to -metrics, totals
	// accumulate for the manifest, and the manifest run gets a wall-clock
	// tracer whose spans ride along as sidecar data.
	var totals telemetry.Totals
	emitters := []telemetry.Emitter{&totals}
	var flushMetrics func() error
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		bw := bufio.NewWriter(f)
		var sink telemetry.Emitter
		var sinkErr func() error
		if strings.HasSuffix(*metricsPath, ".csv") {
			s := telemetry.NewCSV(bw)
			sink, sinkErr = s, s.Err
		} else {
			s := telemetry.NewJSONL(bw)
			sink, sinkErr = s, s.Err
		}
		emitters = append(emitters, sink)
		flushMetrics = func() error {
			if err := sinkErr(); err != nil {
				_ = f.Close()
				return err
			}
			if err := bw.Flush(); err != nil {
				_ = f.Close()
				return err
			}
			return f.Close()
		}
	}
	cfg.Metrics = telemetry.Tee(emitters...)
	if *manifestPath != "" || *spansPath != "" {
		cfg.Tracer = telemetry.NewTracer(telemetry.NewWallClock())
	}
	if *tracePath != "" || *monitorAddr != "" {
		cfg.Trace = telemetry.NewTrace(telemetry.NewWallClock())
	}
	if *monitorAddr != "" {
		monFrames := *frames
		if monFrames <= 0 {
			monFrames = w.Frames
		}
		stop, err := startMonitor(*monitorAddr, cfg.Trace, monFrames, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "texsim: monitor:", err)
			return 1
		}
		defer stop()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, err)
			}
			_ = f.Close()
		}()
	}

	var reuse *telemetry.ReuseHistogram
	var modelErrs []telemetry.SpecModelError
	simFrames := 0
	if *sweep {
		cfg.FastSweep = *fast
		cmp, err := core.RunComparison(w, cfg, specs)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		reportSweep(stdout, w, cfg, specs, cmp)
		reuse = cmp.Reuse
		modelErrs = cmp.ModelErrors()
		simFrames = len(cmp.FramePixels)
	} else {
		res, err := core.Run(w, cfg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		report(stdout, w, cfg, res)
		reuse = res.Reuse
		simFrames = len(res.Frames)
	}

	if flushMetrics != nil {
		if err := flushMetrics(); err != nil {
			fmt.Fprintln(stderr, "texsim: writing metrics:", err)
			return 1
		}
	}
	if *reusePath != "" {
		if err := writeReuse(*reusePath, reuse); err != nil {
			fmt.Fprintln(stderr, "texsim: writing reuse histogram:", err)
			return 1
		}
	}
	if *manifestPath != "" {
		if err := writeManifest(*manifestPath, w, cfg, specs, *sweep, simFrames, totals.T, modelErrs); err != nil {
			fmt.Fprintln(stderr, "texsim: writing manifest:", err)
			return 1
		}
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath, cfg.Trace, stdout); err != nil {
			fmt.Fprintln(stderr, "texsim: writing trace:", err)
			return 1
		}
	}
	if *spansPath != "" {
		if err := writeSpans(*spansPath, cfg.Tracer); err != nil {
			fmt.Fprintln(stderr, "texsim: writing spans:", err)
			return 1
		}
	}
	return 0
}

// startMonitor serves live run snapshots over HTTP until the returned
// stop function is called. Listening before returning means a caller
// that polls immediately after texsim prints the address never races
// the socket.
func startMonitor(addr string, tr *telemetry.Trace, frames int, stderr io.Writer) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: telemetry.NewMonitor(tr, frames)}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "texsim: monitor:", err)
		}
	}()
	fmt.Fprintf(stderr, "texsim: monitor listening on http://%s/\n", ln.Addr())
	return func() { _ = srv.Close() }, nil
}

// writeTrace exports the run's Chrome trace_event file and prints the
// aggregated phase report to out.
func writeTrace(path string, tr *telemetry.Trace, out io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\ntrace written to %s (open in Perfetto or chrome://tracing)\n", path)
	return tr.Report().WriteText(out)
}

// writeSpans writes the texscope phase-span log as JSONL, the shape
// tracetool spans reads back.
func writeSpans(path string, tr *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// selectSpecs resolves the -specs argument against the canonical sweep.
// An empty or unknown name is a usage error naming every valid spec, so a
// typo cannot silently sweep nothing.
func selectSpecs(arg string) ([]core.CacheSpec, error) {
	all := experiments.SweepSpecs()
	if strings.TrimSpace(arg) == "all" {
		return all, nil
	}
	valid := make([]string, 0, len(all))
	byName := make(map[string]core.CacheSpec, len(all))
	for _, s := range all {
		valid = append(valid, s.Name)
		byName[s.Name] = s
	}
	names := strings.Split(arg, ",")
	specs := make([]core.CacheSpec, 0, len(names))
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		s, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("texsim: unknown sweep spec %q; valid specs: %s",
				name, strings.Join(valid, ", "))
		}
		specs = append(specs, s)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("texsim: -specs selected no sweep specs; valid specs: %s",
			strings.Join(valid, ", "))
	}
	return specs, nil
}

// writeReuse writes the reuse-distance histogram artifact.
func writeReuse(path string, h *telemetry.ReuseHistogram) error {
	if h == nil {
		return fmt.Errorf("no histogram collected")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := h.WriteJSON(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// writeManifest records the run's identity: configuration fingerprint,
// environment, spec list, stream totals, any recorded phase spans, and —
// for sweeps with a reuse profile — the per-spec model report.
func writeManifest(path string, w *workload.Workload, cfg core.Config,
	specs []core.CacheSpec, sweep bool, frames int, totals telemetry.RunTotals,
	model []telemetry.SpecModelError) error {
	tool := "texsim"
	parts := []string{
		w.Name,
		fmt.Sprintf("%dx%d", cfg.Width, cfg.Height),
		fmt.Sprintf("frames=%d", frames),
		fmt.Sprintf("mode=%v", cfg.Mode),
		fmt.Sprintf("l1=%d", cfg.L1Bytes),
		fmt.Sprintf("tlb=%d", cfg.TLBEntries),
		fmt.Sprintf("zfirst=%v", cfg.ZBeforeTexture),
	}
	if cfg.L2 != nil {
		parts = append(parts, fmt.Sprintf("l2=%d/%d/%v/nosector=%v",
			cfg.L2.SizeBytes, cfg.L2.Layout.L2Size, cfg.L2.Policy, cfg.L2.NoSectorMapping))
	}
	m := telemetry.NewManifest(tool)
	if sweep {
		m.Tool = "texsim -sweep"
		for _, s := range specs {
			m.Specs = append(m.Specs, s.Name)
			parts = append(parts, "spec="+s.Name)
		}
	}
	m.ConfigHash = telemetry.ConfigHash(parts...)
	m.Workload = w.Name
	m.Frames = frames
	m.Totals = totals
	m.Spans = cfg.Tracer.Spans()
	m.Model = model

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// reportSweep prints one compact row per swept spec. When a reuse
// profile was collected, a trailing model column distinguishes modeled
// rows from exact replays and reports the per-spec model error where
// both sides exist.
func reportSweep(out io.Writer, w *workload.Workload, cfg core.Config, specs []core.CacheSpec, cmp *core.Comparison) {
	fmt.Fprintf(out, "workload %s: %d frames at %dx%d (%v)\n",
		w.Name, len(cmp.FramePixels), cfg.Width, cfg.Height, cfg.Mode)
	hasModel := len(cmp.Model) > 0
	fmt.Fprintf(out, "%-10s %10s %10s %10s %14s",
		"spec", "L1 hit", "L2 full", "TLB hit", "host MB/frame")
	if hasModel {
		fmt.Fprintf(out, "  %s", "model")
	}
	fmt.Fprintln(out)
	for i, spec := range specs {
		res := cmp.Results[i]
		t := res.Totals
		l2 := "-"
		tlb := "-"
		if spec.L2 != nil {
			l2 = fmt.Sprintf("%.2f%%", 100*t.L2.FullHitRate())
			if spec.TLBEntries > 0 {
				tlb = fmt.Sprintf("%.2f%%", 100*t.TLB.HitRate())
			}
		}
		fmt.Fprintf(out, "%-10s %9.2f%% %10s %10s %14.3f",
			spec.Name, 100*t.L1.HitRate(), l2, tlb, res.AvgHostMBPerFrame())
		if hasModel {
			fmt.Fprintf(out, "  %s", modelNote(cmp.Model[i]))
		}
		fmt.Fprintln(out)
	}
}

// modelNote summarizes one spec's standing with the analytic model.
func modelNote(m core.SpecModel) string {
	switch {
	case !m.Modeled:
		return "exact (" + m.Unreachable + ")"
	case m.HasExact:
		return fmt.Sprintf("err L1 %.2f%% / L2 %.2f%%",
			100*m.Err.L1AbsErr, 100*m.Err.L2AbsErr)
	default:
		return "modeled"
	}
}

func report(out io.Writer, w *workload.Workload, cfg core.Config, res *core.Results) {
	n := float64(len(res.Frames))
	t := res.Totals
	fmt.Fprintf(out, "workload %s: %d textures (%.1f MB host), %d triangles, %d frames at %dx%d (%v)\n",
		w.Name, w.Scene.Textures.Len(),
		float64(w.Scene.Textures.HostBytes())/(1<<20),
		w.Scene.TriangleCount(), len(res.Frames), cfg.Width, cfg.Height, cfg.Mode)

	fmt.Fprintf(out, "\nL1 cache (%d KB, 2-way, 64B lines):\n", cfg.L1Bytes/1024)
	fmt.Fprintf(out, "  accesses   %14d\n", t.L1.Accesses)
	fmt.Fprintf(out, "  hit rate   %14.2f%%\n", 100*t.L1.HitRate())

	if cfg.L2 != nil {
		fmt.Fprintf(out, "\nL2 cache (%d MB, %dx%d tiles, %s):\n",
			cfg.L2.SizeBytes>>20, cfg.L2.Layout.L2Size, cfg.L2.Layout.L2Size,
			cfg.L2.Policy)
		fmt.Fprintf(out, "  full hits  %14d (%.2f%%)\n", t.L2.FullHits, 100*t.L2.FullHitRate())
		fmt.Fprintf(out, "  partial    %14d (%.2f%%)\n", t.L2.PartialHits, 100*t.L2.PartialHitRate())
		fmt.Fprintf(out, "  misses     %14d\n", t.L2.FullMisses)
		fmt.Fprintf(out, "  evictions  %14d (max victim search %d)\n", t.L2.Evictions, t.L2.MaxSearch)
		if cfg.TLBEntries > 0 {
			fmt.Fprintf(out, "  TLB        %14.2f%% hit (%d entries)\n",
				100*t.TLB.HitRate(), cfg.TLBEntries)
		}
	} else {
		fmt.Fprintf(out, "\npull architecture (no L2)\n")
	}

	fmt.Fprintf(out, "\ntraffic per frame:\n")
	fmt.Fprintf(out, "  host (AGP)      %10.3f MB\n", float64(t.HostBytes)/n/(1<<20))
	fmt.Fprintf(out, "  L2 -> L1 fills  %10.3f MB\n", float64(t.L2ReadBytes)/n/(1<<20))
	fmt.Fprintf(out, "  host -> L2      %10.3f MB\n", float64(t.L2WriteBytes)/n/(1<<20))
	fmt.Fprintf(out, "  at 30 Hz, host bandwidth = %.1f MB/s\n",
		float64(t.HostBytes)/n*30/(1<<20))

	if res.Summary != nil {
		s := res.Summary
		fmt.Fprintf(out, "\nworking set (point of view of §4):\n")
		fmt.Fprintf(out, "  depth complexity  %6.2f\n", s.DepthComplexity)
		ls, ok := s.Layout(texture.TileLayout{L2Size: 16, L1Size: 4})
		if ok {
			fmt.Fprintf(out, "  16x16 blocks/frame %8.0f (%.2f MB), %.0f new (%.0f KB)\n",
				ls.AvgBlocks, ls.AvgBytes/(1<<20),
				ls.AvgNewBlocks, ls.AvgNewBytes/1024)
			fmt.Fprintf(out, "  block utilization  %8.2f\n", ls.Utilization)
		}
		fmt.Fprintf(out, "  min push memory    %8.2f MB avg, %.2f MB peak\n",
			s.AvgPushBytes/(1<<20), float64(s.MaxPushBytes)/(1<<20))
		var total int64
		for _, n := range s.LevelRefs {
			total += n
		}
		if total > 0 {
			fmt.Fprintf(out, "  MIP level histogram:\n")
			for m, refs := range s.LevelRefs {
				if refs > 0 {
					fmt.Fprintf(out, "    level %2d %6.1f%%\n",
						m, 100*float64(refs)/float64(total))
				}
			}
		}
	}
}
