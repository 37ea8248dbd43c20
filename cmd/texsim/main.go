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
// Without -sweep the flags' configuration runs on the exact engine as a
// sweep of one spec. With -sweep the workload is rendered once and every
// texel reference is fanned out to the canonical cache sweep (the same 13
// specs the experiment suite uses; -specs selects a comma-separated
// subset), and the cache flags (-l1, -l2mb, -l2tile, -policy, -tlb,
// -nosector) are usage errors:
//
//	texsim -workload city -sweep -specs pull-2k,l2-2m
//
// Telemetry and profiling:
//
//	-metrics run.jsonl   stream per-frame counters (JSONL, or CSV via .csv)
//	-manifest run.json   record config hash, environment, totals and the
//	                     per-phase timings of the run's textrace
//	-trace out.json      Chrome trace_event file — open it in Perfetto
//	                     (ui.perfetto.dev) or chrome://tracing; also prints
//	                     the aggregated phase report
//	-monitor addr        serve live JSON run snapshots over HTTP while the
//	                     run is in flight (GET /snapshot, GET /trace)
//	-cpuprofile cpu.pb   CPU profile; -memprofile heap.pb heap profile
//
//	texsim -workload village -sweep -metrics run.jsonl -manifest run.json
//	texsim -workload city -sweep -trace sweep.json
//	texsim -workload city -sweep -monitor localhost:8844
package main

import (
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
	"texcache/internal/stats"
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
	specsArg := fs.String("specs", "all", `comma-separated sweep spec names, or "all" (with -sweep)`)
	metricsPath := fs.String("metrics", "", "write the per-frame metric stream here (.csv = CSV, else JSONL)")
	manifestPath := fs.String("manifest", "", "write a run manifest (config hash, environment, totals, phases) here")
	tracePath := fs.String("trace", "",
		"write a Chrome trace_event file (Perfetto) here and print the phase report")
	monitorAddr := fs.String("monitor", "",
		"serve live run snapshots as JSON over HTTP on this address while running")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile here")
	memprofile := fs.String("memprofile", "", "write a heap profile here")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	w, err := workload.ByName(*wl)
	if err != nil {
		fmt.Fprintln(stderr, err)
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

	// A flag set on the command line that the run would ignore is a
	// usage error: the sweep's specs fix their own caches, and only a
	// sweep selects specs.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var specs []core.CacheSpec
	if *sweep {
		for _, name := range []string{"l1", "l2mb", "l2tile", "policy", "tlb", "nosector"} {
			if set[name] {
				fmt.Fprintf(stderr, "texsim: -%s does not apply to -sweep runs, whose specs set their own caches\n", name)
				return 2
			}
		}
		if specs, err = selectSpecs(*specsArg); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		if set["specs"] {
			fmt.Fprintln(stderr, "texsim: -specs only applies to -sweep runs")
			return 2
		}
		name := "pull"
		if cfg.L2 != nil {
			name = "l2"
		}
		specs = []core.CacheSpec{{Name: name, L1Bytes: cfg.L1Bytes, L2: cfg.L2, TLBEntries: cfg.TLBEntries}}
	}

	// Telemetry plumbing: the finished run's metric stream goes to
	// -metrics, totals accumulate for the manifest, and -trace, -monitor
	// and -manifest share one wall-clock textrace whose phase table rides
	// along in the manifest as sidecar data.
	var totals telemetry.Totals
	metrics := telemetry.Emitter(&totals)
	var closeMetrics func() error
	if *metricsPath != "" {
		sink, closeSink, err := telemetry.CreateMetrics(*metricsPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		metrics, closeMetrics = telemetry.Tee(&totals, sink), closeSink
	}
	if *tracePath != "" || *monitorAddr != "" || *manifestPath != "" {
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

	cmp, err := core.RunComparison(w, cfg, specs)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *sweep {
		core.EmitComparisonMetrics(metrics, cmp)
		reportSweep(stdout, w, cfg, specs, cmp)
	} else {
		// A single configuration's records carry no spec label.
		core.EmitMetrics(metrics, cmp.Results[0], "")
		report(stdout, w, cfg, cmp.Results[0])
	}
	simFrames := len(cmp.FramePixels)

	if closeMetrics != nil {
		if err := closeMetrics(); err != nil {
			fmt.Fprintln(stderr, "texsim: writing metrics:", err)
			return 1
		}
	}
	if *manifestPath != "" {
		if err := writeManifest(*manifestPath, w, cfg, specs, *sweep, simFrames, totals.T); err != nil {
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

// writeManifest records the run's identity: configuration fingerprint,
// environment, spec list, stream totals and the phase table of the run's
// textrace.
func writeManifest(path string, w *workload.Workload, cfg core.Config,
	specs []core.CacheSpec, sweep bool, frames int, totals telemetry.RunTotals) error {
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
	if rep := cfg.Trace.Report(); rep != nil {
		m.Phases = rep.Phases
	}

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

// reportSweep prints one compact row per swept spec.
func reportSweep(out io.Writer, w *workload.Workload, cfg core.Config, specs []core.CacheSpec, cmp *core.Comparison) {
	fmt.Fprintf(out, "workload %s: %d frames at %dx%d (%v)\n",
		w.Name, len(cmp.FramePixels), cfg.Width, cfg.Height, cfg.Mode)
	fmt.Fprintf(out, "%-10s %10s %10s %10s %14s\n",
		"spec", "L1 hit", "L2 full", "TLB hit", "host MB/frame")
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
		fmt.Fprintf(out, "%-10s %9.2f%% %10s %10s %14.3f\n",
			spec.Name, 100*t.L1.HitRate(), l2, tlb, res.AvgHostMBPerFrame())
	}
	reportWorkingSet(out, cmp.Results[0].Summary)
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

	reportWorkingSet(out, res.Summary)
}

// reportWorkingSet prints the §4 working-set statistics, if any were
// collected (-stats).
func reportWorkingSet(out io.Writer, s *stats.Summary) {
	if s == nil {
		return
	}
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
