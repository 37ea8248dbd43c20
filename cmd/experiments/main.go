// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp all                # every experiment, reduced scale
//	experiments -exp table3 -scale full # one experiment at paper scale
//	experiments -exp list               # list experiment ids
//
// Scales: bench (256x192, fastest), reduced (512x384, default), full
// (1024x768 over the paper's 411/525 frames; slow).
//
// Telemetry and profiling: -metrics streams one record per simulated
// frame and cache configuration of every memoized run and ablation
// (JSONL, or CSV when the path ends in .csv); the push experiment's runs
// have no cache counters and are left out. -manifest records the run's
// configuration hash, environment, the workload labels and frames that
// reached the stream, and its totals; -cpuprofile / -memprofile write
// pprof profiles.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"texcache/internal/experiments"
	"texcache/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errWriter keeps the first error its writer returns. The experiments
// print their tables without checking each write, so run checks this
// after every experiment and fails instead of losing a table.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

// run is the whole command: it parses args, writes tables to stdout (or
// -o) and diagnostics to stderr, and returns the exit status — 2 for a
// usage error, 1 for a failed run or a table that could not be written.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id, 'all', or 'list'")
	scaleName := fs.String("scale", "reduced", "bench | reduced | full")
	out := fs.String("o", "", "write output to file instead of stdout")
	parallel := fs.Int("parallel", 0,
		"with -exp all: simulation runs to prefetch concurrently (0 = GOMAXPROCS, -1 = no prefetch)")
	csvDir := fs.String("csv", "", "also export per-frame figure series as CSV into this directory")
	metricsPath := fs.String("metrics", "",
		"write the per-frame metric stream of every cache run here (.csv = CSV, else JSONL); push runs have no cache counters and are left out")
	manifestPath := fs.String("manifest", "", "write a run manifest (config hash, environment, totals) here")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile here")
	memprofile := fs.String("memprofile", "", "write a heap profile here")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *exp == "list" {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var scale experiments.Scale
	switch *scaleName {
	case "bench":
		scale = experiments.Bench()
	case "reduced":
		scale = experiments.Reduced()
	case "full":
		scale = experiments.Full()
	default:
		fmt.Fprintf(stderr, "unknown scale %q\n", *scaleName)
		return 2
	}

	todo := experiments.All()
	if *exp != "all" {
		e, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q; try -exp list\n", *exp)
			return 2
		}
		todo = []experiments.Experiment{e}
	}

	w := &errWriter{w: stdout}
	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer func() { _ = f.Close() }() // for the early returns; success closes and checks below
		outFile, w.w = f, f
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

	ctx := experiments.NewContext(scale, w)

	var totals telemetry.Totals
	runs := &streamRuns{frames: map[string]int{}}
	emitters := []telemetry.Emitter{&totals, runs}
	var closeMetrics func() error
	if *metricsPath != "" {
		sink, closeSink, err := telemetry.CreateMetrics(*metricsPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		emitters, closeMetrics = append(emitters, sink), closeSink
	}
	if *metricsPath != "" || *manifestPath != "" {
		ctx.Metrics = telemetry.Tee(emitters...)
	}

	if *exp == "all" && *parallel >= 0 {
		start := time.Now() //texlint:ignore determinism progress timing on stderr only
		if err := ctx.Prefetch(*parallel); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		//texlint:ignore determinism progress timing on stderr only
		fmt.Fprintf(stderr, "[prefetch done in %v]\n", time.Since(start).Round(time.Millisecond))
	}
	for _, e := range todo {
		start := time.Now() //texlint:ignore determinism progress timing on stderr only
		if err := e.Run(ctx); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.ID, err)
			return 1
		}
		if w.err != nil {
			fmt.Fprintf(stderr, "experiments: writing %s: %v\n", e.ID, w.err)
			return 1
		}
		//texlint:ignore determinism progress timing on stderr only
		fmt.Fprintf(stderr, "[%s done in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			fmt.Fprintln(stderr, "experiments: writing output:", err)
			return 1
		}
	}
	if rc := exportCSV(ctx, *csvDir, stderr); rc != 0 {
		return rc
	}

	if closeMetrics != nil {
		if err := closeMetrics(); err != nil {
			fmt.Fprintln(stderr, "experiments: writing metrics:", err)
			return 1
		}
	}
	if *manifestPath != "" {
		m := telemetry.NewManifest("experiments")
		m.ConfigHash = telemetry.ConfigHash(
			scale.Name,
			fmt.Sprintf("%dx%d", scale.Width, scale.Height),
			"exp="+*exp,
		)
		m.Workload = strings.Join(runs.labels, ",")
		for _, l := range runs.labels {
			m.Frames += runs.frames[l]
		}
		m.Totals = totals.T
		f, err := os.Create(*manifestPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := m.WriteJSON(f); err != nil {
			_ = f.Close()
			fmt.Fprintln(stderr, "experiments: writing manifest:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "experiments: writing manifest:", err)
			return 1
		}
	}
	return 0
}

// streamRuns records which runs reached the metric stream, for the
// manifest: the workload labels in first-seen order and, per label, the
// frames its records cover.
type streamRuns struct {
	labels []string
	frames map[string]int
}

func (s *streamRuns) Frame(m telemetry.FrameMetrics) {
	n, seen := s.frames[m.Workload]
	if !seen {
		s.labels = append(s.labels, m.Workload)
	}
	if m.Frame >= n {
		s.frames[m.Workload] = m.Frame + 1
	}
}

func exportCSV(ctx *experiments.Context, dir string, stderr io.Writer) int {
	if dir == "" {
		return 0
	}
	if err := ctx.ExportCSV(dir); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stderr, "[csv series written to %s]\n", dir)
	return 0
}
