// Command tracetool records, inspects, and replays texel reference traces,
// the trace-driven methodology of the study in file form.
//
// Usage:
//
//	tracetool record -workload village -o village.trace -frames 60
//	tracetool info village.trace
//	tracetool replay -workload village -l1 2048 -l2mb 2 village.trace
//
// The workload passed to replay must match the one that recorded the
// trace: texture ids are assigned by the (deterministic) scene builder.
// For where a simulator run spent its time, see texsim -trace.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"texcache/internal/cache"
	"texcache/internal/core"
	"texcache/internal/raster"
	"texcache/internal/texture"
	"texcache/internal/trace"
	"texcache/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it dispatches the subcommand, writes reports
// to stdout and diagnostics to stderr, and returns the exit status — 2
// for a usage error, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	var cmd func(args []string, stdout, stderr io.Writer) int
	switch args[0] {
	case "record":
		cmd = record
	case "info":
		cmd = info
	case "replay":
		cmd = replay
	default:
		return usage(stderr)
	}
	return cmd(args[1:], stdout, stderr)
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: tracetool record|info|replay [flags] [file]")
	return 2
}

// fail reports a failed run.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, err)
	return 1
}

// parseFlags parses a subcommand's flags. ok is false when the command
// should stop with the returned status: 0 after -h, 2 for a bad flag.
func parseFlags(fs *flag.FlagSet, args []string) (code int, ok bool) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false
	}
	return 0, true
}

func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

func workloadByName(name string) (*workload.Workload, error) {
	switch name {
	case "village":
		return workload.Village(), nil
	case "city":
		return workload.City(), nil
	case "mall":
		return workload.Mall(), nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}

func parseMode(s string) (raster.SampleMode, error) {
	switch s {
	case "point":
		return raster.Point, nil
	case "bilinear":
		return raster.Bilinear, nil
	case "trilinear":
		return raster.Trilinear, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", s)
	}
}

func record(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("record", stderr)
	wl := fs.String("workload", "village", "village | city | mall")
	out := fs.String("o", "out.trace", "output file")
	frames := fs.Int("frames", 60, "frames (0 = paper scale)")
	width := fs.Int("width", 512, "screen width")
	height := fs.Int("height", 384, "screen height")
	modeName := fs.String("mode", "trilinear", "point | bilinear | trilinear")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	w, err := workloadByName(*wl)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	mode, err := parseMode(*modeName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	f, err := os.Create(*out)
	if err != nil {
		return fail(stderr, err)
	}
	cfg := core.Config{
		Width: *width, Height: *height, Frames: *frames,
		Mode: mode, L1Bytes: 2 << 10,
	}
	n, err := core.RecordTrace(w, cfg, f)
	if err != nil {
		_ = f.Close()
		return fail(stderr, err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return fail(stderr, err)
	}
	if err := f.Close(); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "recorded %d frames of %s to %s (%.1f MB)\n",
		n, w.Name, *out, float64(st.Size())/(1<<20))
	return 0
}

// infoHandler accumulates summary statistics from a trace.
type infoHandler struct {
	frames   int
	events   int64
	pixels   int64
	textures map[uint32]bool
	levels   map[int]int64
}

func (h *infoHandler) BeginFrame() {}

func (h *infoHandler) Texel(tid uint32, u, v, m int) {
	h.events++
	h.textures[tid] = true
	h.levels[m]++
}

func (h *infoHandler) EndFrame(pixels int64) {
	h.frames++
	h.pixels += pixels
}

func info(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("info", stderr)
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	if fs.NArg() != 1 {
		return usage(stderr)
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		return fail(stderr, err)
	}
	defer func() { _ = f.Close() }() // read-only
	h := &infoHandler{textures: map[uint32]bool{}, levels: map[int]int64{}}
	if _, err := trace.Replay(f, h); err != nil {
		return fail(stderr, fmt.Errorf("%s: %w", path, err))
	}
	st, err := f.Stat()
	if err != nil {
		return fail(stderr, err)
	}
	// Ratios print only over a non-empty denominator: a header-only
	// trace has no pixels and no references.
	fmt.Fprintf(stdout, "%s: %d frames, %d texel references, %d textures\n",
		path, h.frames, h.events, len(h.textures))
	fmt.Fprintf(stdout, "pixels: %d", h.pixels)
	if h.pixels > 0 {
		fmt.Fprintf(stdout, " (%.1f refs/pixel)", float64(h.events)/float64(h.pixels))
	}
	fmt.Fprintf(stdout, "\nsize: %.1f MB", float64(st.Size())/(1<<20))
	if h.events > 0 {
		fmt.Fprintf(stdout, " (%.2f bytes/reference)", float64(st.Size())/float64(h.events))
	}
	fmt.Fprintf(stdout, "\nMIP level histogram:\n")
	for m := 0; m < 16; m++ {
		if n := h.levels[m]; n > 0 {
			fmt.Fprintf(stdout, "  level %2d %12d (%5.1f%%)\n",
				m, n, 100*float64(n)/float64(h.events))
		}
	}
	return 0
}

func replay(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("replay", stderr)
	wl := fs.String("workload", "village", "workload that recorded the trace")
	l1 := fs.Int("l1", 2048, "L1 bytes")
	l2mb := fs.Int("l2mb", 2, "L2 MB (0 = pull)")
	l2tile := fs.Int("l2tile", 16, "L2 tile edge texels")
	tlb := fs.Int("tlb", 16, "TLB entries")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	if fs.NArg() != 1 {
		return usage(stderr)
	}
	w, err := workloadByName(*wl)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		return fail(stderr, err)
	}
	defer func() { _ = f.Close() }() // read-only

	cfg := core.Config{
		Width: 1, Height: 1, // only used for summary normalisation
		L1Bytes:    *l1,
		TLBEntries: *tlb,
	}
	if *l2mb > 0 {
		cfg.L2 = &cache.L2Config{
			SizeBytes: *l2mb << 20,
			Layout:    texture.TileLayout{L2Size: *l2tile, L1Size: 4},
			Policy:    cache.Clock,
		}
	}
	res, err := core.ReplayTrace(f, w.Scene.Textures, cfg)
	if err != nil {
		return fail(stderr, fmt.Errorf("%s: %w", path, err))
	}
	t := res.Totals
	fmt.Fprintf(stdout, "replayed %d frames\n", len(res.Frames))
	fmt.Fprintf(stdout, "L1 hit rate: %.2f%%\n", 100*t.L1.HitRate())
	if cfg.L2 != nil {
		fmt.Fprintf(stdout, "L2: full %.2f%%, partial %.2f%% (of L1 misses)\n",
			100*t.L2.FullHitRate(), 100*t.L2.PartialHitRate())
		if cfg.TLBEntries > 0 {
			fmt.Fprintf(stdout, "TLB hit rate: %.2f%%\n", 100*t.TLB.HitRate())
		}
	}
	if n := len(res.Frames); n > 0 {
		fmt.Fprintf(stdout, "host bandwidth: %.3f MB/frame\n", float64(t.HostBytes)/float64(n)/(1<<20))
	}
	return 0
}
