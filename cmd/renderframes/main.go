// Command renderframes writes snapshot frames of the animations as PNG or
// PPM images — the analogue of the paper's Figure 12.
//
// Usage:
//
//	renderframes -workload village -frames 4 -out /tmp/shots
//	renderframes -workload mall -format ppm
package main

import (
	"bufio"
	"flag"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"os"
	"path/filepath"

	"texcache/internal/raster"
	"texcache/internal/scene"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

func main() {
	wl := flag.String("workload", "village", "village | city | mall")
	width := flag.Int("width", 640, "image width")
	height := flag.Int("height", 480, "image height")
	frames := flag.Int("frames", 4, "number of snapshots, spread over the animation")
	outDir := flag.String("out", ".", "output directory")
	format := flag.String("format", "png", "png | ppm")
	flag.Parse()

	w, err := workload.ByName(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *format != "png" && *format != "ppm" {
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		os.Exit(2)
	}

	r := raster.MustNew(raster.Config{
		Width: *width, Height: *height,
		Mode:        raster.Bilinear,
		Framebuffer: true,
	})
	p := scene.NewPipeline(r)
	aspect := float64(*width) / float64(*height)

	for i := 0; i < *frames; i++ {
		f := 0
		if *frames > 1 {
			f = i * (w.Frames - 1) / (*frames - 1)
		}
		cam := w.Camera(aspect, f, w.Frames)
		p.RenderFrame(w.Scene, cam)
		name := filepath.Join(*outDir,
			fmt.Sprintf("%s-%03d.%s", w.Name, f, *format))
		var err error
		if *format == "png" {
			err = writePNG(name, r.Color(), *width, *height)
		} else {
			err = writePPM(name, r.Color(), *width, *height)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (frame %d/%d)\n", name, f, w.Frames)
	}
}

// writePNG writes the framebuffer via the standard image/png encoder.
func writePNG(path string, pix []texture.RGBA, w, h int) error {
	img := image.NewNRGBA(image.Rect(0, 0, w, h))
	for i, c := range pix {
		img.SetNRGBA(i%w, i/w, color.NRGBA{R: c.R, G: c.G, B: c.B, A: 255})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := png.Encode(f, img); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// writePPM writes a binary P6 image.
func writePPM(path string, pix []texture.RGBA, w, h int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "P6\n%d %d\n255\n", w, h)
	for _, c := range pix {
		// The writer's error is sticky and surfaces at Flush.
		_ = bw.WriteByte(c.R)
		_ = bw.WriteByte(c.G)
		_ = bw.WriteByte(c.B)
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
