// The analytic -fast sweep engine. The paper's capacity sweep replays
// one rendered reference stream through every cache configuration; the
// reuse model (internal/model/reusemodel) collapses that to a single
// instrumented render: the sector-aware reuse probe measures the
// stream's locality profile once, and every spec's counters are
// predicted from it by arithmetic. A spec outside the model's reach
// (a direct-mapped L1, random replacement, disabled sector mapping, an
// off-granularity tile size) is an error. TLB statistics are never
// modeled: each TLB spec gets a real cache.TLB behind a real L1 filter
// inside the probe, so its stats are exact by construction.
package core

import (
	"fmt"

	"texcache/internal/cache"
	"texcache/internal/model/reusemodel"
	"texcache/internal/raster"
	"texcache/internal/scene"
	"texcache/internal/workload"
)

// runComparisonFast is the engine behind RunComparison when
// render.FastSweep is set.
func runComparisonFast(w *workload.Workload, render Config, specs []CacheSpec) (*Comparison, error) {
	if len(render.StatLayouts) > 0 {
		// The working-set collector attaches per-frame statistics to the
		// first spec's FrameResults, which a modeled result does not have.
		return nil, fmt.Errorf("core: fast sweep does not support working-set statistics")
	}
	blockEdge := reuseLayout().L2Size

	// TLB specs get an exact TLB in the probe, behind an L1 filter
	// shared per L1 geometry; the probe's page table is valid for them
	// because Check pinned their tile edge to the probe's granularity.
	probe := newReuseProbe(w.Scene.Textures)
	type l1geom struct{ bytes, ways int }
	filters := map[l1geom]*probeFilter{}
	for i, spec := range specs {
		if err := reusemodel.Check(modelSpec(spec), blockEdge); err != nil {
			return nil, fmt.Errorf("core: fast sweep: spec %q: %w", spec.Name, err)
		}
		if spec.TLBEntries <= 0 {
			continue
		}
		g := l1geom{spec.L1Bytes, spec.L1Ways}
		f := filters[g]
		if f == nil {
			ways := spec.L1Ways
			if ways == 0 {
				ways = cache.L1Ways
			}
			l1, err := cache.NewL1Assoc(spec.L1Bytes, ways)
			if err != nil {
				return nil, fmt.Errorf("core: spec %q: %w", spec.Name, err)
			}
			f = &probeFilter{l1: l1, tlbs: make([]probeTLB, 0, len(specs))}
			filters[g] = f
			probe.filters = append(probe.filters, f)
		}
		f.tlbs = append(f.tlbs, probeTLB{specIdx: i, tlb: cache.NewTLB(spec.TLBEntries)})
	}

	// One render drives the probe alone.
	rast, err := raster.New(raster.Config{
		Width: render.Width, Height: render.Height,
		Mode:           render.Mode,
		ZBeforeTexture: render.ZBeforeTexture,
	})
	if err != nil {
		return nil, err
	}
	rast.SetSink(probe)
	pipeline := scene.NewPipeline(rast)
	aspect := float64(render.Width) / float64(render.Height)
	framePixels := make([]int64, 0, render.Frames)
	for f := 0; f < render.Frames; f++ {
		pipeline.RenderFrame(w.Scene, w.Camera(aspect, f, render.Frames))
		framePixels = append(framePixels, rast.Pixels())
	}

	cmp := &Comparison{
		Workload:     w.Name,
		Render:       render,
		Specs:        make([]string, len(specs)),
		Results:      make([]*Results, len(specs)),
		FramePixels:  framePixels,
		ReuseProfile: probe.profile(),
		Model:        make([]SpecModel, len(specs)),
	}
	// The probe's exact TLB filters supply the TLB statistics the model
	// leaves out.
	tlbStats := make(map[int]cache.TLBStats)
	for _, f := range probe.filters {
		for _, t := range f.tlbs {
			tlbStats[t.specIdx] = t.tlb.Stats()
		}
	}
	for i, spec := range specs {
		pred, err := reusemodel.Predict(cmp.ReuseProfile, modelSpec(spec))
		if err != nil {
			// Check admitted the spec above, so Predict refusing it is a bug.
			return nil, fmt.Errorf("core: fast sweep: spec %q: %w", spec.Name, err)
		}
		cmp.Specs[i] = spec.Name
		cmp.Model[i] = SpecModel{Spec: spec.Name, Modeled: true, Pred: &pred}
		totals := pred.Counters()
		if st, ok := tlbStats[i]; ok {
			totals.TLB = st
		}
		cmp.Results[i] = &Results{
			Workload:    w.Name,
			Config:      specConfig(render, spec),
			Totals:      totals,
			ModelFrames: render.Frames,
		}
	}
	return cmp, nil
}

// SpecModel is one spec's entry in a -fast comparison's model report
// (Comparison.Model, parallel to Specs).
type SpecModel struct {
	Spec string
	// Modeled is true for every entry: RunComparison refuses a spec the
	// model cannot reach with an error.
	Modeled bool
	// Pred is the model's prediction.
	Pred *reusemodel.Prediction
}

// modelSpec projects a sweep spec onto the reuse model's input.
func modelSpec(s CacheSpec) reusemodel.Spec {
	ms := reusemodel.Spec{Name: s.Name, L1Bytes: s.L1Bytes, L1Ways: s.L1Ways}
	if s.L2 != nil {
		ms.L2Bytes = s.L2.SizeBytes
		ms.TileEdge = s.L2.Layout.L2Size
		ms.Policy = s.L2.Policy
		ms.NoSectorMapping = s.L2.NoSectorMapping
	}
	return ms
}
