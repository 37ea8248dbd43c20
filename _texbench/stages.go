// The traced run. Stage cuts attribute the exact engines' per-reference
// time to the pipeline's layers: each frame is rendered once into a
// discarding sink (timed) and once into a capture buffer (untimed), and
// every later stage — trace encode, decode, address translation, each
// spec's hierarchy, and the default spec's L1, L2 and TLB on their own —
// is timed as a tight loop over that frame's buffer through the layer's
// public function. Cache state carries across frames exactly as in the
// engines, so the cut hierarchies' counters must equal the engines'
// totals. The engine ledger then times the parallel engines against
// their serial references on this machine's cores.
package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"texcache/internal/cache"
	"texcache/internal/core"
	"texcache/internal/model/reusemodel"
	"texcache/internal/raster"
	"texcache/internal/scene"
	"texcache/internal/telemetry"
	"texcache/internal/texture"
	"texcache/internal/trace"
)

// unattributedTol is the share of the serial engine's time per reference
// the stage cuts may leave unexplained, either way. The cuts time each
// layer in isolation, hot in the CPU caches, while the serial engine
// interleaves all of them per texel, so they never sum exactly.
const unattributedTol = 0.20

// texel is one captured texel reference.
type texel struct {
	tid  uint32
	u, v int32
	m    uint8
}

// captureSink records a frame's references.
type captureSink struct{ refs []texel }

func (c *captureSink) Texel(tid texture.ID, u, v, m int) {
	c.refs = append(c.refs, texel{uint32(tid), int32(u), int32(v), uint8(m)})
}

// discardSink drops references: the render stage's timed pass.
type discardSink struct{}

func (discardSink) Texel(texture.ID, int, int, int) {}

// countHandler counts decoded references: the decode stage's consumer.
type countHandler struct{ texels int }

func (h *countHandler) BeginFrame()                 {}
func (h *countHandler) Texel(uint32, int, int, int) { h.texels++ }
func (h *countHandler) EndFrame(int64)              {}

// layoutRefs is a frame's translated references under one L2 layout.
type layoutRefs struct {
	tilings []*texture.Tiling // nil: the L1 translation alone
	starts  []uint32
	refs    []cache.Ref
}

// stageCut is one scene's per-layer attribution.
type stageCut struct {
	specs                                 []core.CacheSpec
	refs, pixels, traceBytes              int64
	renderNS, encodeNS, decodeNS, xlateNS int64
	hiers                                 []*cache.Hierarchy
	hierNS                                []int64
	// def indexes the default spec, whose levels also run as separate
	// caches: L1 on every reference, L2 and TLB on the L1-miss stream.
	def               int
	l1                *cache.L1Cache
	l2                *cache.L2Cache
	tlb               *cache.TLB
	l1NS, l2NS, tlbNS int64
}

// newHierarchy builds a spec's hierarchy the way the engines do, with the
// L2 sub-block pinned to the 4x4 L1 tile, and returns its L2 layout (zero
// for the pull architecture).
func newHierarchy(set *texture.Set, spec core.CacheSpec) (*cache.Hierarchy, texture.TileLayout, error) {
	ways := spec.L1Ways
	if ways == 0 {
		ways = cache.L1Ways
	}
	l1, err := cache.NewL1Assoc(spec.L1Bytes, ways)
	if err != nil {
		return nil, texture.TileLayout{}, fmt.Errorf("spec %s: %w", spec.Name, err)
	}
	h := &cache.Hierarchy{L1: l1}
	if spec.L2 == nil {
		return h, texture.TileLayout{}, nil
	}
	cfg := *spec.L2
	cfg.Layout.L1Size = 4
	if err := set.Prepare(cfg.Layout); err != nil {
		return nil, cfg.Layout, fmt.Errorf("spec %s: %w", spec.Name, err)
	}
	if h.L2, err = cache.NewL2(cfg, set.PageTableEntries(cfg.Layout)); err != nil {
		return nil, cfg.Layout, fmt.Errorf("spec %s: %w", spec.Name, err)
	}
	if spec.TLBEntries > 0 {
		h.TLB = cache.NewTLB(spec.TLBEntries)
	}
	return h, cfg.Layout, nil
}

func since(t time.Time) int64 { return time.Since(t).Nanoseconds() }

// runStageCut cuts one input's stream into its stages.
func runStageCut(in *input) (*stageCut, error) {
	set := in.w.Scene.Textures
	if err := set.Prepare(texture.CanonicalL1()); err != nil {
		return nil, err
	}
	canon := set.Tilings(texture.CanonicalL1())
	c := &stageCut{specs: in.specs, hierNS: make([]int64, len(in.specs)), def: -1}

	// One translation per distinct L2 layout, shared by its specs, as in
	// the engines; pull specs read the L1 part of any of them.
	var layouts []*layoutRefs
	index := map[texture.TileLayout]int{}
	specLayout := make([]int, len(in.specs))
	for i, spec := range in.specs {
		h, layout, err := newHierarchy(set, spec)
		if err != nil {
			return nil, err
		}
		c.hiers = append(c.hiers, h)
		if spec.Name == defaultSpec().Name {
			c.def = i
		}
		if h.L2 == nil {
			continue
		}
		idx, ok := index[layout]
		if !ok {
			lr := &layoutRefs{tilings: set.Tilings(layout), starts: make([]uint32, set.Len())}
			for t := range lr.starts {
				lr.starts[t] = set.Start(layout, texture.ID(t))
			}
			idx = len(layouts)
			index[layout] = idx
			layouts = append(layouts, lr)
		}
		specLayout[i] = idx
	}
	if len(layouts) == 0 {
		layouts = append(layouts, &layoutRefs{})
	}
	if c.def < 0 {
		return nil, fmt.Errorf("stage cut: no %s spec", defaultSpec().Name)
	}
	sep, _, err := newHierarchy(set, in.specs[c.def])
	if err != nil {
		return nil, err
	}
	if sep.L2 == nil || sep.TLB == nil {
		return nil, fmt.Errorf("stage cut: spec %s has no L2 or TLB", in.specs[c.def].Name)
	}
	c.l1, c.l2, c.tlb = sep.L1, sep.L2, sep.TLB

	rast, err := raster.New(raster.Config{Width: in.render.Width, Height: in.render.Height, Mode: in.render.Mode})
	if err != nil {
		return nil, err
	}
	pipeline := scene.NewPipeline(rast)
	aspect := float64(in.render.Width) / float64(in.render.Height)
	var capture captureSink
	var enc bytes.Buffer
	var missPT []uint32
	var missSub []uint8
	for f := 0; f < in.render.Frames; f++ {
		cam := in.w.Camera(aspect, f, in.render.Frames)

		rast.SetSink(discardSink{})
		t := time.Now()
		pipeline.RenderFrame(in.w.Scene, cam)
		c.renderNS += since(t)
		pixels := rast.Pixels()

		capture.refs = capture.refs[:0]
		rast.SetSink(&capture)
		pipeline.RenderFrame(in.w.Scene, cam)
		if rast.Pixels() != pixels {
			return nil, fmt.Errorf("frame %d: capture pass rendered %d pixels, timed pass %d", f, rast.Pixels(), pixels)
		}
		refs := capture.refs
		c.refs += int64(len(refs))
		c.pixels += pixels

		// Each frame is one independent stream, as the sweep engine
		// shards its trace.
		enc.Reset()
		t = time.Now()
		tw := trace.NewWriter(&enc)
		tw.BeginFrame()
		for _, r := range refs {
			tw.Texel(r.tid, int(r.u), int(r.v), int(r.m))
		}
		tw.EndFrame(pixels)
		err := tw.Close()
		c.encodeNS += since(t)
		if err != nil {
			return nil, fmt.Errorf("frame %d: encode: %w", f, err)
		}
		c.traceBytes += int64(enc.Len())

		var dh countHandler
		t = time.Now()
		_, err = trace.ReplayBytes(enc.Bytes(), &dh)
		c.decodeNS += since(t)
		if err != nil || dh.texels != len(refs) {
			return nil, fmt.Errorf("frame %d: decoded %d of %d references: %v", f, dh.texels, len(refs), err)
		}

		for _, lr := range layouts {
			if cap(lr.refs) < len(refs) {
				lr.refs = make([]cache.Ref, len(refs))
			}
			lr.refs = lr.refs[:len(refs)]
		}
		t = time.Now()
		translate(canon, layouts, refs)
		c.xlateNS += since(t)

		for i, h := range c.hiers {
			rs := layouts[specLayout[i]].refs
			t = time.Now()
			for j := range rs {
				h.Access(rs[j])
			}
			c.hierNS[i] += since(t)
		}

		rs := layouts[specLayout[c.def]].refs
		missPT, missSub = missPT[:0], missSub[:0]
		t = time.Now()
		for j := range rs {
			if !c.l1.Access(rs[j].L1) {
				missPT = append(missPT, rs[j].PTIndex)
				missSub = append(missSub, rs[j].Sub)
			}
		}
		c.l1NS += since(t)
		t = time.Now()
		for j, pt := range missPT {
			c.l2.Access(pt, missSub[j])
		}
		c.l2NS += since(t)
		t = time.Now()
		for _, pt := range missPT {
			c.tlb.Lookup(pt)
		}
		c.tlbNS += since(t)
	}
	if c.refs == 0 {
		return nil, fmt.Errorf("stage cut: empty stream")
	}
	return c, nil
}

// translate maps each captured reference to its canonical L1 tag and set
// hash and, per L2 layout, its page-table index and sub-block: the
// engines' per-texel address translation.
func translate(canon []*texture.Tiling, layouts []*layoutRefs, refs []texel) {
	for i, r := range refs {
		u, v, m := int(r.u), int(r.v), int(r.m)
		a := canon[r.tid].Addr(u, v, m)
		l1 := cache.L1Ref{
			Tag: cache.PackTag(r.tid, a.L2, a.L1),
			Set: cache.SetHash(r.u>>2, r.v>>2, r.m, r.tid),
		}
		for _, lr := range layouts {
			ref := cache.Ref{L1: l1}
			if lr.tilings != nil {
				b := lr.tilings[r.tid].Addr(u, v, m)
				ref.PTIndex = lr.starts[r.tid] + b.L2
				ref.Sub = uint8(b.L1)
			}
			lr.refs[i] = ref
		}
	}
}

// counters lists the cut hierarchies' end-of-run counters by spec.
func (c *stageCut) counters() []goldenSpec {
	out := make([]goldenSpec, len(c.hiers))
	for i, h := range c.hiers {
		out[i] = goldenSpec{Name: c.specs[i].Name, Counters: h.Counters()}
	}
	return out
}

// checkLayers compares the separately run levels with the default spec's
// hierarchy.
func (c *stageCut) checkLayers() (failed int, why string) {
	h := c.hiers[c.def].Counters()
	if c.l1.Stats() != h.L1 || c.l2.Stats() != h.L2 || c.tlb.Stats() != h.TLB {
		return 1, fmt.Sprintf("levels L1 %+v L2 %+v TLB %+v, hierarchy %+v",
			c.l1.Stats(), c.l2.Stats(), c.tlb.Stats(), h)
	}
	return 0, ""
}

func (c *stageCut) perRef(ns int64) float64 { return float64(ns) / float64(c.refs) }

// sumHierNS is the time of every spec's hierarchy.
func (c *stageCut) sumHierNS() int64 {
	var n int64
	for _, ns := range c.hierNS {
		n += ns
	}
	return n
}

// addMetrics reports the cut under the scene's name; hierPrefix
// qualifies the spec names of its hierarchy rows.
func (c *stageCut) addMetrics(m map[string]metric, sceneName, hierPrefix string) {
	put := func(name string, v float64, unit string) { m[name+"."+sceneName] = metric{v, unit} }
	put("raster.render_ns_per_ref", c.perRef(c.renderNS), "ns")
	put("raster.refs", float64(c.refs), "count")
	put("raster.refs_per_pixel", float64(c.refs)/float64(c.pixels), "ratio")
	put("trace.encode_ns_per_ref", c.perRef(c.encodeNS), "ns")
	put("trace.decode_ns_per_ref", c.perRef(c.decodeNS), "ns")
	put("trace.bytes_per_ref", float64(c.traceBytes)/float64(c.refs), "B/ref")
	put("texture.xlate_ns_per_ref", c.perRef(c.xlateNS), "ns")
	for i, s := range c.specs {
		m["cache.hier_ns_per_ref."+hierPrefix+s.Name] = metric{c.perRef(c.hierNS[i]), "ns"}
	}
	l1, l2, tlb := c.l1.Stats(), c.l2.Stats(), c.tlb.Stats()
	put("cache.l1_ns_per_access", c.perRef(c.l1NS), "ns")
	put("cache.l2_ns_per_access", float64(c.l2NS)/float64(l1.Misses), "ns")
	put("cache.tlb_ns_per_lookup", float64(c.tlbNS)/float64(tlb.Lookups), "ns")
	put("cache.l1_misses", float64(l1.Misses), "count")
	put("cache.l2_full_hits", float64(l2.FullHits), "count")
	put("cache.l2_partial_hits", float64(l2.PartialHits), "count")
	put("cache.l2_full_misses", float64(l2.FullMisses), "count")
	put("cache.tlb_hits", float64(tlb.Hits), "count")
	put("cache.l1_hit_rate", l1.HitRate(), "ratio")
	put("cache.l2_full_hit_rate", l2.FullHitRate(), "ratio")
}

// modelSpec projects a sweep spec onto the reuse model's input.
func modelSpec(s core.CacheSpec) reusemodel.Spec {
	ms := reusemodel.Spec{Name: s.Name, L1Bytes: s.L1Bytes, L1Ways: s.L1Ways}
	if s.L2 != nil {
		ms.L2Bytes = s.L2.SizeBytes
		ms.TileEdge = s.L2.Layout.L2Size
		ms.Policy = s.L2.Policy
		ms.NoSectorMapping = s.L2.NoSectorMapping
	}
	return ms
}

// predictUS times reusemodel.Predict over every model-reachable spec,
// repeating the specs for at least 50 ms, and returns microseconds per
// prediction.
func predictUS(p *telemetry.SectorProfile, specs []core.CacheSpec) (float64, error) {
	if p == nil {
		return 0, fmt.Errorf("no reuse profile")
	}
	var ms []reusemodel.Spec
	for _, s := range specs {
		if m := modelSpec(s); reusemodel.Check(m, p.BlockEdge) == nil {
			ms = append(ms, m)
		}
	}
	if len(ms) == 0 {
		return 0, fmt.Errorf("no model-reachable spec")
	}
	n := 0
	t := time.Now()
	for n == 0 || time.Since(t) < 50*time.Millisecond {
		for _, s := range ms {
			if _, err := reusemodel.Predict(p, s); err != nil {
				return 0, err
			}
		}
		n += len(ms)
	}
	return float64(since(t)) / float64(n) / 1e3, nil
}

// meanUtil averages the utilization of the report's tracks whose names
// start with prefix; 0 when there are none.
func meanUtil(rep *telemetry.TraceReport, prefix string) float64 {
	var sum float64
	n := 0
	for _, t := range rep.Tracks {
		if strings.HasPrefix(t.Name, prefix) {
			sum += t.Utilization
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// runTraced is the traced run: stage cuts of both scenes, then the
// engine ledger, every engine's totals reconciled with the cuts.
func runTraced(sc scale, golden goldenFile, log io.Writer) (result, []streamTotals, error) {
	var res result
	tally := func(label string, failed int, why string) {
		res.Attempted++
		if failed > 0 {
			res.Failed++
			fmt.Fprintf(log, "texbench: reconcile %s: %d specs differ: %s\n", label, failed, why)
		}
	}
	m := map[string]metric{}

	var builds []float64
	var village, city *input
	for i := 0; i < 3; i++ {
		t := time.Now()
		v, err := newInput(sceneVillage, sc)
		if err != nil {
			return res, nil, err
		}
		c, err := newInput(sceneCity, sc)
		if err != nil {
			return res, nil, err
		}
		builds = append(builds, time.Since(t).Seconds())
		village, city = v, c
	}
	m["workload.build_s"] = metric{median(builds), "s"}

	vc, err := runStageCut(village)
	if err != nil {
		return res, nil, fmt.Errorf("village: %w", err)
	}
	cc, err := runStageCut(city)
	if err != nil {
		return res, nil, fmt.Errorf("city: %w", err)
	}
	vc.addMetrics(m, sceneVillage, "")
	cc.addMetrics(m, sceneCity, "city-")
	for _, x := range []struct {
		in  *input
		cut *stageCut
	}{{village, vc}, {city, cc}} {
		failed, why := x.cut.checkLayers()
		tally(x.in.key.Scene+" levels vs hierarchy", failed, why)
		if want, ok := golden.lookup(x.in.key); ok {
			failed, why := checkExact(want, countersOf(x.cut.counters()))
			tally(x.in.key.Scene+" stage cut vs golden", failed, why)
		}
	}
	vwant, cwant := vc.counters(), cc.counters()

	// Village engines: the serial reference, the default parallel engine
	// with the textrace registry attached, and the default engine with
	// the render farm off.
	exact := func(label string, render core.Config) (sample, opOutput, error) {
		s, out, err := timeOp(func() (opOutput, error) { return runComparison(village, render) })
		if err != nil {
			return s, out, fmt.Errorf("%s: %w", label, err)
		}
		failed, why := checkExact(vwant, totals(out.results))
		tally("village "+label+" vs stage cut", failed, why)
		return s, out, nil
	}
	serialRender := village.render
	serialRender.Parallelism, serialRender.RenderWorkers = 1, 1
	serial, _, err := exact("serial engine", serialRender)
	if err != nil {
		return res, nil, err
	}
	tr := telemetry.NewTrace(telemetry.NewWallClock())
	defRender := village.render
	defRender.Trace = tr
	par, _, err := exact("default engine", defRender)
	if err != nil {
		return res, nil, err
	}
	farmOff := village.render
	farmOff.RenderWorkers = 1
	farm1, _, err := exact("render-farm-off engine", farmOff)
	if err != nil {
		return res, nil, err
	}
	rep := tr.Report()

	// The fast engine over the same stream.
	fastRender := village.render
	fastRender.FastSweep = true
	fast, fastOut, err := timeOp(func() (opOutput, error) { return runComparison(village, fastRender) })
	if err != nil {
		return res, nil, fmt.Errorf("fast engine: %w", err)
	}
	failed, errPP, why := checkModel(vwant, fastOut.results, sc.ModelTolPP)
	tally("village fast engine vs stage cut", failed, why)
	fallbacks := 0
	for _, sm := range fastOut.cmp.Model {
		if !sm.Modeled {
			fallbacks++
		}
	}
	pus, err := predictUS(fastOut.cmp.ReuseProfile, village.specs)
	if err != nil {
		return res, nil, fmt.Errorf("predict: %w", err)
	}
	probeNS := float64(fast.wall.Nanoseconds()) - float64(vc.renderNS) -
		pus*1e3*float64(len(village.specs)-fallbacks)

	// City replay: the whole-stream replay and frame ranges on every CPU.
	data, err := recordTrace(city)
	if err != nil {
		return res, nil, fmt.Errorf("city trace: %w", err)
	}
	replayTimed := func(label string, workers int) (sample, error) {
		cfg := replayConfig(city)
		cfg.ReplayWorkers = workers
		s, out, err := timeOp(func() (opOutput, error) { return replay(city, data, cfg) })
		if err != nil {
			return s, fmt.Errorf("%s: %w", label, err)
		}
		failed, why := checkExact(cwant, totals(out.results))
		tally("city "+label+" vs stage cut", failed, why)
		return s, nil
	}
	rep1, err := replayTimed("serial replay", 1)
	if err != nil {
		return res, nil, err
	}
	ranges := runtime.NumCPU()
	if ranges > city.render.Frames {
		ranges = city.render.Frames
	}
	repN, err := replayTimed("ranged replay", ranges)
	if err != nil {
		return res, nil, err
	}
	d := cc.perRef(cc.decodeNS + cc.xlateNS)
	a := cc.perRef(cc.sumHierNS())
	predicted := (d + a) / (d/float64(ranges) + a)

	serialNS := serial.nsPerRef()
	attributed := vc.perRef(vc.renderNS + vc.xlateNS + vc.sumHierNS())
	unattributed := serialNS - attributed
	verdict := "within"
	if unattributed < -unattributedTol*serialNS || unattributed > unattributedTol*serialNS {
		verdict = "OUTSIDE"
	}
	fmt.Fprintf(log, "texbench: serial engine %.1f ns/ref; stage cuts explain %.1f; unattributed %.1f ns/ref (%.1f%%) is %s the ±%.0f%% tolerance\n",
		serialNS, attributed, unattributed, 100*unattributed/serialNS, verdict, 100*unattributedTol)
	fmt.Fprintf(log, "texbench: city ranged replay at R=%d: measured %.2fx, (D+A)/(D/R+A) predicts %.2fx (D %.1f, A %.1f ns/ref)\n",
		ranges, rep1.nsPerRef()/repN.nsPerRef(), predicted, d, a)

	crit := 0.0
	if rep.DurationNS > 0 {
		crit = float64(rep.CriticalNS) / float64(rep.DurationNS)
	}
	for name, v := range map[string]metric{
		"core.fast_probe_ns_per_ref":          {probeNS / float64(fast.refs), "ns"},
		"model.predict_us_per_spec":           {pus, "us"},
		"model.exact_fallback_specs":          {float64(fallbacks), "count"},
		"core.serial_ns_per_ref":              {serialNS, "ns"},
		"core.parallel_ns_per_ref":            {par.nsPerRef(), "ns"},
		"core.unattributed_ns_per_ref":        {unattributed, "ns"},
		"core.render_utilization":             {meanUtil(rep, "render"), "ratio"},
		"core.replay_group_utilization":       {meanUtil(rep, "replay group"), "ratio"},
		"core.critical_path_share":            {crit, "ratio"},
		"core.parallel_speedup":               {serialNS / par.nsPerRef(), "x"},
		"core.render_farm_speedup":            {farm1.nsPerRef() / par.nsPerRef(), "x"},
		"core.replay_range_speedup":           {rep1.nsPerRef() / repN.nsPerRef(), "x"},
		"core.replay_range_predicted_speedup": {predicted, "x"},
		"core.serial_cpu_ns_per_ref":          {serial.cpuNSPerRef(), "ns"},
		"core.parallel_cpu_ns_per_ref":        {par.cpuNSPerRef(), "ns"},
		"core.render_farm1_cpu_ns_per_ref":    {farm1.cpuNSPerRef(), "ns"},
		"core.replay_serial_cpu_ns_per_ref":   {rep1.cpuNSPerRef(), "ns"},
		"core.replay_range_cpu_ns_per_ref":    {repN.cpuNSPerRef(), "ns"},
	} {
		m[name] = v
	}
	fmt.Fprintf(log, "texbench: fast engine max rate error %.4f pp over %d specs\n", errPP, len(village.specs))
	res.Metrics = m
	res.Correct = res.Failed == 0
	streams := []streamTotals{
		cutStream("village stage cut", vc),
		cutStream("city stage cut", cc),
	}
	return res, streams, nil
}

// countersOf strips the spec names.
func countersOf(gs []goldenSpec) []cache.Counters {
	out := make([]cache.Counters, len(gs))
	for i, g := range gs {
		out[i] = g.Counters
	}
	return out
}

// cutStream is a stage cut's stream totals under the default spec.
func cutStream(name string, c *stageCut) streamTotals {
	h := c.hiers[c.def].Counters()
	return streamTotals{
		Stream: name, Spec: c.specs[c.def].Name,
		Refs: c.refs, Pixels: c.pixels,
		L1Misses: h.L1.Misses, HostBytes: h.HostBytes,
	}
}
