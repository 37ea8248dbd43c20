// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment renders the workloads at a configurable
// scale (the paper's 1024x768 over 411/525 frames, or reduced scales for
// quick runs), simulates the relevant cache configurations against the
// identical reference stream, and prints rows directly comparable to the
// paper's. Underlying simulation runs are memoized within a Context so
// that "-exp all" renders each workload/filter combination only once.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"texcache/internal/cache"
	"texcache/internal/core"
	"texcache/internal/raster"
	"texcache/internal/telemetry"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

// Scale selects the rendering scale of the experiments.
type Scale struct {
	Name          string
	Width, Height int
	// VillageFrames, CityFrames and MallFrames subsample the camera paths.
	VillageFrames, CityFrames, MallFrames int
}

// Predefined scales, exposed as accessors returning copies so no caller
// can perturb them mid-run. Cache behaviour at reduced scales preserves
// the paper's orderings and ratios; Full reproduces the paper's parameters.

// Bench is the smallest scale, sized for Go benchmarks and smoke tests.
func Bench() Scale { return Scale{"bench", 256, 192, 24, 30, 24} }

// Reduced is the scale used for quick table regeneration.
func Reduced() Scale { return Scale{"reduced", 512, 384, 80, 100, 80} }

// Full reproduces the paper's parameters: 1024x768 over the complete
// camera paths.
func Full() Scale {
	return Scale{"full", 1024, 768,
		workload.VillageFrames, workload.CityFrames, workload.MallFrames}
}

// Context carries the scale, output writer and memoized simulation runs.
type Context struct {
	Scale Scale
	Out   io.Writer
	// Metrics, when non-nil, receives the per-frame records of every
	// memoized run and every ablation comparison. A memoized run emits
	// at memoization time — once per underlying simulation, never per
	// experiment that reads it — so the stream is a function of which
	// runs were computed, in deterministic order even when Prefetch
	// computed them concurrently (its merge loop emits in job order). An
	// ablation emits as it runs. Sweep records carry "workload/filter" as
	// the workload label, matching the memoization key, and ablation
	// records "workload/<experiment id>". The push experiment's runs
	// have no cache counters and emit nothing.
	Metrics telemetry.Emitter

	workloads map[string]*workload.Workload
	statsRuns map[string]*core.Results
	cmpRuns   map[string]*core.Comparison
}

// NewContext builds a context writing reports to out.
func NewContext(scale Scale, out io.Writer) *Context {
	return &Context{
		Scale:     scale,
		Out:       out,
		workloads: make(map[string]*workload.Workload),
		statsRuns: make(map[string]*core.Results),
		cmpRuns:   make(map[string]*core.Comparison),
	}
}

func (c *Context) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// workloadByName memoizes workload construction (scene building is cheap
// but not free, and sharing preserves texture IDs across experiments).
func (c *Context) workloadByName(name string) *workload.Workload {
	if w, ok := c.workloads[name]; ok {
		return w
	}
	w, err := workload.ByName(name)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	c.workloads[name] = w
	return w
}

func (c *Context) frames(name string) int {
	switch name {
	case "village":
		return c.Scale.VillageFrames
	case "mall":
		return c.Scale.MallFrames
	default:
		return c.Scale.CityFrames
	}
}

// StatLayouts is every tile granularity Table 1 and Figures 4-6 read:
// the point-sampled statistics runs track all of them. It is exported so
// equivalence tests can check the engine under those runs' configuration.
func StatLayouts() []texture.TileLayout {
	return []texture.TileLayout{
		{L2Size: 8, L1Size: 4},
		{L2Size: 16, L1Size: 4},
		{L2Size: 32, L1Size: 4},
		{L2Size: 4, L1Size: 4}, // 4x4 L1 tiles
		{L2Size: 8, L1Size: 8}, // 8x8 L1 tiles
	}
}

// statsRun returns the memoized point-sampled statistics run for a
// workload: one pull-2k spec whose results carry the working set at
// every StatLayouts granularity.
func (c *Context) statsRun(name string) (*core.Results, error) {
	if r, ok := c.statsRuns[name]; ok {
		return r, nil
	}
	render := core.Config{
		Width:       c.Scale.Width,
		Height:      c.Scale.Height,
		Frames:      c.frames(name),
		Mode:        raster.Point,
		StatLayouts: StatLayouts(),
	}
	cmp, err := core.RunComparison(c.workloadByName(name), render,
		[]core.CacheSpec{{Name: "pull-2k", L1Bytes: 2 << 10}})
	if err != nil {
		return nil, err
	}
	r := cmp.Results[0]
	c.statsRuns[name] = r
	core.EmitMetrics(c.Metrics, r, "")
	return r, nil
}

// relabel rewrites the workload label of a metric stream to the memo key
// ("workload/filter") or ablation label, so comparisons of the same
// workload stay distinguishable in one stream.
type relabel struct {
	e   telemetry.Emitter
	key string
}

func (r relabel) Frame(m telemetry.FrameMetrics) {
	m.Workload = r.key
	r.e.Frame(m)
}

// emitSweep emits a comparison's metric stream under the given workload
// label: a memoized sweep's memo key, or an ablation's
// "workload/<experiment id>".
func (c *Context) emitSweep(key string, cmp *core.Comparison) {
	if c.Metrics == nil {
		return
	}
	core.EmitComparisonMetrics(relabel{e: c.Metrics, key: key}, cmp)
}

// l2Layout16 is the L2 tile size the cache studies fix (16x16).
var l2Layout16 = texture.TileLayout{L2Size: 16, L1Size: 4}

func l2Spec(name string, l1Bytes, l2MB, tlb int) core.CacheSpec {
	return core.CacheSpec{
		Name:    name,
		L1Bytes: l1Bytes,
		L2: &cache.L2Config{
			SizeBytes: l2MB << 20,
			Layout:    l2Layout16,
			Policy:    cache.Clock,
		},
		TLBEntries: tlb,
	}
}

// SweepSpecs is the shared cache sweep behind Figures 9-11 and Tables 2,
// 3, 5-8: pull-architecture L1 sizes, L2 sizes behind a 2 KB L1, and the
// TLB entry sweep. It is exported so benchmarks and equivalence tests can
// exercise the exact spec set the experiments run.
func SweepSpecs() []core.CacheSpec {
	specs := []core.CacheSpec{
		{Name: "pull-2k", L1Bytes: 2 << 10},
		{Name: "pull-4k", L1Bytes: 4 << 10},
		{Name: "pull-8k", L1Bytes: 8 << 10},
		{Name: "pull-16k", L1Bytes: 16 << 10},
		{Name: "pull-32k", L1Bytes: 32 << 10},
		l2Spec("l2-2m", 2<<10, 2, 16),
		l2Spec("l2-4m", 2<<10, 4, 0),
		l2Spec("l2-8m", 2<<10, 8, 0),
		l2Spec("l2-2m-16k", 16<<10, 2, 0),
	}
	for _, tlb := range []int{1, 2, 4, 8} {
		specs = append(specs, l2Spec(fmt.Sprintf("tlb-%d", tlb), 2<<10, 2, tlb))
	}
	return specs
}

// sweepConfig is the render configuration of the cache sweep of
// workload x filter.
func (c *Context) sweepConfig(name string, mode raster.SampleMode) core.Config {
	return core.Config{
		Width:  c.Scale.Width,
		Height: c.Scale.Height,
		Frames: c.frames(name),
		Mode:   mode,
	}
}

// sweep returns the memoized cache-sweep comparison for workload x filter.
func (c *Context) sweep(name string, mode raster.SampleMode) (*core.Comparison, error) {
	key := fmt.Sprintf("%s/%s", name, mode)
	if r, ok := c.cmpRuns[key]; ok {
		return r, nil
	}
	cmp, err := core.RunComparison(c.workloadByName(name), c.sweepConfig(name, mode), SweepSpecs())
	if err != nil {
		return nil, err
	}
	c.cmpRuns[key] = cmp
	c.emitSweep(key, cmp)
	return cmp, nil
}

// specResult finds a named spec's results within a sweep comparison; the
// results are positionally parallel to SweepSpecs().
func specResult(cmp *core.Comparison, name string) *core.Results {
	for i, s := range SweepSpecs() {
		if s.Name == name {
			return cmp.Results[i]
		}
	}
	panic("experiments: unknown spec " + name)
}

// Experiment is a registry entry.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Context) error
}

// All returns the experiment registry in presentation order.
func All() []Experiment {
	return []Experiment{
		{"fig3", "Figure 3: expected inter-frame working set model", (*Context).Fig3},
		{"table1", "Table 1: workload statistics and expected working sets", (*Context).Table1},
		{"fig4", "Figure 4: minimum memory by architecture", (*Context).Fig4},
		{"fig5", "Figure 5: total vs new L2 memory per frame", (*Context).Fig5},
		{"fig6", "Figure 6: minimum L1 download bandwidth", (*Context).Fig6},
		{"fig9", "Figure 9: L1 miss rate by cache size", (*Context).Fig9},
		{"table2", "Table 2: average L1 hit rates", (*Context).Table2},
		{"fig10", "Figure 10: download bandwidth with and without L2", (*Context).Fig10},
		{"table3", "Table 3: average bandwidth per frame", (*Context).Table3},
		{"table4", "Table 4: L2 structure memory requirements", (*Context).Table4},
		{"table56", "Tables 5-6: L1 and L2 hit rates", (*Context).Table56},
		{"table7", "Table 7: fractional advantage of L2 caching", (*Context).Table7},
		{"table8", "Table 8 / Figure 11: texture page table TLB hit rates", (*Context).Table8},
		{"ablation-z", "Ablation A1: z-before-texture", (*Context).AblationZ},
		{"ablation-repl", "Ablation A2: L2 replacement policies", (*Context).AblationRepl},
		{"ablation-sector", "Ablation A3: sector mapping", (*Context).AblationSector},
		{"ablation-assoc", "Ablation A4: L1 associativity", (*Context).AblationAssoc},
		{"future", "Extension: 'workload of the future' (multitextured Mall)", (*Context).Future},
		{"push", "Extension: measured push architecture", (*Context).Push},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	all := All()
	ids := make([]string, 0, len(all))
	for _, e := range all {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

func (c *Context) header(title string) {
	c.printf("\n=== %s [scale %s %dx%d] ===\n",
		title, c.Scale.Name, c.Scale.Width, c.Scale.Height)
}

func mb(b int64) float64    { return float64(b) / (1 << 20) }
func kb(b int64) float64    { return float64(b) / (1 << 10) }
func mbf(b float64) float64 { return b / (1 << 20) }
func kbf(b float64) float64 { return b / (1 << 10) }
