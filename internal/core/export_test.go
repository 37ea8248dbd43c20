package core

import (
	"texcache/internal/cache"
	"texcache/internal/raster"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

// FanoutShape is the structure of the exact engine's two stages over a
// spec list, for tests outside the package.
type FanoutShape struct {
	// Ways and Sizes give each chain's associativity and its L1 sizes in
	// bytes, in lookup order.
	Ways  []int
	Sizes [][]int
	// FilterSets is the size of the render stage's MRU filter, and
	// AllLines reports whether it records every line that is not a
	// repeat, its hits marked, for a fully associative chain.
	FilterSets int
	AllLines   bool
	// RefineSets gives each chain's own MRU filter size, in the cache
	// stage: 0 for a chain that needs none.
	RefineSets []int
	// L1Of and L2Of give, per spec, the index of the first spec whose L1
	// (L2) cache its hierarchy uses; L2Of is -1 for a pull spec.
	L1Of, L2Of []int
}

// FanoutShapeOf builds the exact engine's two stages over specs and
// reports their structure.
func FanoutShapeOf(set *texture.Set, specs []CacheSpec) (FanoutShape, error) {
	fan, err := buildFanout(set, specs)
	if err != nil {
		return FanoutShape{}, err
	}
	rs := newStreamFilter(fan)
	sh := FanoutShape{FilterSets: len(rs.filter.mru), AllLines: rs.all}
	for _, ch := range fan.chains {
		sizes := make([]int, 0, len(ch.groups))
		for _, g := range ch.groups {
			sizes = append(sizes, g.l1.SizeBytes())
		}
		sh.Ways = append(sh.Ways, ch.groups[0].l1.Ways())
		sh.Sizes = append(sh.Sizes, sizes)
		refine := 0
		if ch.refine != nil {
			refine = len(ch.refine.mru)
		}
		sh.RefineSets = append(sh.RefineSets, refine)
	}
	first := func(same func(a, b *cache.Hierarchy) bool, i int) int {
		for j, h := range fan.hiers[:i] {
			if same(h, fan.hiers[i]) {
				return j
			}
		}
		return i
	}
	for i, h := range fan.hiers {
		sh.L1Of = append(sh.L1Of, first(func(a, b *cache.Hierarchy) bool { return a.L1 == b.L1 }, i))
		l2 := -1
		if h.L2 != nil {
			l2 = first(func(a, b *cache.Hierarchy) bool { return a.L2 == b.L2 }, i)
		}
		sh.L2Of = append(sh.L2Of, l2)
	}
	return sh, nil
}

// Stages runs the exact engine's two stages apart over one sweep, so a
// benchmark can time each alone.
type Stages struct {
	w      *workload.Workload
	render Config
	specs  []CacheSpec
	// blocks holds a copy of every block one render handed over, in
	// order, for the cache stage to take.
	blocks []*block
}

// NewStages prepares the two stages of a sweep of specs over w, rendered
// under render (whose Frames must be set).
func NewStages(w *workload.Workload, render Config, specs []CacheSpec) *Stages {
	return &Stages{w: w, render: render, specs: specs}
}

// Render runs the render stage over every frame against a consumer that
// only returns each block to the ring. With keep set it also keeps a copy
// of each block for CacheStage.
func (st *Stages) Render(keep bool) error {
	fan, err := buildFanout(st.w.Scene.Textures, st.specs)
	if err != nil {
		return err
	}
	rs := newStreamFilter(fan)
	rast, err := raster.New(raster.Config{
		Width: st.render.Width, Height: st.render.Height,
		Mode:           st.render.Mode,
		ZBeforeTexture: st.render.ZBeforeTexture,
	})
	if err != nil {
		return err
	}
	rast.SetSink(rs)
	done := make(chan struct{})
	defer close(done)
	full, free := rs.start(st.w, st.render, rast, done)
	for b := range full {
		if keep {
			c := *b
			st.blocks = append(st.blocks, &c)
		}
		free <- b
	}
	return nil
}

// CacheStage builds a fresh cache stage and returns a function that takes
// every block the last Render(true) kept.
func (st *Stages) CacheStage() (func(), error) {
	fan, err := buildFanout(st.w.Scene.Textures, st.specs)
	if err != nil {
		return nil, err
	}
	return func() {
		for _, b := range st.blocks {
			fan.take(b)
		}
	}, nil
}
