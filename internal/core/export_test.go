package core

import (
	"fmt"

	"texcache/internal/texture"
)

// FanoutShape is the structure of the exact engine's sink over a spec
// list, for tests outside the package.
type FanoutShape struct {
	// Ways and Sizes give each chain's associativity and its L1 sizes in
	// bytes, in lookup order.
	Ways  []int
	Sizes [][]int
	// FilterSets gives each chain's MRU filter size: the set count of
	// its smallest cache.
	FilterSets []int
	// L1Of and L2Of give, per spec, the index of the first spec whose L1
	// (L2) cache its hierarchy uses; L2Of is -1 for a pull spec.
	L1Of, L2Of []int
}

// FanoutShapeOf builds the exact engine's two stages over specs and
// reports their structure.
func FanoutShapeOf(set *texture.Set, specs []CacheSpec) (FanoutShape, error) {
	sink, err := buildFanout(set, specs)
	if err != nil {
		return FanoutShape{}, err
	}
	rs := newStreamFilter(sink)
	var sh FanoutShape
	for c, ch := range sink.chains {
		sizes := make([]int, 0, len(ch.groups))
		for _, g := range ch.groups {
			sizes = append(sizes, g.l1.SizeBytes())
		}
		sh.Ways = append(sh.Ways, ch.groups[0].l1.Ways())
		sh.Sizes = append(sh.Sizes, sizes)
		sh.FilterSets = append(sh.FilterSets, len(rs.filters[c].mru))
	}
	first := func(same func(a, b *specState) bool, i int) int {
		for j := range sink.specs[:i] {
			if same(&sink.specs[j], &sink.specs[i]) {
				return j
			}
		}
		return i
	}
	for i, sp := range sink.specs {
		sh.L1Of = append(sh.L1Of, first(func(a, b *specState) bool { return a.hier.L1 == b.hier.L1 }, i))
		l2, owner := -1, -1
		if sp.hier.L2 != nil {
			l2 = first(func(a, b *specState) bool { return a.hier.L2 == b.hier.L2 }, i)
		}
		if l2 != i {
			owner = l2
		}
		if sp.owner != owner {
			return sh, fmt.Errorf("spec %d books the L2 results of spec %d but uses spec %d's L2", i, sp.owner, l2)
		}
		sh.L2Of = append(sh.L2Of, l2)
	}
	return sh, nil
}
