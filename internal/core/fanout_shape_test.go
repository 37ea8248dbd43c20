package core_test

import (
	"reflect"
	"testing"

	"texcache/internal/cache"
	"texcache/internal/core"
	"texcache/internal/experiments"
	"texcache/internal/texture"
)

// TestFanoutSharesL1PerGeometry pins the sink's structure. Specs group by
// L1 size and effective associativity (0 and 2 ways are one geometry),
// and each group's hierarchies share its L1. The groups of one
// associativity form one chain, smallest first; a direct-mapped group is
// a chain of its own. The render stage's MRU filter has one slot per set
// of the smallest cache with the fewest sets, other than a fully
// associative one, and a chain whose smallest cache has more sets refines
// it with a filter of its own. A fully associative chain makes the render
// stage record every line that is not a repeat. Within a group, specs
// with one L2 configuration share one L2.
func TestFanoutSharesL1PerGeometry(t *testing.T) {
	set := texture.NewSet()
	set.Register(texture.MustNew("a", 64, 64, texture.RGBA8888, nil))
	set.MustPrepare(texture.CanonicalL1())

	specs := experiments.SweepSpecs()
	sh, err := core.FanoutShapeOf(set, specs)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}}; !reflect.DeepEqual(sh.Sizes, want) ||
		!reflect.DeepEqual(sh.Ways, []int{2}) {
		t.Errorf("SweepSpecs chains: ways %v sizes %v, want one 2-way chain %v", sh.Ways, sh.Sizes, want)
	}
	if sh.FilterSets != 16 || !reflect.DeepEqual(sh.RefineSets, []int{0}) || sh.AllLines {
		t.Errorf("SweepSpecs MRU filter of %d sets, refined %v, all lines %v; want 16 (the 2 KB 2-way L1), none, false",
			sh.FilterSets, sh.RefineSets, sh.AllLines)
	}
	l2s, backed := map[int]bool{}, 0
	for i, spec := range specs {
		if l1 := specs[sh.L1Of[i]]; l1.L1Bytes != spec.L1Bytes {
			t.Errorf("%s uses the %d-byte L1 of %s", spec.Name, l1.L1Bytes, l1.Name)
		}
		if sh.L2Of[i] < 0 {
			continue
		}
		backed++
		l2s[sh.L2Of[i]] = true
		if owner := specs[sh.L2Of[i]]; *owner.L2 != *spec.L2 || owner.L1Bytes != spec.L1Bytes {
			t.Errorf("%s shares the L2 of %s", spec.Name, owner.Name)
		}
	}
	if backed != 8 || len(l2s) != 4 {
		t.Errorf("SweepSpecs: %d distinct L2s for %d L2-backed specs, want 4 for 8", len(l2s), backed)
	}
	for _, name := range []string{"tlb-1", "tlb-2", "tlb-4", "tlb-8"} {
		for i, spec := range specs {
			if spec.Name == name && specs[sh.L2Of[i]].Name != "l2-2m" {
				t.Errorf("%s does not share l2-2m's L2", name)
			}
		}
	}

	l2 := &cache.L2Config{
		SizeBytes: 16 << 10,
		Layout:    texture.TileLayout{L2Size: 16, L1Size: 4},
		Policy:    cache.Clock,
	}
	pool := []core.CacheSpec{
		{Name: "pull-2k", L1Bytes: 2 << 10},
		{Name: "l2-2k", L1Bytes: 2 << 10, L1Ways: 2, L2: l2, TLBEntries: 4},
		{Name: "pull-1k", L1Bytes: 1 << 10},
		{Name: "pull-2k-direct", L1Bytes: 2 << 10, L1Ways: 1},
		{Name: "pull-4k", L1Bytes: 4 << 10},
		{Name: "l2-2k-tlb-1", L1Bytes: 2 << 10, L2: l2, TLBEntries: 1},
	}
	sh, err = core.FanoutShapeOf(set, pool)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{1 << 10, 2 << 10, 4 << 10}, {2 << 10}}; !reflect.DeepEqual(sh.Sizes, want) ||
		!reflect.DeepEqual(sh.Ways, []int{2, 1}) {
		t.Errorf("direct-mapped pool: ways %v sizes %v, want 2-way %v then 1-way %v", sh.Ways, sh.Sizes, want[0], want[1])
	}
	if want := []int{0, 0, 2, 3, 4, 0}; !reflect.DeepEqual(sh.L1Of, want) {
		t.Errorf("direct-mapped pool: L1 owners %v, want %v", sh.L1Of, want)
	}
	if want := []int{-1, 1, -1, -1, -1, 1}; !reflect.DeepEqual(sh.L2Of, want) {
		t.Errorf("direct-mapped pool: L2 owners %v, want %v", sh.L2Of, want)
	}
	if sh.FilterSets != 8 || !reflect.DeepEqual(sh.RefineSets, []int{0, 32}) || sh.AllLines {
		t.Errorf("direct-mapped pool: MRU filter of %d sets, refined %v, all lines %v; want 8 (1 KB 2-way), [0 32] (2 KB direct), false",
			sh.FilterSets, sh.RefineSets, sh.AllLines)
	}

	// A fully associative chain takes no part in the filter's size.
	pool = append(pool, core.CacheSpec{Name: "pull-1k-full", L1Bytes: 1 << 10, L1Ways: 16})
	if sh, err = core.FanoutShapeOf(set, pool); err != nil {
		t.Fatal(err)
	}
	if sh.FilterSets != 8 || !reflect.DeepEqual(sh.RefineSets, []int{0, 32, 0}) || !sh.AllLines {
		t.Errorf("fully associative pool: MRU filter of %d sets, refined %v, all lines %v; want 8, [0 32 0], true",
			sh.FilterSets, sh.RefineSets, sh.AllLines)
	}
}
