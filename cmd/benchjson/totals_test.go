package main

import (
	"testing"

	"texcache/internal/core"
	"texcache/internal/raster"
	"texcache/internal/workload"
)

// TestComparisonTotalsFilled pins the manifest totals of a tiny exact
// sweep: every field the sweep can move is non-zero, and the reference
// and miss counts are the specs' totals summed.
func TestComparisonTotalsFilled(t *testing.T) {
	specs := []core.CacheSpec{
		{Name: "pull-2k", L1Bytes: 2 << 10},
		{Name: "pull-8k", L1Bytes: 8 << 10},
	}
	render := core.Config{Width: 64, Height: 48, Frames: 2, Mode: raster.Trilinear}
	cmp, err := core.RunComparison(workload.Village(), render, specs)
	if err != nil {
		t.Fatal(err)
	}
	got := comparisonTotals(cmp)
	if got.TexelRefs == 0 || got.L1Misses == 0 || got.HostBytes == 0 {
		t.Fatalf("totals left zero: %+v", got)
	}
	if want := int64(render.Frames * len(specs)); got.FrameRecords != want {
		t.Errorf("frame records = %d, want %d", got.FrameRecords, want)
	}
	var refs, misses int64
	for _, res := range cmp.Results {
		refs += res.Totals.L1.Accesses
		misses += res.Totals.L1.Misses
	}
	if got.TexelRefs != refs || got.L1Misses != misses {
		t.Errorf("texel_refs, l1_misses = %d, %d; want %d, %d",
			got.TexelRefs, got.L1Misses, refs, misses)
	}
}
