package raster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// footprint is a pixel's texture-space derivatives.
type footprint struct{ dudx, dvdx, dudy, dvdy float64 }

// lodCase names one footprint of the LOD table.
type lodCase struct {
	name string
	fp   footprint
}

// nudge moves x by n ulps.
func nudge(x float64, n int) float64 {
	dir := math.Inf(1)
	if n < 0 {
		dir, n = math.Inf(-1), -n
	}
	for ; n > 0; n-- {
		x = math.Nextafter(x, dir)
	}
	return x
}

// checkLOD compares footprintLOD's levels with the exact expression's.
func checkLOD(t *testing.T, fp footprint) {
	t.Helper()
	got := footprintLOD(fp.dudx, fp.dvdx, fp.dudy, fp.dvdy)
	want := exactLOD(lambdaOf(fp.dudx, fp.dvdx, fp.dudy, fp.dvdy))
	if got.floor != want.floor || got.round != want.round || got.magnify != want.magnify {
		t.Errorf("%+v: floor %d round %d magnify %v, want %d %d %v (λ = %v)",
			fp, got.floor, got.round, got.magnify, want.floor, want.round, want.magnify,
			lambdaOf(fp.dudx, fp.dvdx, fp.dudy, fp.dvdy))
	}
}

// TestFootprintLODMatchesLog2 pins footprintLOD to the exact
// log2 max(hypot, hypot) where its levels change: on and a few ulps
// either side of ρ = 2^k and ρ = 2^(k+½), along either axis and the
// diagonal, as well as at zero and on a seeded random sweep.
func TestFootprintLODMatchesLog2(t *testing.T) {
	tests := []lodCase{
		{"zero", footprint{}},
		{"negative", footprint{-3, 0, 0, -0.75}},
		{"anisotropic-y", footprint{0.5, 0.25, 6, -7}},
		{"tiny", footprint{1e-170, 0, 0, 0}},
		{"huge", footprint{1e170, 1e170, 0, 0}},
	}
	for h := -12; h <= 24; h++ { // ρ = 2^(h/2)
		b := math.Pow(2, float64(h)/2)
		for n := -3; n <= 3; n++ {
			at := fmt.Sprintf("2^(%d/2)%+dulp", h, n)
			tests = append(tests,
				lodCase{"u=" + at, footprint{nudge(b, n), 0, 0, 0}},
				lodCase{"dvdy=" + at, footprint{0, 0, 0, nudge(b, n)}},
				lodCase{"diag=" + at, footprint{nudge(b/math.Sqrt2, n), b / math.Sqrt2, 0, 0}},
			)
		}
	}

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) { checkLOD(t, tt.fp) })
	}

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		d := func() float64 {
			if rng.Intn(8) == 0 {
				return 0
			}
			x := math.Pow(2, rng.Float64()*40-20)
			if rng.Intn(2) == 0 {
				x = -x
			}
			return x
		}
		for i := 0; i < 200000 && !t.Failed(); i++ {
			checkLOD(t, footprint{d(), d(), d(), d()})
		}
	})
}
