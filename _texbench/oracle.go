package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"texcache/internal/cache"
	"texcache/internal/core"
)

// goldenJSON is the checked-in oracle: every spec's end-of-run counters
// for each benchmark input at bench scale, captured from the serial
// reference engine by -regen-golden.
//
//go:embed golden.json
var goldenJSON []byte

// goldenFile is the oracle file.
type goldenFile struct {
	Inputs []goldenInput `json:"inputs"`
}

// goldenInput is one scene at one scale, with the counters of every spec
// of its workloads.
type goldenInput struct {
	inputKey
	Specs []goldenSpec `json:"specs"`
}

// inputKey identifies a benchmark input.
type inputKey struct {
	Scene  string `json:"scene"`
	Width  int    `json:"width"`
	Height int    `json:"height"`
	Frames int    `json:"frames"`
}

// goldenSpec is one spec's expected totals.
type goldenSpec struct {
	Name     string         `json:"name"`
	Counters cache.Counters `json:"counters"`
}

func loadGolden(data []byte) (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return g, fmt.Errorf("golden: %w", err)
	}
	return g, nil
}

// lookup returns the golden counters of an input, if captured.
func (g goldenFile) lookup(k inputKey) ([]goldenSpec, bool) {
	for _, in := range g.Inputs {
		if in.inputKey == k {
			return in.Specs, true
		}
	}
	return nil, false
}

// reference runs the serial reference engine — one goroutine, every
// texel pushed through all hierarchies as it is rendered — over one
// input and returns every spec's totals.
func reference(in *input) ([]goldenSpec, error) {
	render := in.render
	render.Parallelism, render.RenderWorkers, render.ReplayWorkers = 1, 1, 0
	render.FastSweep = false
	cmp, err := core.RunComparison(in.w, render, in.specs)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	out := make([]goldenSpec, len(in.specs))
	for i, s := range in.specs {
		out[i] = goldenSpec{Name: s.Name, Counters: cmp.Results[i].Totals}
	}
	return out, nil
}

// oracle returns an input's expected counters: the golden capture when
// the file holds this input, else a fresh run of the serial reference
// engine.
func oracle(g goldenFile, in *input) ([]goldenSpec, error) {
	if want, ok := g.lookup(in.key); ok {
		if len(want) != len(in.specs) {
			return nil, fmt.Errorf("golden: %d specs for %+v, want %d", len(want), in.key, len(in.specs))
		}
		return want, nil
	}
	return reference(in)
}

// totals lists every result's end-of-run counters.
func totals(results []*core.Results) []cache.Counters {
	out := make([]cache.Counters, len(results))
	for i, r := range results {
		out[i] = r.Totals
	}
	return out
}

// checkExact counts the specs whose counters differ from the oracle in
// any field, describing the first mismatch.
func checkExact(want []goldenSpec, got []cache.Counters) (failed int, why string) {
	if len(got) != len(want) {
		return len(want), fmt.Sprintf("%d results for %d specs", len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w.Counters {
			if failed == 0 {
				why = fmt.Sprintf("spec %s: got %+v, want %+v", w.Name, got[i], w.Counters)
			}
			failed++
		}
	}
	return failed, why
}

// checkModel holds modeled results to the fast engine's contract: TLB
// statistics exact, the L1 hit rate and L2 full-hit rate within tolPP
// percentage points of the oracle. It also returns the largest rate
// error, in percentage points, over every spec.
func checkModel(want []goldenSpec, got []*core.Results, tolPP float64) (failed int, maxErrPP float64, why string) {
	if len(got) != len(want) {
		return len(want), 0, fmt.Sprintf("%d results for %d specs", len(got), len(want))
	}
	for i, w := range want {
		g := got[i].Totals
		l1 := 100 * math.Abs(g.L1.HitRate()-w.Counters.L1.HitRate())
		l2 := 100 * math.Abs(g.L2.FullHitRate()-w.Counters.L2.FullHitRate())
		maxErrPP = math.Max(maxErrPP, math.Max(l1, l2))
		if g.TLB != w.Counters.TLB || l1 > tolPP || l2 > tolPP {
			if failed == 0 {
				why = fmt.Sprintf("spec %s: tlb %+v want %+v, l1 err %.3f pp, l2 err %.3f pp",
					w.Name, g.TLB, w.Counters.TLB, l1, l2)
			}
			failed++
		}
	}
	return failed, maxErrPP, why
}

// regenGolden captures the oracle for both scenes at scale sc and writes
// it to path. The binary embeds the file, so rebuild after regenerating.
func regenGolden(path string, sc scale, log io.Writer) error {
	var g goldenFile
	for _, scene := range []string{sceneVillage, sceneCity} {
		in, err := newInput(scene, sc)
		if err != nil {
			return err
		}
		specs, err := reference(in)
		if err != nil {
			return err
		}
		fmt.Fprintf(log, "texbench: captured %+v\n", in.key)
		g.Inputs = append(g.Inputs, goldenInput{inputKey: in.key, Specs: specs})
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
