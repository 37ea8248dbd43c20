package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"texcache/internal/experiments"
)

// tiny is a scale small enough for unit tests; no golden covers it, so
// the oracle falls back to the serial reference engine. On streams this
// short the reuse model's error reaches several percentage points.
var tiny = scale{Width: 64, Height: 48, VillageFrames: 3, CityFrames: 3, ModelTolPP: 10}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 100}, 1.5, 3, 52},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
		if got := median(c.xs); got != m {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, m)
		}
	}
}

func TestExtremes(t *testing.T) {
	xs := []float64{3, 7, 1, 5}
	if lo, hi := lowest(xs), highest(xs); lo != 1 || hi != 7 {
		t.Errorf("lowest, highest of %v = %v, %v; want 1, 7", xs, lo, hi)
	}
	if lo, hi := lowest([]float64{2}), highest([]float64{2}); lo != 2 || hi != 2 {
		t.Errorf("one sample: lowest %v, highest %v; want 2, 2", lo, hi)
	}
}

func TestGoldenCoversBenchScale(t *testing.T) {
	g, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	sc := benchScale()
	for _, scene := range []string{sceneVillage, sceneCity} {
		in, err := newInput(scene, sc)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := g.lookup(in.key)
		if !ok {
			t.Fatalf("golden.json lacks %+v; regenerate it with -regen-golden", in.key)
		}
		if len(want) != len(in.specs) {
			t.Fatalf("%s: %d golden specs, want %d", scene, len(want), len(in.specs))
		}
		for i, s := range in.specs {
			if want[i].Name != s.Name || want[i].Counters.L1.Accesses == 0 {
				t.Errorf("%s spec %d: golden %q with %d accesses, want %q", scene, i,
					want[i].Name, want[i].Counters.L1.Accesses, s.Name)
			}
		}
	}
	if n := len(experiments.SweepSpecs()); n != 13 {
		t.Errorf("sweep has %d specs, the golden file was captured for 13", n)
	}
}

func TestOracleReportsPerturbedGolden(t *testing.T) {
	in, err := newInput(sceneVillage, tiny)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runComparison(in, in.render)
	if err != nil {
		t.Fatal(err)
	}
	if failed, why := checkExact(want, totals(out.results)); failed != 0 {
		t.Fatalf("default engine differs from the reference: %s", why)
	}
	bad := append([]goldenSpec(nil), want...)
	bad[5].Counters.L2.FullHits++
	if failed, _ := checkExact(bad, totals(out.results)); failed != 1 {
		t.Errorf("perturbed golden: %d specs failed, want 1", failed)
	}

	fast := in.render
	fast.FastSweep = true
	fout, err := runComparison(in, fast)
	if err != nil {
		t.Fatal(err)
	}
	if failed, _, why := checkModel(want, fout.results, tiny.ModelTolPP); failed != 0 {
		t.Fatalf("fast engine outside the model tolerance: %s", why)
	}
	bad = append([]goldenSpec(nil), want...)
	bad[9].Counters.TLB.Hits++                                   // TLB statistics must match exactly
	bad[0].Counters.L1.Misses += bad[0].Counters.L1.Accesses / 5 // a 20 pp L1 hit-rate error
	if failed, _, _ := checkModel(bad, fout.results, tiny.ModelTolPP); failed != 2 {
		t.Errorf("perturbed golden: %d modeled specs failed, want 2", failed)
	}

	// Through the run loop, a perturbed golden marks the run incorrect.
	bad = append([]goldenSpec(nil), want...)
	bad[5].Counters.HostBytes++
	g := goldenFile{Inputs: []goldenInput{{inputKey: in.key, Specs: bad}}}
	res, _, err := runWorkload(villageSweep, tiny, g, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("run against a perturbed golden: correct %v, %d of %d failed; want one failure",
			res.Correct, res.Failed, res.Attempted)
	}
}

// declared reads the metric declarations of BENCHMARK.json at the
// repository root.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkMetrics requires exactly the declared metrics, with their units
// and finite values.
func checkMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", name)
		case m.Unit != unit:
			t.Errorf("metric %s in %s, declared in %s", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not declared", name)
		}
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	endToEnd, _ := declared(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, streams, err := runWorkload(name, tiny, goldenFile{}, 0, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("correct %v, %d attempted, %d failed", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res.Metrics, endToEnd)
			for _, n := range []string{"setup_s", "refs_per_s", "cpu_ns_per_ref", "alloc_mb", "peak_rss_mb"} {
				if res.Metrics[n].Value <= 0 {
					t.Errorf("%s = %v, want > 0", n, res.Metrics[n].Value)
				}
			}
			if _, err := newManifest("..", name, 1, false, tiny, streams); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestTracedRunReconciles(t *testing.T) {
	_, perLayer := declared(t)
	res, streams, err := runTraced(tiny, goldenFile{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 8 {
		t.Errorf("correct %v, %d reconciliations, %d failed", res.Correct, res.Attempted, res.Failed)
	}
	checkMetrics(t, res.Metrics, perLayer)
	if _, err := newManifest("..", villageSweep, 1, true, tiny, streams); err != nil {
		t.Error(err)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", villageSweep, "--trace", "2"},
		{"--bogus"},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no output", args, code, out.String())
		}
	}
}
