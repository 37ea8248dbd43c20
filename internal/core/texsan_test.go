//go:build texsan

package core

import (
	"testing"

	"texcache/internal/cache"
	"texcache/internal/raster"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

// These tests exist for the texsan lane (go test -tags texsan ./...):
// they drive reduced Village and City animations through the paper's
// baseline hierarchy with the runtime invariant sanitizer compiled in, so
// every access replays the counter identities and every 4096th access
// cross-checks the page table, BRL and weak L1/L2 inclusion. A panic
// inside the cache package fails the test.

// sanConfig is the paper's baseline configuration at a reduced scale.
func sanConfig(frames int) Config {
	return Config{
		Width: 256, Height: 192, Frames: frames,
		Mode:    raster.Trilinear,
		L1Bytes: 2 << 10,
		L2: &cache.L2Config{
			SizeBytes: 2 << 20,
			Layout:    texture.TileLayout{L2Size: 16, L1Size: 4},
			Policy:    cache.Clock,
		},
		TLBEntries: 16,
	}
}

func runSanitized(t *testing.T, w *workload.Workload, cfg Config) {
	t.Helper()
	res, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.L1.Accesses == 0 || res.Totals.L2.Accesses() == 0 {
		t.Fatalf("%s produced no cache activity: %+v", w.Name, res.Totals)
	}
}

func TestTexsanVillageReduced(t *testing.T) {
	runSanitized(t, workload.Village(), sanConfig(12))
}

func TestTexsanCityReduced(t *testing.T) {
	runSanitized(t, workload.City(), sanConfig(12))
}

func TestTexsanVillagePullArchitecture(t *testing.T) {
	cfg := sanConfig(6)
	cfg.L2 = nil
	cfg.TLBEntries = 0
	w := workload.Village()
	res, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.HostBytes != res.Totals.L1.Misses*cache.L1LineBytes {
		t.Fatalf("pull bandwidth identity violated: %+v", res.Totals)
	}
}
