// Package workload builds the two scripted animations of the study. The
// paper used the Evans & Sutherland Village database (walk-through, 411
// frames) and the UCLA City database (fly-through, 525 frames); neither is
// publicly available, so this package procedurally generates scenes tuned
// to the published workload statistics that drive every result:
//
//   - Village: a small texture set heavily shared between objects and
//     repeated (wrapped) across surfaces; eye-level walk-through; depth
//     complexity ~3.8, 16x16-block utilisation ~4.7 (Table 1).
//   - City: per-building facade textures that repeat within an object but
//     are not shared between objects; fly-through; depth complexity ~1.9,
//     utilisation ~7.8.
//
// Generation is deterministic: the same workload is produced on every run.
package workload

import (
	"fmt"
	"math"

	"texcache/internal/scene"
	"texcache/internal/vecmath"
)

// Workload is a scene plus its scripted animation.
type Workload struct {
	Name string
	// Scene holds the geometry and the texture registry.
	Scene *scene.Scene
	// Path scripts the camera.
	Path scene.Path
	// Frames is the paper-scale frame count of the animation.
	Frames int
	// EyeHeightUp biases the look-at up vector; both workloads use +Y.
	Up vecmath.Vec3
}

// ByName builds the named workload: "village", "city" or "mall", as the
// commands' -workload flag names them.
func ByName(name string) (*Workload, error) {
	switch name {
	case "village":
		return Village(), nil
	case "city":
		return City(), nil
	case "mall":
		return Mall(), nil
	}
	return nil, fmt.Errorf("workload: unknown workload %q; valid workloads: village, city, mall", name)
}

// Camera returns the camera for frame f of n, with the given projection
// aspect ratio. n defaults to the workload's paper-scale frame count when
// zero or negative.
func (w *Workload) Camera(aspect float64, f, n int) scene.Camera {
	if n <= 0 {
		n = w.Frames
	}
	cam := scene.DefaultCamera(aspect)
	cam.Near = 0.3
	cam.Far = 3000
	cam.FovY = math.Pi / 3
	return w.Path.CameraAt(cam, f, n)
}

// rng is a small deterministic PRNG (xorshift*) so that workload
// construction never depends on external seeds or library changes.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed | 1} }

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// rangef returns a value in [lo, hi).
func (r *rng) rangef(lo, hi float64) float64 {
	return lo + (hi-lo)*float64(r.next()%1_000_000)/1_000_000
}
