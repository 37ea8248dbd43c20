// Package texcache reproduces "Multi-Level Texture Caching for 3D Graphics
// Hardware" (Cox, Bhandari, Shantz; ISCA 1998): a trace-driven study of a
// two-level texture cache for 3D accelerators, in which a small on-chip L1
// texture cache is backed by a multi-megabyte L2 cache in accelerator-local
// DRAM managed like virtual memory, with textures resident in host system
// memory.
//
// The repository layout:
//
//   - internal/texture: MIP pyramids, hierarchical tiling, <tid, L2, L1>
//     virtual texture addressing.
//   - internal/cache: L1 set-associative cache, L2 page-table cache with
//     clock replacement and sector mapping, TLB.
//   - internal/raster, internal/scene: the perspective-correct scanline
//     rasterizer and scene pipeline that generate texel reference streams.
//   - internal/workload: procedural Village and City animations tuned to
//     the paper's published workload statistics.
//   - internal/core: the transaction-accurate simulator, one exact engine
//     (one render fanned out to every cache configuration; a single
//     configuration is a comparison of one), and trace record/replay.
//   - internal/model: the paper's analytic models (working set, structure
//     sizes, fractional advantage).
//   - internal/experiments: regenerators for every table and figure.
//   - internal/lint, cmd/texlint: the repo's stdlib-only static-analysis
//     suite. `go run ./cmd/texlint ./...` checks determinism of the texel
//     reference stream (no wall-clock, no unseeded randomness, no
//     order-dependent map iteration), 64-bit counter widths, hot-path
//     hygiene on texlint:hotpath functions, panic-message prefixes,
//     unchecked errors, hot-path allocation, global mutation and
//     map-order taint reaching output; `-list` names the eight analyzers,
//     and findings are suppressed with //texlint:ignore <analyzer>
//     comments.
//
// See README.md for a tour and EXPERIMENTS.md for reproduction results.
package texcache
