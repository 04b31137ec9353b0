// Hypervector K-Means (paper Section III-④).
//
// The paper's clusterer, restated: centroids are the integer SUMS of the
// member pixel HVs (never re-binarized between iterations), points are
// assigned by COSINE distance (Eq. 7) because summation scales centroid
// length but not direction, and the initial centroids are the pixels
// with the largest color difference rather than random picks. The
// paper runs a fixed budget of iterations (default 10) and observes the
// labels saturating by about iteration 4; every run here stops at the
// first exact fixed point inside the budget instead (an iteration that
// moves no point, applies no queued reseed subtract and reseeds
// nothing), so its result is bit-identical to the full budget's.
//
// This implementation adds engineering features with identical
// semantics: (1) points carry integer multiplicities, so deduplicated
// pixel sets cluster exactly like the full pixel set; (2) the assignment
// step runs data-parallel over 64-point blocks, with the cosine dot
// reformulated word-blocked (per-centroid bit-plane snapshots,
// kernels::CountPlanes) so it streams fused AND+popcount passes through
// the dispatched SIMD backend instead of walking set bits serially — the
// integer dot, and therefore every label, is bit-identical to the serial
// formulation; (3) the update step keeps the centroids alive across
// iterations and moves only the points whose label changed (subtract
// from the old sum, add to the new one), rebuilding from scratch —
// per-chunk partial centroids in parallel, reduced in fixed order — only
// in iteration 0 and when at least half the points moved. Integer sums
// are exact and order-independent, so assignments and centroids are
// bit-identical to a rebuild every iteration, at every thread count;
// (4) the assignment skips candidates it can prove are not the nearest
// (per-centroid norm bounds, plus early-exit bounded kernels that abort
// a scan once the running distance loses to the best so far) — EXACT
// pruning only, ties still broken by the lowest index, so every label is
// the lowest-index argmin of the full distance row, at every K; (5)
// every point carries two bounds across iterations (Hamerly's O(n)
// scheme): one on its own centroid, one over all the others. Each
// assignment first loosens them by every centroid's exact drift since
// the previous one (integer count diffs for cosine, the Hamming
// distance between old and new majority rows for Hamming), and a point
// whose bounds still prove its own centroid the strict unique nearest
// keeps its label without a scan. When at least half the points settle
// that way, the rest are scanned with exact distances to all K
// centroids, so they leave exact bounds behind; otherwise they run the
// pruned scan of (4). A reseeded point's bounds are dropped, and before
// a reseed's farthest-point search the settled points' own distances
// are computed exactly.
#ifndef SEGHDC_CORE_KMEANS_HPP
#define SEGHDC_CORE_KMEANS_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/core/config.hpp"
#include "src/core/op_counts.hpp"
#include "src/hdc/accumulator.hpp"
#include "src/hdc/hypervector.hpp"
#include "src/hdc/kernels.hpp"
#include "src/util/parallel.hpp"

namespace seghdc::core {

struct HvKMeansConfig {
  std::size_t clusters = 2;
  std::size_t iterations = 10;
  ClusterDistance distance = ClusterDistance::kCosine;
  /// Thread pool for the assignment and update steps (nullptr = the
  /// process-wide shared pool). Results are bit-identical for every pool
  /// size: the assignment writes per-point slots and the update reduces
  /// integer partial sums, which are order-independent.
  util::ThreadPool* pool = nullptr;
};

struct HvKMeansResult {
  /// Cluster index per input point.
  std::vector<std::uint32_t> assignment;
  /// Final integer centroids (sum of member HVs, weighted).
  std::vector<hdc::Accumulator> centroids;
  /// Total member weight per cluster after the final assignment.
  std::vector<std::uint64_t> cluster_weights;
  std::size_t iterations_run = 0;
  /// Points whose label changed in each iteration's assignment step
  /// (iteration 0 compares against the all-zero initial labels), one
  /// entry per iteration run. The update step moves exactly these.
  std::vector<std::uint64_t> moved_per_iteration;
  /// True when the run ended at an exact fixed point before exhausting
  /// the budget; false when it ran all `iterations`. A converged result
  /// is bit-identical to the same run at any larger budget.
  bool converged = false;
  /// Number of empty-cluster reseeds performed.
  std::size_t reseeds = 0;
  /// Work performed. Assignment accounting is measured, not assumed:
  /// `distance_evals` counts pairs whose exact distance was computed,
  /// `candidates_pruned` counts pairs skipped by norm bounds, aborted
  /// bounded-kernel scans or carried bounds (a settled point counts all
  /// `clusters` pairs; evals + pruned == points * clusters per
  /// iteration), `dot_adds` adds `dim` per evaluated distance whose
  /// dot/scan actually ran, and `words_scanned` counts the words the
  /// assignment kernels actually streamed, partial scans included, plus
  /// the settled points' own-centroid distances a reseed recomputes.
  /// `centroid_update_adds` is measured too: `dim` per row the update
  /// step added or subtracted — n rows for a rebuild, two per moved
  /// point plus one per queued reseed subtract for a delta update.
  OpCounts ops;
};

class HvKMeans {
 public:
  explicit HvKMeans(const HvKMeansConfig& config);

  /// Clusters `points` (all of equal dimension) with per-point integer
  /// `weights` (empty span = all 1). `seed_points` are the indices used
  /// to initialise the centroids and must contain exactly `clusters`
  /// distinct indices — the caller implements the paper's
  /// "largest color difference" selection (see SegHdc::segment).
  /// Convenience overload: packs into an HvBlock and delegates.
  HvKMeansResult run(std::span<const hdc::HyperVector> points,
                     std::span<const std::uint32_t> weights,
                     std::span<const std::size_t> seed_points) const;

  /// The primary entry point: clusters the rows of a packed `HvBlock`.
  /// The assignment step streams the fused word-span kernels over block
  /// rows in parallel — no per-point HyperVector is ever materialised.
  HvKMeansResult run(const hdc::HvBlock& points,
                     std::span<const std::uint32_t> weights,
                     std::span<const std::size_t> seed_points) const;

  /// Warm-start entry point: the initial centroids are given DIRECTLY as
  /// binary HVs instead of as indices into `points`. Each seed HV is
  /// added with weight 1, exactly the seed-point semantics of `run` (a
  /// seed defines a direction, not a mass), so the two entry points
  /// differ only in where the initial directions come from. This is the
  /// temporal/video serving hook: seeding from the previous frame's
  /// majority-binarized centroids starts the iteration near the previous
  /// solution, so near-identical frames can reach the fixed point in
  /// fewer iterations. Requires exactly `clusters` seed HVs of the
  /// points' dimension, zero-padded like every HyperVector.
  /// Deterministic like `run`: same points, weights, and seed centroids
  /// give bit-identical assignments at every pool size and backend.
  HvKMeansResult run_from_centroids(
      const hdc::HvBlock& points, std::span<const std::uint32_t> weights,
      std::span<const hdc::HyperVector> seed_centroids) const;

 private:
  /// Shared iteration core; `init_centroids` seeds `centroids` (already
  /// sized to `clusters`, all zero) with the initial directions.
  HvKMeansResult run_impl(
      const hdc::HvBlock& points, std::span<const std::uint32_t> weights,
      const std::function<void(std::vector<hdc::Accumulator>&)>&
          init_centroids) const;

  HvKMeansConfig config_;
};

/// Farthest-point sampling over scalar intensities: returns `clusters`
/// distinct point indices, starting with the min/max pair (the "largest
/// color difference" of the paper) and greedily maximising the minimum
/// intensity gap for the rest. Weighted duplicates are allowed; indices
/// are deterministic (ties resolve to the lowest index).
std::vector<std::size_t> largest_color_difference_seeds(
    std::span<const std::uint8_t> intensities, std::size_t clusters);

}  // namespace seghdc::core

#endif  // SEGHDC_CORE_KMEANS_HPP
