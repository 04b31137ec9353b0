#include "src/core/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>

#include "src/obs/trace.hpp"
#include "src/util/contracts.hpp"
#include "src/util/parallel.hpp"

namespace seghdc::core {

HvKMeans::HvKMeans(const HvKMeansConfig& config) : config_(config) {
  util::expects(config_.clusters >= 2 && config_.clusters <= 4096,
                "HvKMeans supports 2..4096 clusters");
  util::expects(config_.iterations >= 1,
                "HvKMeans needs at least one iteration");
}

HvKMeansResult HvKMeans::run(std::span<const hdc::HyperVector> points,
                             std::span<const std::uint32_t> weights,
                             std::span<const std::size_t> seed_points) const {
  // from_hvs validates uniform dimensions; the block overload validates
  // the rest (an empty span packs to an empty block, which it rejects).
  return run(hdc::HvBlock::from_hvs(points), weights, seed_points);
}

HvKMeansResult HvKMeans::run(const hdc::HvBlock& points,
                             std::span<const std::uint32_t> weights,
                             std::span<const std::size_t> seed_points) const {
  util::expects(seed_points.size() == config_.clusters,
                "HvKMeans::run needs exactly `clusters` seed points");
  return run_impl(points, weights,
                  [&](std::vector<hdc::Accumulator>& centroids) {
                    // Initial centroids: the seed points themselves
                    // (weight 1 — a seed defines a direction, not a
                    // mass).
                    for (std::size_t c = 0; c < centroids.size(); ++c) {
                      util::expects(seed_points[c] < points.count(),
                                    "HvKMeans seed index in range");
                      centroids[c].add(points.row(seed_points[c]), 1);
                    }
                  });
}

HvKMeansResult HvKMeans::run_from_centroids(
    const hdc::HvBlock& points, std::span<const std::uint32_t> weights,
    std::span<const hdc::HyperVector> seed_centroids) const {
  util::expects(seed_centroids.size() == config_.clusters,
                "HvKMeans::run_from_centroids needs exactly `clusters` "
                "seed centroids");
  for (const auto& seed : seed_centroids) {
    util::expects(seed.dim() == points.dim(),
                  "HvKMeans::run_from_centroids seed centroid dimension "
                  "must match the points");
  }
  return run_impl(points, weights,
                  [&](std::vector<hdc::Accumulator>& centroids) {
                    for (std::size_t c = 0; c < centroids.size(); ++c) {
                      centroids[c].add(seed_centroids[c], 1);
                    }
                  });
}

HvKMeansResult HvKMeans::run_impl(
    const hdc::HvBlock& points, std::span<const std::uint32_t> weights,
    const std::function<void(std::vector<hdc::Accumulator>&)>&
        init_centroids) const {
  util::expects(!points.empty(), "HvKMeans::run needs at least one point");
  util::expects(points.count() >= config_.clusters,
                "HvKMeans::run needs at least as many points as clusters");
  util::expects(weights.empty() || weights.size() == points.count(),
                "HvKMeans::run weights must be empty or match points");
  // The distance kernels index centroid counts by set-bit position, so a
  // stray bit above dim would read out of bounds; enforce the padding
  // invariant once up front (one word test per row).
  if (points.dim() % 64 != 0) {
    for (std::size_t i = 0; i < points.count(); ++i) {
      util::expects(hdc::kernels::padding_is_zero(points.row(i), points.dim()),
                    "HvKMeans::run block rows must have zero padding bits");
    }
  }

  const auto weight_of = [&](std::size_t i) -> std::uint32_t {
    return weights.empty() ? 1u : weights[i];
  };

  const std::size_t n = points.count();
  const std::size_t dim = points.dim();
  const std::size_t k = config_.clusters;
  util::ThreadPool& pool =
      config_.pool != nullptr ? *config_.pool : util::ThreadPool::shared();

  HvKMeansResult result;
  result.assignment.assign(n, 0);
  result.centroids.assign(k, hdc::Accumulator(dim));
  result.cluster_weights.assign(k, 0);

  init_centroids(result.centroids);

  // Cached per-point popcounts and norms: the raw popcount is the
  // Hamming norm bound of the assignment, its sqrt the cosine point norm.
  std::vector<std::uint32_t> point_pop(n);
  std::vector<double> point_norm(n);
  pool.parallel_for(
      0, n,
      [&](std::size_t i) {
        const std::size_t pop = points.popcount(i);
        point_pop[i] = static_cast<std::uint32_t>(pop);
        point_norm[i] = std::sqrt(static_cast<double>(pop));
      },
      /*grain=*/256);
  result.ops.popcount_bits += static_cast<std::uint64_t>(n) * dim;

  // One backend resolve for the whole run; every distance scan below
  // goes through this vtable reference instead of re-dispatching per
  // (point, centroid) pair.
  const hdc::simd::KernelBackend& backend = hdc::simd::active_backend();
  // Per-iteration candidate tables (storage reused across iterations):
  // centroid indices sorted by popcount for Hamming, per-centroid dot
  // upper bounds for cosine.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sorted_pops(
      config_.distance == ClusterDistance::kHamming ? k : 0);
  std::vector<std::int64_t> centroid_count_sum(
      config_.distance == ClusterDistance::kCosine ? k : 0);
  // Assignment work, counted per 64-point block: each block keeps its
  // counters local and writes its own slot once per pass, and the slots are
  // summed in block order — no shared mutable state inside the scan, and
  // integer sums make the totals identical at every pool size.
  struct AssignCounts {
    std::uint64_t moved = 0;
    std::uint64_t evals = 0;
    std::uint64_t kernel_evals = 0;
    std::uint64_t pruned = 0;
    std::uint64_t words = 0;
    std::uint64_t skipped = 0;
  };
  constexpr std::size_t kAssignBlock = 64;
  std::vector<AssignCounts> block_counts((n + kAssignBlock - 1) /
                                         kAssignBlock);

  // Carried per-point bounds (Hamerly, "Making k-means even faster",
  // SDM 2010): 16 bytes per point, no n * K table. For cosine,
  // bound_own is a lower bound on the integer dot with the own
  // centroid and bound_other an upper bound on max over the other
  // centroids of dot / norm; for Hamming, an upper bound on the own
  // distance and a lower bound on every other one. Each assignment
  // loosens them by every centroid's exact drift since the previous
  // assignment; a point whose loosened bounds still prove its own
  // centroid the strict unique nearest keeps its label without a scan
  // (`settled`). `no_bound` never proves anything: it marks a point
  // whose bounds a reseed invalidated.
  const bool cosine = config_.distance == ClusterDistance::kCosine;
  const double no_bound = cosine ? std::numeric_limits<double>::infinity()
                                 : -std::numeric_limits<double>::infinity();
  std::vector<std::int64_t> bound_own(n, 0);
  std::vector<double> bound_other(n, no_bound);
  std::vector<std::uint8_t> settled(n, 0);
  // Relative guard on every float step of the cosine bound_other: each
  // product, quotient or sum in its update and in the skip test rounds
  // by at most 2^-53 relative, and no chain between two guard
  // applications has more than a handful of them, so scaling by
  // 1 + 2^-40 on every write keeps bound_other a true upper bound in
  // real arithmetic however many iterations it is carried, and scaling
  // once more in the test makes the rounded threshold sit at or below
  // the rounded distance of every other centroid (see the skip test).
  constexpr double kBoundGuard = 1.0 + 0x1p-40;
  // The largest of k per-centroid values, and the largest once one
  // centroid is left out, so a per-point max over c != own is O(1).
  struct TopTwo {
    double first = -std::numeric_limits<double>::infinity();
    double second = -std::numeric_limits<double>::infinity();
    std::size_t at = std::numeric_limits<std::size_t>::max();
    void add(std::size_t c, double value) {
      if (value > first) {
        second = first;
        first = value;
        at = c;
      } else if (value > second) {
        second = value;
      }
    }
    double without(std::size_t c) const { return c == at ? second : first; }
  };

  // Update-step partials: one bank of k accumulators per chunk, so the
  // per-cluster accumulation runs without any shared mutable state and
  // the reduction walks the chunks in fixed order. Allocated once here
  // and cleared per iteration. Chunk count depends only on the pool, not
  // on the data; one chunk degrades to the plain sequential loop.
  const std::size_t update_chunks =
      util::SerialScope::active()
          ? 1
          : std::min<std::size_t>({n, pool.thread_count(), 16});
  std::vector<std::vector<hdc::Accumulator>> partial_centroids;
  std::vector<std::vector<std::uint64_t>> partial_weights;
  if (update_chunks > 1) {
    partial_centroids.resize(update_chunks);
    partial_weights.resize(update_chunks);
    for (std::size_t chunk = 0; chunk < update_chunks; ++chunk) {
      partial_centroids[chunk].assign(k, hdc::Accumulator(dim));
      partial_weights[chunk].assign(k, 0);
    }
  }

  // The labels the centroids currently sum over. Equal to
  // result.assignment after every update step and reseed, so the next
  // delta update moves exactly the points the assignment step changed.
  std::vector<std::uint32_t> centroid_labels;
  // Reseed source subtracts (point, source cluster), queued by one
  // iteration's reseeds and applied at the start of the next update
  // step: until then the source keeps the point's mass, so the next
  // assignment sees the same centroids a from-scratch rebuild left.
  std::vector<std::pair<std::size_t, std::uint32_t>> pending_reseed_subs;
  result.moved_per_iteration.reserve(config_.iterations);

  std::vector<double> distance_to_own(n, 0.0);
  // Majority-binarized centroids for the Hamming variant, double
  // buffered: each iteration swaps them and fully overwrites the newer
  // one, so the older keeps the rows the previous assignment saw.
  hdc::HvBlock binary_centroids;
  hdc::HvBlock prev_binary_centroids;
  if (config_.distance == ClusterDistance::kHamming) {
    binary_centroids = hdc::HvBlock(dim, k);
    prev_binary_centroids = hdc::HvBlock(dim, k);
  }
  // Per-iteration snapshots of the centroid state, so the parallel
  // assignment reads plain arrays instead of calling into Accumulator
  // or re-resolving block rows per (point, centroid) pair. For cosine,
  // the snapshot is the bit-plane decomposition of each centroid
  // (kernels::CountPlanes): building it costs about one point's worth
  // of work per centroid and turns every subsequent dot into
  // plane_count() fused AND+popcount passes — the same bandwidth-bound
  // shape (and SIMD backends) as the Hamming kernel, with bit-identical
  // integer dots.
  std::vector<hdc::kernels::CountPlanes> centroid_planes(
      config_.distance == ClusterDistance::kCosine ? k : 0);
  std::vector<double> centroid_norm(k);
  std::vector<double> centroid_inv_norm(k);
  std::vector<std::span<const std::uint64_t>> binary_centroid_rows(k);
  // The cosine counts and norms the previous assignment saw, for the
  // drift (Hamming keeps its previous majority rows instead).
  std::vector<std::int64_t> prev_counts(cosine ? k * dim : 0);
  std::vector<double> prev_norm(k, 0.0);

  for (std::size_t iter = 0; iter < config_.iterations; ++iter) {
    obs::SpanScope iter_span("kmeans_iter", "core", "iter", iter);
    if (config_.distance == ClusterDistance::kHamming) {
      std::swap(binary_centroids, prev_binary_centroids);
      for (std::size_t c = 0; c < k; ++c) {
        const auto majority = result.centroids[c].to_majority();
        const auto src = majority.words();
        const auto dst = binary_centroids.row(c);
        std::copy(src.begin(), src.end(), dst.begin());
        binary_centroid_rows[c] = dst;
      }
    } else {
      for (std::size_t c = 0; c < k; ++c) {
        result.centroids[c].snapshot_planes(centroid_planes[c]);
      }
    }
    for (std::size_t c = 0; c < k; ++c) {
      centroid_norm[c] = result.centroids[c].norm();
      centroid_inv_norm[c] = 1.0 / centroid_norm[c];
    }
    // --- Assignment step (data parallel over 64-point blocks; fused
    // word-span kernels on the block rows, no per-point HyperVector
    // temporaries). The distance branch is hoisted out of the inner
    // loops: each iteration selects one of two loop bodies up front. Both
    // only skip candidates they can PROVE lose the argmin, index
    // tie-break included, so every label is the lowest-index argmin of
    // the full distance row. ---
    AssignCounts assigned;
    {
      // The three arg slots carry the work split and the settled count,
      // the label the scan mode; the iteration number is on the parent
      // kmeans_iter span.
      obs::SpanScope assign_span("kmeans_assign", "core");
      // Settle step: runs `settle(i)` -> bool over every point, marks the
      // settled points and counts each as a skip of all k candidates.
      std::fill(settled.begin(), settled.end(), std::uint8_t{0});
      std::fill(block_counts.begin(), block_counts.end(), AssignCounts{});
      const auto settle_all = [&](const auto& settle) {
        pool.parallel_for(
            0, block_counts.size(),
            [&](std::size_t block) {
              AssignCounts counts;
              const std::size_t end = std::min(n, (block + 1) * kAssignBlock);
              for (std::size_t i = block * kAssignBlock; i < end; ++i) {
                if (settle(i)) {
                  settled[i] = 1;
                  ++counts.skipped;
                  counts.pruned += k;
                }
              }
              block_counts[block] = counts;
            },
            /*grain=*/1);
      };
      if (config_.distance == ClusterDistance::kHamming) {
        // Triangle inequality: a centroid whose majority row moved by
        // delta_c = hamming(old row, new row) is within delta_c of where
        // every point last measured it, so the own upper bound grows by
        // the own delta and the others' lower bound shrinks by their
        // largest delta. All integers: the test needs no guard.
        std::vector<std::int64_t> drift(k);
        TopTwo drift_top;
        for (std::size_t c = 0; c < k; ++c) {
          drift[c] = static_cast<std::int64_t>(backend.hamming(
              prev_binary_centroids.row(c), binary_centroid_rows[c]));
          drift_top.add(c, static_cast<double>(drift[c]));
        }
        if (iter > 0) {
          settle_all([&](std::size_t i) {
            const std::uint32_t a = result.assignment[i];
            bound_own[i] += drift[a];
            bound_other[i] -= drift_top.without(a);
            return static_cast<double>(bound_own[i]) < bound_other[i];
          });
        }
      } else {
        // dot(x, c_new) = dot(x, c_old) + dot(x, c_new - c_old), and the
        // last term lies within [-min(px * max neg, sum neg),
        // min(px * max pos, sum pos)] of the count diff's negative and
        // positive parts. The diff covers rebuilds, delta moves and
        // reseed mass alike. Zero norms void every bound this iteration.
        std::vector<std::int64_t> neg_max(k);
        std::vector<std::int64_t> neg_sum(k);
        TopTwo norm_ratio;
        TopTwo pos_max;
        TopTwo pos_sum;
        bool usable = iter > 0;
        for (std::size_t c = 0; c < k; ++c) {
          const auto counts = result.centroids[c].counts();
          const auto old = std::span(prev_counts).subspan(c * dim, dim);
          std::int64_t up_max = 0;
          std::int64_t up_sum = 0;
          for (std::size_t d = 0; d < dim; ++d) {
            const std::int64_t delta = counts[d] - old[d];
            if (delta > 0) {
              up_max = std::max(up_max, delta);
              up_sum += delta;
            } else {
              neg_max[c] = std::max(neg_max[c], -delta);
              neg_sum[c] -= delta;
            }
          }
          std::copy(counts.begin(), counts.end(), old.begin());
          usable = usable && prev_norm[c] > 0.0 && centroid_norm[c] > 0.0;
          norm_ratio.add(c, prev_norm[c] * centroid_inv_norm[c]);
          pos_max.add(c, static_cast<double>(up_max) * centroid_inv_norm[c]);
          pos_sum.add(c, static_cast<double>(up_sum) * centroid_inv_norm[c]);
          prev_norm[c] = centroid_norm[c];
        }
        if (usable) {
          settle_all([&](std::size_t i) {
            const std::uint32_t a = result.assignment[i];
            const double pn = point_norm[i];
            const auto px = static_cast<std::int64_t>(point_pop[i]);
            bound_own[i] -= std::min(px * neg_max[a], neg_sum[a]);
            bound_other[i] =
                (bound_other[i] * norm_ratio.without(a) +
                 std::min(static_cast<double>(px) * pos_max.without(a),
                          pos_sum.without(a))) *
                kBoundGuard;
            // The own distance is at most the shared expression at the
            // dot's lower bound (it is antitone in the dot). For every
            // other c, dot_c / (pn * cn_c) <= bound_other / pn, and the
            // guard covers the roundings on both sides, so the rounded
            // threshold is at most every other rounded distance: a
            // strict pass proves the own centroid the unique nearest.
            return pn > 0.0 &&
                   hdc::kernels::cosine_distance_from_dot(
                       bound_own[i], centroid_norm[a], pn) <
                       1.0 - bound_other[i] * kBoundGuard / pn;
          });
        }
      }
      for (const AssignCounts& counts : block_counts) {
        assigned.skipped += counts.skipped;
      }
      // A candidate the bounded scan prunes proves only "not below the
      // best", which leaves no slack for the next iteration's drift.
      // Once bounds are paying (at least half the points settled; an
      // integer rule, so the same at every pool size), the remaining
      // points are scanned with exact distances to all k candidates and
      // leave exact bounds behind. Otherwise the bounded scan runs.
      const bool exact = 2 * assigned.skipped >= n;

      // Runs `nearest(i, counts)` -> (cluster, distance) over every
      // unsettled point and records the labels, the distances to the own
      // centroid and the per-block counters.
      const auto assign_all = [&](const auto& nearest) {
        pool.parallel_for(
            0, block_counts.size(),
            [&](std::size_t block) {
              AssignCounts counts = block_counts[block];
              const std::size_t end = std::min(n, (block + 1) * kAssignBlock);
              for (std::size_t i = block * kAssignBlock; i < end; ++i) {
                if (settled[i] != 0) {
                  continue;
                }
                const auto [cluster, distance] = nearest(i, counts);
                if (result.assignment[i] != cluster) {
                  ++counts.moved;
                  result.assignment[i] = cluster;
                }
                distance_to_own[i] = distance;
              }
              block_counts[block] = counts;
            },
            /*grain=*/1);
      };
      if (config_.distance == ClusterDistance::kHamming) {
        // Candidate table: centroid indices sorted by (popcount, index).
        // |popcount(x) - popcount(c)| <= hamming(x, c), so scanning
        // outward from the point's own popcount visits candidates in
        // non-decreasing lower-bound order per side — once a side's
        // bound exceeds the best distance, the rest of that side is
        // pruned wholesale.
        for (std::size_t c = 0; c < k; ++c) {
          sorted_pops[c] = {static_cast<std::uint32_t>(
                                backend.popcount(binary_centroid_rows[c])),
                            static_cast<std::uint32_t>(c)};
        }
        std::sort(sorted_pops.begin(), sorted_pops.end());
        assign_all([&](std::size_t i, AssignCounts& counts) {
          const auto point = points.row(i);
          const std::size_t px = point_pop[i];
          constexpr std::size_t kUnset =
              std::numeric_limits<std::size_t>::max();
          std::size_t best = kUnset;
          std::uint32_t best_cluster = 0;
          // Negated lower bounds on each candidate's distance, for the
          // carried lower bound over every candidate but the winner.
          TopTwo nearest;
          const auto gap_of = [&](std::size_t pc) {
            return pc > px ? pc - px : px - pc;
          };
          // Two-pointer outward scan from the insertion point of px in
          // the sorted table: [0, l) pending on the left, [r, k) on the
          // right.
          std::size_t r = static_cast<std::size_t>(
              std::lower_bound(sorted_pops.begin(), sorted_pops.end(),
                               std::pair<std::uint32_t, std::uint32_t>{
                                   static_cast<std::uint32_t>(px), 0}) -
              sorted_pops.begin());
          std::size_t l = r;
          while (l > 0 || r < k) {
            const std::size_t gl =
                l > 0 ? gap_of(sorted_pops[l - 1].first) : kUnset;
            const std::size_t gr =
                r < k ? gap_of(sorted_pops[r].first) : kUnset;
            const bool take_left = gl <= gr;
            const std::size_t gap = take_left ? gl : gr;
            const std::uint32_t c =
                take_left ? sorted_pops[l - 1].second : sorted_pops[r].second;
            if (!exact && best != kUnset) {
              if (gap > best) {
                // Everything further out on this side is strictly worse
                // than best: drop the side wholesale. None of it is ever
                // the winner, so one entry at index k bounds it all.
                counts.pruned += take_left ? l : k - r;
                nearest.add(k, -static_cast<double>(gap));
                if (take_left) {
                  l = 0;
                } else {
                  r = k;
                }
                continue;
              }
              if (gap == best && c >= best_cluster) {
                // Distance >= gap == best, and a tie at best can only
                // matter for a lower index: cannot win. The side stays
                // open — a lower index may still follow at the same gap.
                ++counts.pruned;
                nearest.add(c, -static_cast<double>(gap));
                if (take_left) {
                  --l;
                } else {
                  ++r;
                }
                continue;
              }
            }
            // bound = best rejects dist >= best (a win needs strict <);
            // +1 when c < best_cluster, which can still win an index tie
            // at exactly best.
            const std::size_t bound =
                exact || best == kUnset ? kUnset
                                        : (c < best_cluster ? best + 1 : best);
            const auto scan =
                backend.hamming_bounded(binary_centroid_rows[c], point, bound);
            counts.words += scan.words_scanned;
            // Complete or aborted, the running count never exceeds the
            // true distance.
            nearest.add(c, -static_cast<double>(scan.value));
            if (scan.value < bound) {
              // One-sided contract: value < bound means the scan
              // completed and value is the exact distance.
              ++counts.evals;
              ++counts.kernel_evals;
              if (best == kUnset || scan.value < best ||
                  (scan.value == best && c < best_cluster)) {
                best = scan.value;
                best_cluster = c;
              }
            } else {
              ++counts.pruned;
            }
            if (take_left) {
              --l;
            } else {
              ++r;
            }
          }
          bound_own[i] = static_cast<std::int64_t>(best);
          bound_other[i] = -nearest.without(best_cluster);
          return std::pair{best_cluster, static_cast<double>(best)};
        });
      } else {
        // Per-centroid dot upper bounds for the cheap skip: dot(x, c)
        // <= min(sum of c's counts, (2^planes_c - 1) * popcount(x)).
        for (std::size_t c = 0; c < k; ++c) {
          std::int64_t sum = 0;
          for (std::size_t b = 0; b < centroid_planes[c].plane_count(); ++b) {
            sum += static_cast<std::int64_t>(
                       backend.popcount(centroid_planes[c].plane(b)))
                   << b;
          }
          centroid_count_sum[c] = sum;
        }
        assign_all([&](std::size_t i, AssignCounts& counts) {
          const auto point = points.row(i);
          const double pn = point_norm[i];
          const auto px = static_cast<std::int64_t>(point_pop[i]);
          double best = std::numeric_limits<double>::infinity();
          std::uint32_t best_cluster = 0;
          std::int64_t best_dot = 0;
          // Upper bounds on each candidate's dot / norm, for the carried
          // upper bound over every candidate but the winner; a zero norm
          // gives no bound.
          TopTwo nearest;
          // Index order with strict < updates gives the lowest-index
          // argmin; every skip below only drops candidates whose
          // distance provably fails `dist < best`.
          for (std::size_t c = 0; c < k; ++c) {
            const double cn = centroid_norm[c];
            if (cn == 0.0 || pn == 0.0) {
              // Zero-norm shortcut, exactly cosine_distance_planes'.
              ++counts.evals;
              nearest.add(c, std::numeric_limits<double>::infinity());
              if (1.0 < best) {
                best = 1.0;
                best_cluster = static_cast<std::uint32_t>(c);
              }
              continue;
            }
            const bool have_best =
                !exact && best < std::numeric_limits<double>::infinity();
            if (have_best) {
              // Cheap exact skip: evaluate the shared float expression at
              // a dot that can only be larger than the true one — the
              // expression is weakly antitone in the dot, so
              // distance(upper) >= best implies distance(dot) >= best.
              std::int64_t upper = centroid_count_sum[c];
              const std::size_t planes_c = centroid_planes[c].plane_count();
              if (planes_c < 40) {
                upper =
                    std::min(upper, ((std::int64_t{1} << planes_c) - 1) * px);
              }
              if (hdc::kernels::cosine_distance_from_dot(upper, cn, pn) >=
                  best) {
                ++counts.pruned;
                nearest.add(c,
                            static_cast<double>(upper) * centroid_inv_norm[c]);
                continue;
              }
            }
            // In-kernel prune threshold: the largest integer dot that
            // still cannot beat best under the shared float expression.
            // Start at the real-arithmetic crossover and nudge down until
            // the expression itself concedes; bail out (scan uncapped,
            // still exact) if rounding pathologies drag the search out.
            std::int64_t max_useful = -1;
            if (have_best) {
              const double crossover = (1.0 - best) * (pn * cn);
              if (crossover >= 0.0 && crossover < 9.0e18) {
                auto m = static_cast<std::int64_t>(crossover);
                int steps = 0;
                while (m >= 0 &&
                       hdc::kernels::cosine_distance_from_dot(m, cn, pn) <
                           best) {
                  --m;
                  if (++steps > 64) {
                    m = -1;
                    break;
                  }
                }
                max_useful = m;
              }
            }
            const auto scan = hdc::kernels::dot_planes_bounded(
                centroid_planes[c], point, static_cast<std::size_t>(px),
                max_useful, backend);
            counts.words += scan.words_scanned;
            if (scan.pruned) {
              // True dot <= max_useful, so its distance >= best: c
              // cannot win.
              ++counts.pruned;
              nearest.add(c, static_cast<double>(max_useful) *
                                 centroid_inv_norm[c]);
              continue;
            }
            ++counts.evals;
            ++counts.kernel_evals;
            nearest.add(c,
                        static_cast<double>(scan.dot) * centroid_inv_norm[c]);
            const double dist =
                hdc::kernels::cosine_distance_from_dot(scan.dot, cn, pn);
            if (dist < best) {
              best = dist;
              best_cluster = static_cast<std::uint32_t>(c);
              best_dot = scan.dot;
            }
          }
          bound_own[i] = best_dot;
          bound_other[i] = nearest.without(best_cluster) * kBoundGuard;
          return std::pair{best_cluster, best};
        });
      }
      for (const AssignCounts& counts : block_counts) {
        assigned.moved += counts.moved;
        assigned.evals += counts.evals;
        assigned.kernel_evals += counts.kernel_evals;
        assigned.pruned += counts.pruned;
        assigned.words += counts.words;
      }
      result.ops.distance_evals += assigned.evals;
      result.ops.candidates_pruned += assigned.pruned;
      result.ops.dot_adds += assigned.kernel_evals * dim;
      result.ops.words_scanned += assigned.words;
      assign_span.arg("evaluated", assigned.evals);
      assign_span.arg("pruned", assigned.pruned);
      assign_span.arg("skipped", assigned.skipped);
      assign_span.label("rescan", exact ? "exact" : "pruned");
    }

    // --- Update step. Centroids persist across iterations as exact
    // integer sums, so only the points whose label changed need to
    // move: each is subtracted from its old centroid and added to its
    // new one, in index order. Iteration 0 (the centroids are still the
    // seeds) and any iteration where at least half the points moved
    // rebuild from scratch instead, which is then no more work than the
    // delta. The rebuild accumulates each chunk's contiguous slice of
    // points into its own bank of partial centroids and merges the
    // banks in chunk order. Integer adds commute exactly, so both paths
    // leave bit-identical centroids (and every label derived from them)
    // at any thread count. ---
    const std::uint64_t moved = assigned.moved;
    const bool rebuild = iter == 0 || 2 * moved >= n;
    const bool applies_reseed_subs = !pending_reseed_subs.empty();
    result.moved_per_iteration.push_back(moved);
    iter_span.arg("moved", moved);
    iter_span.label("update", rebuild ? "rebuild" : "delta");
    if (rebuild) {
      for (auto& centroid : result.centroids) {
        centroid.clear();
      }
      std::fill(result.cluster_weights.begin(), result.cluster_weights.end(),
                std::uint64_t{0});
      if (update_chunks <= 1) {
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint32_t c = result.assignment[i];
          result.centroids[c].add(points.row(i), weight_of(i));
          result.cluster_weights[c] += weight_of(i);
        }
      } else {
        pool.parallel_for(
            0, update_chunks,
            [&](std::size_t chunk) {
              auto& centroids = partial_centroids[chunk];
              auto& chunk_weights = partial_weights[chunk];
              for (auto& centroid : centroids) {
                centroid.clear();
              }
              std::fill(chunk_weights.begin(), chunk_weights.end(),
                        std::uint64_t{0});
              const std::size_t lo = chunk * n / update_chunks;
              const std::size_t hi = (chunk + 1) * n / update_chunks;
              for (std::size_t i = lo; i < hi; ++i) {
                const std::uint32_t c = result.assignment[i];
                centroids[c].add(points.row(i), weight_of(i));
                chunk_weights[c] += weight_of(i);
              }
            },
            /*grain=*/1);
        for (std::size_t chunk = 0; chunk < update_chunks; ++chunk) {
          for (std::size_t c = 0; c < k; ++c) {
            result.centroids[c].merge(partial_centroids[chunk][c]);
            result.cluster_weights[c] += partial_weights[chunk][c];
          }
        }
      }
      centroid_labels = result.assignment;
      pending_reseed_subs.clear();
      result.ops.centroid_update_adds += static_cast<std::uint64_t>(n) * dim;
    } else {
      for (const auto& [i, source] : pending_reseed_subs) {
        result.centroids[source].sub(points.row(i), weight_of(i));
      }
      std::uint64_t adds = pending_reseed_subs.size();
      pending_reseed_subs.clear();
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t from = centroid_labels[i];
        const std::uint32_t to = result.assignment[i];
        if (from == to) {
          continue;
        }
        result.centroids[from].sub(points.row(i), weight_of(i));
        result.centroids[to].add(points.row(i), weight_of(i));
        result.cluster_weights[from] -= weight_of(i);
        result.cluster_weights[to] += weight_of(i);
        centroid_labels[i] = to;
        adds += 2;
      }
      result.ops.centroid_update_adds += adds * dim;
    }

    // --- Empty-cluster repair: reseed with the point farthest from its
    // own centroid (deterministic: highest distance, lowest index). ---
    const std::size_t reseeds_before = result.reseeds;
    bool distances_fresh = assigned.skipped == 0;
    for (std::size_t c = 0; c < k; ++c) {
      if (result.cluster_weights[c] != 0) {
        continue;
      }
      if (!distances_fresh) {
        // A settled point's distance_to_own dates from the assignment
        // that last scanned it: refresh it exactly against the snapshot
        // this iteration assigned with, which the centroid planes and
        // majority rows still hold.
        for (std::size_t i = 0; i < n; ++i) {
          if (settled[i] == 0) {
            continue;
          }
          const std::uint32_t a = result.assignment[i];
          if (cosine) {
            const auto scan = hdc::kernels::dot_planes_bounded(
                centroid_planes[a], points.row(i), point_pop[i], -1, backend);
            result.ops.words_scanned += scan.words_scanned;
            distance_to_own[i] = hdc::kernels::cosine_distance_from_dot(
                scan.dot, centroid_norm[a], point_norm[i]);
          } else {
            const auto scan = backend.hamming_bounded(
                binary_centroid_rows[a], points.row(i),
                std::numeric_limits<std::size_t>::max());
            result.ops.words_scanned += scan.words_scanned;
            distance_to_own[i] = static_cast<double>(scan.value);
          }
        }
        distances_fresh = true;
      }
      std::size_t farthest = 0;
      double farthest_distance = -1.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (result.cluster_weights[result.assignment[i]] > weight_of(i) &&
            distance_to_own[i] > farthest_distance) {
          farthest_distance = distance_to_own[i];
          farthest = i;
        }
      }
      const std::uint32_t old_cluster = result.assignment[farthest];
      result.assignment[farthest] = static_cast<std::uint32_t>(c);
      centroid_labels[farthest] = static_cast<std::uint32_t>(c);
      // Move the point's mass between clusters. The destination gains
      // it now, so the next assignment sees the reseeded direction. The
      // source subtract is queued for the next update step: the next
      // assignment still sees the point's mass in the source, and a
      // reseed in the final iteration leaves it there.
      result.centroids[c].add(points.row(farthest), weight_of(farthest));
      result.cluster_weights[c] += weight_of(farthest);
      result.cluster_weights[old_cluster] -= weight_of(farthest);
      pending_reseed_subs.emplace_back(farthest, old_cluster);
      // The label changed outside the assignment: the point's bounds
      // describe its old cluster and must not settle it.
      bound_other[farthest] = no_bound;
      ++result.reseeds;
    }
    result.iterations_run = iter + 1;

    // Fixed-point exit: an iteration that moved no point, applied no
    // queued reseed subtract and reseeded nothing left the labels and
    // the centroids exactly as it found them, so every later iteration
    // would repeat it bit for bit. Iteration 0 never qualifies: its
    // rebuild replaces the seed centroids even when no label changed.
    if (iter > 0 && moved == 0 && !applies_reseed_subs &&
        result.reseeds == reseeds_before) {
      result.converged = true;
      break;
    }
  }

  return result;
}

std::vector<std::size_t> largest_color_difference_seeds(
    std::span<const std::uint8_t> intensities, std::size_t clusters) {
  util::expects(clusters >= 2, "need at least two clusters");
  util::expects(intensities.size() >= clusters,
                "need at least `clusters` points");

  std::vector<std::size_t> seeds;
  seeds.reserve(clusters);

  // The pair with the largest color difference: global min and max.
  std::size_t min_index = 0;
  std::size_t max_index = 0;
  for (std::size_t i = 1; i < intensities.size(); ++i) {
    if (intensities[i] < intensities[min_index]) {
      min_index = i;
    }
    if (intensities[i] > intensities[max_index]) {
      max_index = i;
    }
  }
  if (min_index == max_index) {
    // Degenerate flat image: fall back to distinct indices.
    for (std::size_t c = 0; c < clusters; ++c) {
      seeds.push_back(c);
    }
    return seeds;
  }
  seeds.push_back(max_index);
  seeds.push_back(min_index);

  // Remaining seeds: farthest-point sampling on intensity.
  while (seeds.size() < clusters) {
    std::size_t best_index = 0;
    int best_gap = -1;
    for (std::size_t i = 0; i < intensities.size(); ++i) {
      int gap = std::numeric_limits<int>::max();
      bool already = false;
      for (const std::size_t s : seeds) {
        if (s == i) {
          already = true;
          break;
        }
        gap = std::min(gap, std::abs(static_cast<int>(intensities[i]) -
                                     static_cast<int>(intensities[s])));
      }
      if (!already && gap > best_gap) {
        best_gap = gap;
        best_index = i;
      }
    }
    seeds.push_back(best_index);
  }
  return seeds;
}

}  // namespace seghdc::core
