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
  // counters local and writes its own slot once, and the slots are
  // summed in block order — no shared mutable state inside the scan, and
  // integer sums make the totals identical at every pool size.
  struct AssignCounts {
    std::uint64_t moved = 0;
    std::uint64_t evals = 0;
    std::uint64_t kernel_evals = 0;
    std::uint64_t pruned = 0;
    std::uint64_t words = 0;
  };
  constexpr std::size_t kAssignBlock = 64;
  std::vector<AssignCounts> block_counts((n + kAssignBlock - 1) /
                                         kAssignBlock);

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
  // Majority-binarized centroids for the Hamming variant; every row is
  // fully overwritten at the top of each iteration.
  hdc::HvBlock binary_centroids;
  if (config_.distance == ClusterDistance::kHamming) {
    binary_centroids = hdc::HvBlock(dim, k);
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
  std::vector<std::span<const std::uint64_t>> binary_centroid_rows(k);

  for (std::size_t iter = 0; iter < config_.iterations; ++iter) {
    obs::SpanScope iter_span("kmeans_iter", "core", "iter", iter);
    if (config_.distance == ClusterDistance::kHamming) {
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
      // Both arg slots carry the work split; the iteration number is on
      // the parent kmeans_iter span.
      obs::SpanScope assign_span("kmeans_assign", "core");
      // Runs `nearest(i, counts)` -> (cluster, distance) over every point
      // and records the labels, the distances to the own centroid and the
      // per-block counters.
      const auto assign_all = [&](const auto& nearest) {
        pool.parallel_for(
            0, block_counts.size(),
            [&](std::size_t block) {
              AssignCounts counts;
              const std::size_t end = std::min(n, (block + 1) * kAssignBlock);
              for (std::size_t i = block * kAssignBlock; i < end; ++i) {
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
            if (best != kUnset) {
              if (gap > best) {
                // Everything further out on this side is strictly worse
                // than best: drop the side wholesale.
                counts.pruned += take_left ? l : k - r;
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
                best == kUnset ? kUnset : (c < best_cluster ? best + 1 : best);
            const auto scan =
                backend.hamming_bounded(binary_centroid_rows[c], point, bound);
            counts.words += scan.words_scanned;
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
          // Index order with strict < updates gives the lowest-index
          // argmin; every skip below only drops candidates whose
          // distance provably fails `dist < best`.
          for (std::size_t c = 0; c < k; ++c) {
            const double cn = centroid_norm[c];
            if (cn == 0.0 || pn == 0.0) {
              // Zero-norm shortcut, exactly cosine_distance_planes'.
              ++counts.evals;
              if (1.0 < best) {
                best = 1.0;
                best_cluster = static_cast<std::uint32_t>(c);
              }
              continue;
            }
            const bool have_best =
                best < std::numeric_limits<double>::infinity();
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
              continue;
            }
            ++counts.evals;
            ++counts.kernel_evals;
            const double dist =
                hdc::kernels::cosine_distance_from_dot(scan.dot, cn, pn);
            if (dist < best) {
              best = dist;
              best_cluster = static_cast<std::uint32_t>(c);
            }
          }
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
    for (std::size_t c = 0; c < k; ++c) {
      if (result.cluster_weights[c] != 0) {
        continue;
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
