// Tests for the hypervector K-Means clusterer (paper Section III-④).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>

#include "src/core/kmeans.hpp"
#include "src/hdc/accumulator.hpp"
#include "src/hdc/hypervector.hpp"
#include "src/hdc/kernels.hpp"
#include "src/obs/trace.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace seghdc;
using namespace seghdc::core;

/// Two well-separated families of HVs: perturbations (few flips) of two
/// random anchors.
struct TwoClusterData {
  std::vector<hdc::HyperVector> points;
  std::vector<std::size_t> truth;  ///< 0 or 1 per point
};

TwoClusterData make_two_clusters(std::size_t per_cluster, std::size_t dim,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  TwoClusterData data;
  const auto anchor_a = hdc::HyperVector::random(dim, rng);
  const auto anchor_b = hdc::HyperVector::random(dim, rng);
  for (std::size_t i = 0; i < per_cluster; ++i) {
    auto a = anchor_a;
    auto b = anchor_b;
    // Perturb ~2% of the bits.
    for (std::size_t f = 0; f < dim / 50; ++f) {
      a.flip(rng.next_below(dim));
      b.flip(rng.next_below(dim));
    }
    data.points.push_back(a);
    data.truth.push_back(0);
    data.points.push_back(b);
    data.truth.push_back(1);
  }
  return data;
}

/// Fraction of points whose assignment agrees with the ground truth
/// under the better of the two label polarities.
double clustering_accuracy(const std::vector<std::uint32_t>& assignment,
                           const std::vector<std::size_t>& truth) {
  std::size_t agree = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    agree += assignment[i] == truth[i] ? 1 : 0;
  }
  const double direct =
      static_cast<double>(agree) / static_cast<double>(truth.size());
  return std::max(direct, 1.0 - direct);
}

TEST(HvKMeans, SeparatesTwoClusters) {
  const auto data = make_two_clusters(40, 2048, 1);
  const HvKMeans kmeans(HvKMeansConfig{.clusters = 2, .iterations = 10});
  const std::vector<std::size_t> seeds{0, 1};  // one from each family
  const auto result = kmeans.run(data.points, {}, seeds);
  EXPECT_GE(clustering_accuracy(result.assignment, data.truth), 0.99);
  // Two well-separated families settle long before the budget: the run
  // stops at the first iteration that moves nothing.
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations_run, 10u);
  ASSERT_EQ(result.moved_per_iteration.size(), result.iterations_run);
  EXPECT_EQ(result.moved_per_iteration.back(), 0u);
}

TEST(HvKMeans, HammingDistanceVariantAlsoSeparates) {
  const auto data = make_two_clusters(40, 2048, 2);
  const HvKMeans kmeans(HvKMeansConfig{
      .clusters = 2, .iterations = 10,
      .distance = ClusterDistance::kHamming});
  const std::vector<std::size_t> seeds{0, 1};
  const auto result = kmeans.run(data.points, {}, seeds);
  EXPECT_GE(clustering_accuracy(result.assignment, data.truth), 0.99);
}

TEST(HvKMeans, WeightedDedupEquivalentToExpandedPoints) {
  // The engineering claim behind the pipeline's dedup: clustering unique
  // points with multiplicities == clustering the expanded multiset.
  util::Rng rng(3);
  std::vector<hdc::HyperVector> unique_points;
  std::vector<std::uint32_t> weights{5, 3, 7, 2, 4, 6};
  for (std::size_t i = 0; i < weights.size(); ++i) {
    unique_points.push_back(hdc::HyperVector::random(512, rng));
  }
  std::vector<hdc::HyperVector> expanded;
  std::vector<std::size_t> expanded_of_unique;
  for (std::size_t u = 0; u < unique_points.size(); ++u) {
    for (std::uint32_t w = 0; w < weights[u]; ++w) {
      expanded.push_back(unique_points[u]);
      expanded_of_unique.push_back(u);
    }
  }

  const HvKMeans kmeans(HvKMeansConfig{.clusters = 2, .iterations = 6});
  const std::vector<std::size_t> unique_seeds{0, 2};
  // Seed the expanded run with copies of the same two uniques.
  std::vector<std::size_t> expanded_seeds;
  for (std::size_t i = 0; i < expanded.size(); ++i) {
    if ((expanded_of_unique[i] == 0 || expanded_of_unique[i] == 2) &&
        (expanded_seeds.empty() ||
         expanded_of_unique[expanded_seeds.back()] !=
             expanded_of_unique[i])) {
      expanded_seeds.push_back(i);
    }
  }
  ASSERT_EQ(expanded_seeds.size(), 2u);

  const auto dedup_result = kmeans.run(unique_points, weights, unique_seeds);
  const auto full_result = kmeans.run(expanded, {}, expanded_seeds);

  for (std::size_t i = 0; i < expanded.size(); ++i) {
    EXPECT_EQ(full_result.assignment[i],
              dedup_result.assignment[expanded_of_unique[i]])
        << "expanded point " << i;
  }
}

TEST(HvKMeans, ClusterWeightsSumToTotal) {
  const auto data = make_two_clusters(10, 256, 4);
  std::vector<std::uint32_t> weights(data.points.size(), 3);
  const HvKMeans kmeans(HvKMeansConfig{.clusters = 2, .iterations = 3});
  const auto result = kmeans.run(data.points, weights,
                                 std::vector<std::size_t>{0, 1});
  EXPECT_EQ(result.cluster_weights[0] + result.cluster_weights[1],
            3 * data.points.size());
}

TEST(HvKMeans, EmptyClusterGetsReseeded) {
  // Three seeds but only two genuine families: one cluster will go
  // empty and must be repaired rather than staying dead.
  const auto data = make_two_clusters(20, 1024, 5);
  const HvKMeans kmeans(HvKMeansConfig{.clusters = 3, .iterations = 8});
  const auto result = kmeans.run(data.points, {},
                                 std::vector<std::size_t>{0, 1, 2});
  std::size_t nonempty = 0;
  for (const auto w : result.cluster_weights) {
    nonempty += w > 0 ? 1 : 0;
  }
  EXPECT_EQ(nonempty, 3u);
}

TEST(HvKMeans, DeterministicAcrossRuns) {
  const auto data = make_two_clusters(15, 512, 6);
  const HvKMeans kmeans(HvKMeansConfig{.clusters = 2, .iterations = 5});
  const auto a = kmeans.run(data.points, {}, std::vector<std::size_t>{0, 1});
  const auto b = kmeans.run(data.points, {}, std::vector<std::size_t>{0, 1});
  EXPECT_EQ(a.assignment, b.assignment);
}

// --- Parallel update step (per-chunk partial accumulators). ---

/// Full-result comparison: everything a caller can observe must match.
void expect_kmeans_results_identical(const HvKMeansResult& a,
                                     const HvKMeansResult& b) {
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.cluster_weights, b.cluster_weights);
  EXPECT_EQ(a.iterations_run, b.iterations_run);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.reseeds, b.reseeds);
  ASSERT_EQ(a.centroids.size(), b.centroids.size());
  for (std::size_t c = 0; c < a.centroids.size(); ++c) {
    EXPECT_TRUE(std::ranges::equal(a.centroids[c].counts(),
                                   b.centroids[c].counts()))
        << "centroid " << c;
    EXPECT_EQ(a.centroids[c].total_weight(), b.centroids[c].total_weight());
    EXPECT_DOUBLE_EQ(a.centroids[c].norm(), b.centroids[c].norm());
  }
}

TEST(HvKMeans, ParallelUpdateMatchesSequentialReference) {
  // The parallel update (chunked partial accumulators, merged in chunk
  // order) must leave exactly the centroids a sequential re-accumulation
  // of the final assignment produces. Weighted points included so the
  // partials exercise weight handling.
  const auto data = make_two_clusters(40, 1024, 11);
  std::vector<std::uint32_t> weights(data.points.size(), 1);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1 + static_cast<std::uint32_t>(i % 5);
  }
  util::ThreadPool pool(8);
  HvKMeansConfig config{.clusters = 2, .iterations = 6};
  config.pool = &pool;
  const auto result = HvKMeans(config).run(data.points, weights,
                                           std::vector<std::size_t>{0, 1});
  ASSERT_EQ(result.reseeds, 0u)
      << "reference recomputation assumes no reseed patch";

  const std::size_t dim = data.points[0].dim();
  std::vector<seghdc::hdc::Accumulator> reference(
      2, seghdc::hdc::Accumulator(dim));
  std::vector<std::uint64_t> reference_weights(2, 0);
  for (std::size_t i = 0; i < data.points.size(); ++i) {
    reference[result.assignment[i]].add(data.points[i], weights[i]);
    reference_weights[result.assignment[i]] += weights[i];
  }
  EXPECT_EQ(result.cluster_weights, reference_weights);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_TRUE(std::ranges::equal(result.centroids[c].counts(),
                                   reference[c].counts()))
        << "centroid " << c;
    EXPECT_DOUBLE_EQ(result.centroids[c].norm(), reference[c].norm());
  }
}

TEST(HvKMeans, DeterministicAcrossThreadCounts) {
  const auto data = make_two_clusters(30, 768, 12);
  std::vector<std::uint32_t> weights(data.points.size(), 1);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1 + static_cast<std::uint32_t>((i * 7) % 4);
  }
  HvKMeansConfig config{.clusters = 2, .iterations = 5};
  util::ThreadPool reference_pool(1);
  config.pool = &reference_pool;
  const auto reference = HvKMeans(config).run(
      data.points, weights, std::vector<std::size_t>{0, 1});
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    util::ThreadPool pool(threads);
    config.pool = &pool;
    const auto result = HvKMeans(config).run(
        data.points, weights, std::vector<std::size_t>{0, 1});
    expect_kmeans_results_identical(reference, result);
  }
}

TEST(HvKMeans, ReseedPathDeterministicAcrossThreadCounts) {
  // Seed 2 duplicates seed 0's point, so every point ties between
  // centroids 0 and 2, the tie-break (lowest index) starves cluster 2,
  // and the empty-cluster repair must fire. The reseed choice (farthest
  // point, lowest index) and the patched centroids must not depend on
  // the thread count.
  auto data = make_two_clusters(20, 1024, 5);
  data.points[2] = data.points[0];
  HvKMeansConfig config{.clusters = 3, .iterations = 8};
  util::ThreadPool reference_pool(1);
  config.pool = &reference_pool;
  const auto reference = HvKMeans(config).run(
      data.points, {}, std::vector<std::size_t>{0, 1, 2});
  EXPECT_GT(reference.reseeds, 0u)
      << "test data no longer exercises the reseed path";
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    util::ThreadPool pool(threads);
    config.pool = &pool;
    const auto result = HvKMeans(config).run(
        data.points, {}, std::vector<std::size_t>{0, 1, 2});
    expect_kmeans_results_identical(reference, result);
  }
}

TEST(HvKMeans, ExplicitPoolMatchesSharedPool) {
  const auto data = make_two_clusters(15, 512, 13);
  const HvKMeans shared_pool_kmeans(
      HvKMeansConfig{.clusters = 2, .iterations = 5});
  const auto expected = shared_pool_kmeans.run(
      data.points, {}, std::vector<std::size_t>{0, 1});
  util::ThreadPool pool(4);
  HvKMeansConfig config{.clusters = 2, .iterations = 5};
  config.pool = &pool;
  const auto actual = HvKMeans(config).run(data.points, {},
                                           std::vector<std::size_t>{0, 1});
  expect_kmeans_results_identical(expected, actual);
}

TEST(HvKMeans, OpsAccounting) {
  const auto data = make_two_clusters(8, 256, 7);
  HvKMeansConfig config{.clusters = 2, .iterations = 4};
  const auto result =
      HvKMeans(config).run(data.points, {}, std::vector<std::size_t>{0, 1});
  ASSERT_EQ(result.reseeds, 0u);
  ASSERT_LE(result.iterations_run, 4u);
  const std::uint64_t n = data.points.size();
  // Measured assignment work conserves the n * K pairs of every
  // iteration run: each is either evaluated (a full dot of dim adds) or
  // pruned (test_kmeans_pruned pins the split).
  EXPECT_EQ(result.ops.distance_evals + result.ops.candidates_pruned,
            n * 2 * result.iterations_run);
  EXPECT_LE(result.ops.dot_adds, result.ops.distance_evals * 256);

  // The moved counts of the iterations actually run, measured
  // independently: the labels after budget t against those after budget
  // t - 1 (all zero before iteration 0).
  std::vector<std::uint64_t> moved;
  std::vector<std::uint32_t> previous(n, 0);
  for (std::size_t budget = 1; budget <= result.iterations_run; ++budget) {
    config.iterations = budget;
    const auto partial =
        HvKMeans(config).run(data.points, {}, std::vector<std::size_t>{0, 1});
    std::uint64_t changed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      changed += partial.assignment[i] != previous[i] ? 1 : 0;
    }
    moved.push_back(changed);
    previous = partial.assignment;
  }
  EXPECT_EQ(result.moved_per_iteration, moved);
  // The update adds it actually performs: n rows for the iteration-0
  // rebuild, then one subtract and one add per moved point (every later
  // iteration here moves fewer than half the points).
  std::uint64_t rows = n;
  for (std::size_t iter = 1; iter < moved.size(); ++iter) {
    ASSERT_LT(2 * moved[iter], n) << "iteration " << iter;
    rows += 2 * moved[iter];
  }
  EXPECT_EQ(result.ops.centroid_update_adds, rows * 256);
}

TEST(HvKMeans, ValidatesArguments) {
  EXPECT_THROW(HvKMeans(HvKMeansConfig{.clusters = 1}),
               std::invalid_argument);
  EXPECT_THROW(HvKMeans(HvKMeansConfig{.clusters = 2, .iterations = 0}),
               std::invalid_argument);

  const HvKMeans kmeans(HvKMeansConfig{.clusters = 2, .iterations = 1});
  util::Rng rng(8);
  std::vector<hdc::HyperVector> one{hdc::HyperVector::random(64, rng)};
  EXPECT_THROW(kmeans.run(one, {}, std::vector<std::size_t>{0, 0}),
               std::invalid_argument);

  std::vector<hdc::HyperVector> two{hdc::HyperVector::random(64, rng),
                                    hdc::HyperVector::random(64, rng)};
  EXPECT_THROW(kmeans.run(two, {}, std::vector<std::size_t>{0}),
               std::invalid_argument);
  EXPECT_THROW(kmeans.run(two, {}, std::vector<std::size_t>{0, 5}),
               std::invalid_argument);
  const std::vector<std::uint32_t> bad_weights{1};
  EXPECT_THROW(kmeans.run(two, bad_weights, std::vector<std::size_t>{0, 1}),
               std::invalid_argument);
}

// --- Delta update step (centroids kept across iterations). ---

/// The centroids and cluster weights a from-scratch rebuild over
/// `assignment` produces.
struct Rebuilt {
  std::vector<hdc::Accumulator> centroids;
  std::vector<std::uint64_t> weights;
};

Rebuilt rebuild_from(const std::vector<hdc::HyperVector>& points,
                     const std::vector<std::uint32_t>& weights,
                     const std::vector<std::uint32_t>& assignment,
                     std::size_t clusters) {
  Rebuilt out{std::vector<hdc::Accumulator>(
                  clusters, hdc::Accumulator(points[0].dim())),
              std::vector<std::uint64_t>(clusters, 0)};
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::uint32_t w = weights.empty() ? 1 : weights[i];
    out.centroids[assignment[i]].add(points[i], w);
    out.weights[assignment[i]] += w;
  }
  return out;
}

/// True when some iteration after the first took the delta path.
bool ran_a_delta_update(const HvKMeansResult& result) {
  for (std::size_t iter = 1; iter < result.moved_per_iteration.size();
       ++iter) {
    if (2 * result.moved_per_iteration[iter] < result.assignment.size()) {
      return true;
    }
  }
  return false;
}

/// Two families plus reseed pressure: seeds 2-5 duplicate seeds 0 and 1,
/// so four clusters start starved and are reseeded in iteration 0, and
/// two heavy all-zero points sit at cosine distance 1 from everything —
/// under cosine they are the farthest points, get reseeded into the
/// starved clusters, fall back to cluster 0 (every distance ties at 1)
/// and are reseeded again in every later iteration, the final one
/// included. Dim 1000 leaves a ragged last word.
struct ReseedHeavyData {
  std::vector<hdc::HyperVector> points;
  std::vector<std::uint32_t> weights;
};

ReseedHeavyData make_reseed_heavy() {
  auto data = make_two_clusters(24, 1000, 21);
  for (std::size_t dup = 2; dup < 6; ++dup) {
    data.points[dup] = data.points[dup % 2];
  }
  data.points[10] = hdc::HyperVector(1000);
  data.points[17] = hdc::HyperVector(1000);
  std::vector<std::uint32_t> weights(data.points.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1 + static_cast<std::uint32_t>(i % 3);
  }
  weights[10] = 9;
  weights[17] = 5;
  return {std::move(data.points), std::move(weights)};
}

void fnv1a_fold(std::uint64_t& hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFFu;
    hash *= 0x100000001b3ULL;
  }
}

/// FNV-1a over the state a result carries: labels, cluster weights,
/// centroid counts and total weights (the reseed's stale source mass
/// included), and reseeds. Iterations run are checked on their own.
std::uint64_t kmeans_state_hash(const HvKMeansResult& result) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto label : result.assignment) {
    fnv1a_fold(hash, label);
  }
  for (const auto weight : result.cluster_weights) {
    fnv1a_fold(hash, weight);
  }
  for (const auto& centroid : result.centroids) {
    for (const auto count : centroid.counts()) {
      fnv1a_fold(hash, static_cast<std::uint64_t>(count));
    }
    fnv1a_fold(hash, centroid.total_weight());
  }
  fnv1a_fold(hash, result.reseeds);
  return hash;
}

TEST(HvKMeansDelta, FinalCentroidsEqualARebuildOfTheFinalAssignment) {
  // Weighted points, both distances, serial and pooled: the centroids
  // the delta updates leave behind must be exactly the ones a rebuild
  // over the final labels produces — counts, total weight, and norm.
  const auto data = make_two_clusters(40, 1000, 31);
  std::vector<std::uint32_t> weights(data.points.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1 + static_cast<std::uint32_t>((i * 5) % 7);
  }
  // Start both seeds in family 0 so that points really move after
  // iteration 0.
  const std::vector<std::size_t> seeds{0, 2};
  for (const auto distance :
       {ClusterDistance::kCosine, ClusterDistance::kHamming}) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE("distance " + std::to_string(static_cast<int>(distance)) +
                   " threads " + std::to_string(threads));
      util::ThreadPool pool(threads);
      HvKMeansConfig config{
          .clusters = 2, .iterations = 6, .distance = distance};
      config.pool = &pool;
      const auto result = HvKMeans(config).run(data.points, weights, seeds);
      ASSERT_EQ(result.reseeds, 0u);
      ASSERT_EQ(result.moved_per_iteration.size(), result.iterations_run);
      EXPECT_TRUE(ran_a_delta_update(result));
      const auto reference =
          rebuild_from(data.points, weights, result.assignment, 2);
      EXPECT_EQ(result.cluster_weights, reference.weights);
      for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_TRUE(std::ranges::equal(result.centroids[c].counts(),
                                       reference.centroids[c].counts()))
            << "centroid " << c;
        EXPECT_EQ(result.centroids[c].total_weight(),
                  reference.centroids[c].total_weight());
        EXPECT_EQ(result.centroids[c].norm(), reference.centroids[c].norm());
      }
    }
  }
}

TEST(HvKMeansDelta, QueuedReseedSubtractsLeaveExactCentroids) {
  // Under Hamming the reseed-heavy data reseeds in iterations 0 and 1
  // only, so the later delta updates must have applied the queued
  // source subtracts: the final centroids equal a rebuild.
  const auto data = make_reseed_heavy();
  const std::vector<std::size_t> seeds{0, 1, 2, 3, 4, 5};
  HvKMeansConfig config{.clusters = 6,
                        .iterations = 8,
                        .distance = ClusterDistance::kHamming};
  const auto result = HvKMeans(config).run(data.points, data.weights, seeds);
  config.iterations = 2;
  const auto first_two =
      HvKMeans(config).run(data.points, data.weights, seeds);
  ASSERT_GT(first_two.reseeds, 4u) << "iteration 1 no longer reseeds";
  ASSERT_EQ(result.reseeds, first_two.reseeds)
      << "a later iteration reseeded; the rebuild comparison needs none";
  EXPECT_TRUE(ran_a_delta_update(result));
  const auto reference =
      rebuild_from(data.points, data.weights, result.assignment, 6);
  EXPECT_EQ(result.cluster_weights, reference.weights);
  for (std::size_t c = 0; c < 6; ++c) {
    EXPECT_TRUE(std::ranges::equal(result.centroids[c].counts(),
                                   reference.centroids[c].counts()))
        << "centroid " << c;
    EXPECT_EQ(result.centroids[c].total_weight(),
              reference.centroids[c].total_weight())
        << "centroid " << c;
  }
}

TEST(HvKMeansDelta, ReseedHeavyRunMatchesPinnedHashes) {
  // State hashes recorded with a full centroid rebuild in every
  // iteration and the whole budget of 8 run, so they pin that neither
  // the delta update nor the fixed-point exit changes anything, reseeds
  // included: the destination gains the point at once, the source keeps
  // its mass until the next update step, and a reseed in the final
  // iteration leaves that stale mass in the returned centroids. The
  // cosine run reseeds through its whole budget; the Hamming run
  // reaches its fixed point early. Pool sizes must not move them.
  const auto data = make_reseed_heavy();
  const std::vector<std::size_t> seeds{0, 1, 2, 3, 4, 5};
  struct Expected {
    ClusterDistance distance;
    std::size_t reseeds;
    std::uint64_t state_hash;
    std::size_t iterations_run;
  };
  for (const Expected expected :
       {Expected{ClusterDistance::kCosine, 18, 10028201721244543401ULL, 8},
        Expected{ClusterDistance::kHamming, 5, 122982636100900443ULL, 4}}) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE("distance " +
                   std::to_string(static_cast<int>(expected.distance)) +
                   " threads " + std::to_string(threads));
      util::ThreadPool pool(threads);
      HvKMeansConfig config{.clusters = 6,
                            .iterations = 8,
                            .distance = expected.distance};
      config.pool = &pool;
      const auto result =
          HvKMeans(config).run(data.points, data.weights, seeds);
      EXPECT_EQ(result.reseeds, expected.reseeds);
      EXPECT_TRUE(ran_a_delta_update(result));
      EXPECT_EQ(kmeans_state_hash(result), expected.state_hash);
      EXPECT_EQ(result.iterations_run, expected.iterations_run);
      EXPECT_EQ(result.converged, expected.iterations_run < 8);
    }
  }
}

TEST(HvKMeansDelta, IterationSpansReportMovedAndUpdateKind) {
  // Every kmeans_iter span carries its moved count and the update path
  // taken; the rule is a fixed function of (iteration, moved, n). The
  // update itself stays in the span's self time: kmeans_assign is the
  // only span nested inside an iteration.
  const auto data = make_two_clusters(40, 1000, 31);
  HvKMeansConfig config{.clusters = 2, .iterations = 6};
  util::ThreadPool pool(1);
  config.pool = &pool;
  const obs::TraceSession session;
  const auto result =
      HvKMeans(config).run(data.points, {}, std::vector<std::size_t>{0, 2});
  const auto events = session.events();
  std::vector<const obs::TraceEvent*> iters;
  for (const auto& event : events) {
    if (std::string_view(event.name) == "kmeans_iter") {
      iters.push_back(&event);
    }
  }
  ASSERT_EQ(iters.size(), result.iterations_run);
  const std::uint64_t n = data.points.size();
  bool saw_delta = false;
  for (std::size_t iter = 0; iter < iters.size(); ++iter) {
    const obs::TraceEvent& span = *iters[iter];
    EXPECT_STREQ(span.arg1_key, "iter");
    EXPECT_EQ(span.arg1_value, iter);
    EXPECT_STREQ(span.arg2_key, "moved");
    EXPECT_EQ(span.arg2_value, result.moved_per_iteration[iter]);
    const bool rebuild = iter == 0 || 2 * span.arg2_value >= n;
    EXPECT_STREQ(span.label_key, "update");
    EXPECT_STREQ(span.label_value, rebuild ? "rebuild" : "delta");
    saw_delta = saw_delta || !rebuild;
    for (const auto& other : events) {
      const bool nested = other.tid == span.tid &&
                          other.start_ns >= span.start_ns &&
                          other.start_ns + other.dur_ns <=
                              span.start_ns + span.dur_ns &&
                          &other != &span;
      if (nested) {
        EXPECT_STREQ(other.name, "kmeans_assign");
      }
    }
  }
  EXPECT_TRUE(saw_delta);
}

TEST(LargestColorDifferenceSeeds, PicksMinAndMaxFirst) {
  const std::vector<std::uint8_t> intensities{50, 10, 200, 120, 10, 200};
  const auto seeds = largest_color_difference_seeds(intensities, 2);
  ASSERT_EQ(seeds.size(), 2u);
  EXPECT_EQ(intensities[seeds[0]], 200);  // max first
  EXPECT_EQ(intensities[seeds[1]], 10);   // then min
  EXPECT_EQ(seeds[0], 2u);  // first occurrence wins ties
  EXPECT_EQ(seeds[1], 1u);
}

TEST(LargestColorDifferenceSeeds, ThirdSeedMaximizesMinGap) {
  const std::vector<std::uint8_t> intensities{0, 255, 128, 100, 20};
  const auto seeds = largest_color_difference_seeds(intensities, 3);
  ASSERT_EQ(seeds.size(), 3u);
  // 128 has min-gap 127 to {0, 255}; all others are closer to one end.
  EXPECT_EQ(intensities[seeds[2]], 128);
}

TEST(LargestColorDifferenceSeeds, FlatImageFallsBackToDistinctIndices) {
  const std::vector<std::uint8_t> intensities(10, 42);
  const auto seeds = largest_color_difference_seeds(intensities, 3);
  ASSERT_EQ(seeds.size(), 3u);
  EXPECT_NE(seeds[0], seeds[1]);
  EXPECT_NE(seeds[1], seeds[2]);
  EXPECT_NE(seeds[0], seeds[2]);
}

TEST(LargestColorDifferenceSeeds, SeedsAreDistinct) {
  const std::vector<std::uint8_t> intensities{5, 9, 9, 9, 250};
  const auto seeds = largest_color_difference_seeds(intensities, 4);
  for (std::size_t a = 0; a < seeds.size(); ++a) {
    for (std::size_t b = a + 1; b < seeds.size(); ++b) {
      EXPECT_NE(seeds[a], seeds[b]);
    }
  }
}

TEST(LargestColorDifferenceSeeds, ValidatesArguments) {
  const std::vector<std::uint8_t> two{1, 2};
  EXPECT_THROW(largest_color_difference_seeds(two, 1),
               std::invalid_argument);
  EXPECT_THROW(largest_color_difference_seeds(two, 3),
               std::invalid_argument);
}

}  // namespace
