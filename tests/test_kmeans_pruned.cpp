// Tests for the candidate-pruned K-Means assignment and the bounded
// kernels underneath it. The contract under test is strict: pruning is
// EXACT — every iteration's labels must be the lowest-index argmin of
// the full distance row, checked against a test-side oracle that shares
// no code with the scan, and the labels, centroids, reseeds, and
// measured work must not depend on the pool size.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/config.hpp"
#include "src/core/kmeans.hpp"
#include "src/hdc/accumulator.hpp"
#include "src/hdc/distances.hpp"
#include "src/hdc/hypervector.hpp"
#include "src/hdc/kernels.hpp"
#include "src/hdc/simd/backend.hpp"
#include "src/obs/trace.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace seghdc;
using namespace seghdc::core;

constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

/// Leaves the process-wide backend selection exactly as a test found it.
struct BackendSelectionGuard {
  ~BackendSelectionGuard() { hdc::simd::reset_backend_selection(); }
};

// ---------------------------------------------------------------------
// Bounded-kernel property suite: every registered backend must honour
// the one-sided BoundedScan contract against a plain per-word reference,
// including non-multiple-of-64 dimensions (ragged vector tails) and
// bounds that land exactly on block boundaries.

std::size_t reference_hamming(std::span<const std::uint64_t> a,
                              std::span<const std::uint64_t> b) {
  std::size_t count = 0;
  for (std::size_t w = 0; w < a.size(); ++w) {
    count += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  }
  return count;
}

std::size_t reference_and_popcount(std::span<const std::uint64_t> a,
                                   std::span<const std::uint64_t> b) {
  std::size_t count = 0;
  for (std::size_t w = 0; w < a.size(); ++w) {
    count += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
  }
  return count;
}

TEST(BoundedKernels, HammingBoundedHonoursContractOnEveryBackend) {
  util::Rng rng(17);
  for (const std::size_t dim : {64u, 100u, 192u, 1000u, 1041u}) {
    const auto a = hdc::HyperVector::random(dim, rng);
    const auto b = hdc::HyperVector::random(dim, rng);
    const auto aw = a.words();
    const auto bw = b.words();
    const std::size_t exact = reference_hamming(aw, bw);

    // Bound menu: degenerate, around the exact value, unbounded, and
    // every 8-word prefix count (a bound met exactly at a block edge is
    // the off-by-one habitat of early-exit kernels).
    std::vector<std::size_t> bounds{0, 1, exact, exact + 1, kUnbounded};
    if (exact > 0) {
      bounds.push_back(exact - 1);
    }
    std::size_t prefix = 0;
    for (std::size_t w = 0; w < aw.size(); ++w) {
      prefix += static_cast<std::size_t>(std::popcount(aw[w] ^ bw[w]));
      if ((w + 1) % 8 == 0) {
        bounds.push_back(prefix);
      }
    }

    for (const auto* backend : hdc::simd::registered_backends()) {
      if (!backend->available()) {
        continue;
      }
      for (const std::size_t bound : bounds) {
        SCOPED_TRACE(std::string(backend->name) + " dim " +
                     std::to_string(dim) + " bound " + std::to_string(bound));
        const auto scan = backend->hamming_bounded(aw, bw, bound);
        // The running count only ever grows toward the exact distance.
        EXPECT_LE(scan.value, exact);
        EXPECT_LE(scan.words_scanned, aw.size());
        if (scan.value < bound) {
          // Completed scan: the value is the exact distance.
          EXPECT_EQ(scan.value, exact);
          EXPECT_EQ(scan.words_scanned, aw.size());
        } else {
          // Aborted (or exactly-at-bound) scan: the true distance is
          // provably >= bound.
          EXPECT_GE(exact, bound);
        }
      }
    }
  }
}

TEST(BoundedKernels, AndPopcountCappedHonoursContractOnEveryBackend) {
  util::Rng rng(18);
  for (const std::size_t dim : {64u, 100u, 192u, 1000u, 1041u}) {
    const auto a = hdc::HyperVector::random(dim, rng);
    const auto b = hdc::HyperVector::random(dim, rng);
    const auto aw = a.words();
    const auto bw = b.words();
    const std::size_t exact = reference_and_popcount(aw, bw);

    std::vector<std::size_t> caps{0, 1, exact, exact + 1, 64 * aw.size(),
                                  kUnbounded};
    if (exact > 0) {
      caps.push_back(exact - 1);
    }

    for (const auto* backend : hdc::simd::registered_backends()) {
      if (!backend->available()) {
        continue;
      }
      for (const std::size_t cap : caps) {
        SCOPED_TRACE(std::string(backend->name) + " dim " +
                     std::to_string(dim) + " cap " + std::to_string(cap));
        const auto scan = backend->and_popcount_capped(aw, bw, cap);
        EXPECT_LE(scan.value, exact);
        EXPECT_LE(scan.words_scanned, aw.size());
        if (scan.value > cap) {
          // A count that overshot the cap must be the exact full count:
          // the abort condition proves final <= cap, so it can never
          // fire on a scan whose final count exceeds it.
          EXPECT_EQ(scan.value, exact);
          EXPECT_EQ(scan.words_scanned, aw.size());
        } else {
          // At-or-under-cap result (possibly aborted): the true count
          // is provably <= cap.
          EXPECT_LE(exact, cap);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Pruned assignment == lowest-index argmin, checked by an oracle.

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

std::vector<hdc::HyperVector> make_points(std::size_t count, std::size_t dim,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<hdc::HyperVector> points;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    points.push_back(hdc::HyperVector::random(dim, rng));
  }
  return points;
}

/// `families` anchors with densities spread over [0.25, 0.75], then
/// `count` points cycling through the anchors with ~2% of bits flipped:
/// tight clusters of varied norm, on which the norm-bound skips fire
/// (on random points they almost never do).
std::vector<hdc::HyperVector> make_clustered_points(std::size_t count,
                                                    std::size_t dim,
                                                    std::size_t families,
                                                    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<hdc::HyperVector> anchors;
  for (std::size_t f = 0; f < families; ++f) {
    hdc::HyperVector anchor(dim);
    const std::uint64_t threshold =
        (1u << 14) + (f * (1u << 15)) / (families - 1);
    for (std::size_t i = 0; i < dim; ++i) {
      if ((rng() & 0xFFFF) < threshold) {
        anchor.flip(i);
      }
    }
    anchors.push_back(anchor);
  }
  std::vector<hdc::HyperVector> points;
  for (std::size_t j = 0; j < count; ++j) {
    auto point = anchors[j % families];
    for (std::size_t f = 0; f < dim / 50; ++f) {
      point.flip(rng.next_below(dim));
    }
    points.push_back(point);
  }
  return points;
}

/// `families` anchors as in make_clustered_points, then `count` points
/// that each mix two neighbouring anchors bit by bit at a random ratio,
/// plus ~2% flipped bits: a continuum between the families rather than
/// tight clusters, so K-Means keeps moving points for many iterations
/// while most of them settle early.
std::vector<hdc::HyperVector> make_mixed_points(std::size_t count,
                                                std::size_t dim,
                                                std::size_t families,
                                                std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<hdc::HyperVector> anchors;
  for (std::size_t f = 0; f < families; ++f) {
    hdc::HyperVector anchor(dim);
    const std::uint64_t threshold =
        (1u << 14) + (f * (1u << 15)) / (families - 1);
    for (std::size_t i = 0; i < dim; ++i) {
      if ((rng() & 0xFFFF) < threshold) {
        anchor.flip(i);
      }
    }
    anchors.push_back(anchor);
  }
  std::vector<hdc::HyperVector> points;
  for (std::size_t j = 0; j < count; ++j) {
    const auto& a = anchors[j % families];
    const auto& b = anchors[(j + 1) % families];
    const std::uint64_t ratio = rng() & 0xFFFF;
    hdc::HyperVector point(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      if ((rng() & 0xFFFF) < ratio ? a.get(i) : b.get(i)) {
        point.flip(i);
      }
    }
    for (std::size_t f = 0; f < dim / 50; ++f) {
      point.flip(rng.next_below(dim));
    }
    points.push_back(point);
  }
  return points;
}

std::vector<std::size_t> first_n_seeds(std::size_t k) {
  std::vector<std::size_t> seeds(k);
  for (std::size_t c = 0; c < k; ++c) {
    seeds[c] = c;
  }
  return seeds;
}

/// The argmin oracle: each point's lowest-index nearest centroid, by the
/// plain one-pair distances (Accumulator::cosine_distance, or Hamming to
/// the majority-binarized centroid). No bounds, no planes, no pruning.
std::vector<std::uint32_t> oracle_labels(
    const std::vector<hdc::Accumulator>& centroids,
    const std::vector<hdc::HyperVector>& points, ClusterDistance distance) {
  std::vector<hdc::HyperVector> majority;
  for (const auto& centroid : centroids) {
    majority.push_back(centroid.to_majority());
  }
  std::vector<std::uint32_t> labels;
  for (const auto& hv : points) {
    double best = std::numeric_limits<double>::infinity();
    std::uint32_t best_cluster = 0;
    for (std::size_t c = 0; c < centroids.size(); ++c) {
      const double d =
          distance == ClusterDistance::kCosine
              ? centroids[c].cosine_distance(hv)
              : static_cast<double>(hdc::hamming_distance(majority[c], hv));
      if (d < best) {
        best = d;
        best_cluster = static_cast<std::uint32_t>(c);
      }
    }
    labels.push_back(best_cluster);
  }
  return labels;
}

/// Runs `config` with budgets 1..iterations and checks each iteration's
/// labels against the oracle. A run of budget t ends on exactly the
/// centroids iteration t assigns against (queued reseed mass included;
/// the seeds for t = 0), so the run of budget t + 1 must carry the
/// oracle's labels — except that each reseed in iteration t moves one
/// point into a cluster the assignment left empty. Once a run stops at
/// its fixed point, every larger budget returns that same run, whose
/// labels the oracle reproduces exactly. Returns the full-budget run.
HvKMeansResult run_checked_by_oracle(
    const HvKMeansConfig& config, const std::vector<hdc::HyperVector>& points,
    const std::vector<std::size_t>& seeds) {
  const std::size_t k = config.clusters;
  std::vector<hdc::Accumulator> centroids(
      k, hdc::Accumulator(points.front().dim()));
  for (std::size_t c = 0; c < k; ++c) {
    centroids[c].add(points[seeds[c]], 1);
  }
  std::size_t reseeds = 0;
  HvKMeansResult run;
  for (std::size_t t = 0; t < config.iterations; ++t) {
    HvKMeansConfig budget = config;
    budget.iterations = t + 1;
    run = HvKMeans(budget).run(points, {}, seeds);
    const auto expected = oracle_labels(centroids, points, config.distance);
    std::vector<bool> filled(k, false);
    for (const std::uint32_t label : expected) {
      filled[label] = true;
    }
    std::size_t reseeded = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (run.assignment[i] != expected[i]) {
        ++reseeded;
        EXPECT_FALSE(filled[run.assignment[i]])
            << "iteration " << t << " point " << i << ": label "
            << run.assignment[i] << ", oracle " << expected[i];
      }
    }
    EXPECT_EQ(reseeded, run.reseeds - reseeds) << "iteration " << t;
    centroids = run.centroids;
    reseeds = run.reseeds;
  }
  return run;
}

TEST(PrunedAssignment, MatchesArgminOracleAcrossBackendsPoolsAndK) {
  const BackendSelectionGuard guard;
  // dim 1000 on purpose: a ragged last word keeps the bounded kernels'
  // scalar tails in play.
  const std::vector<std::pair<std::string, std::vector<hdc::HyperVector>>>
      datasets{{"random", make_points(60, 1000, 23)},
               {"clustered", make_clustered_points(60, 1000, 8, 23)}};
  for (const auto* backend : hdc::simd::registered_backends()) {
    if (!backend->available()) {
      continue;
    }
    hdc::simd::force_backend(backend->name);
    for (const auto& [name, points] : datasets) {
      for (const auto distance :
           {ClusterDistance::kCosine, ClusterDistance::kHamming}) {
        for (const std::size_t k : {2u, 5u, 16u, 40u}) {
          SCOPED_TRACE(std::string(backend->name) + " " + name +
                       (distance == ClusterDistance::kCosine ? " cosine"
                                                             : " hamming") +
                       " k " + std::to_string(k));
          util::ThreadPool serial(1);
          HvKMeansConfig config{
              .clusters = k, .iterations = 6, .distance = distance};
          config.pool = &serial;
          const auto seeds = first_n_seeds(k);
          const auto reference = run_checked_by_oracle(config, points, seeds);
          for (const std::size_t threads : {2u, 4u}) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            util::ThreadPool pool(threads);
            config.pool = &pool;
            expect_kmeans_results_identical(
                reference, HvKMeans(config).run(points, {}, seeds));
          }
        }
      }
    }
  }
}

TEST(PrunedAssignment, TieBreakAdversarialCoincidentCentroidsMatchOracle) {
  const BackendSelectionGuard guard;
  // Seeds 0..2 are byte-identical points, so three centroids coincide
  // and EVERY point ties between clusters 0, 1, and 2 at the exact
  // minimum — the argmin is decided purely by the lowest-index rule the
  // pruned scan must reproduce. A zero HV (and a zero seed centroid)
  // rides along to pin the zero-norm cosine shortcut, and the starved
  // clusters exercise the reseed path.
  auto points = make_points(30, 512, 29);
  points[1] = points[0];
  points[2] = points[0];
  points[5] = hdc::HyperVector(512);  // all-zero point
  for (const auto* backend : hdc::simd::registered_backends()) {
    if (!backend->available()) {
      continue;
    }
    hdc::simd::force_backend(backend->name);
    for (const auto distance :
         {ClusterDistance::kCosine, ClusterDistance::kHamming}) {
      SCOPED_TRACE(std::string(backend->name) + " distance " +
                   std::to_string(static_cast<int>(distance)));
      HvKMeansConfig config{
          .clusters = 5, .iterations = 8, .distance = distance};
      const std::vector<std::size_t> seeds{0, 1, 2, 5, 7};
      util::ThreadPool serial(1);
      config.pool = &serial;
      const auto reference = run_checked_by_oracle(config, points, seeds);
      EXPECT_GT(reference.reseeds, 0u) << "the starved clusters no longer "
                                          "reseed";
      util::ThreadPool pool(4);
      config.pool = &pool;
      expect_kmeans_results_identical(reference,
                                      HvKMeans(config).run(points, {}, seeds));
    }
  }
}

// ---------------------------------------------------------------------
// Carried bounds: a settled point keeps its label without a scan, so
// that label must be exactly the one the scan would have given, and a
// reseed must neither settle on stale bounds nor read stale distances.

/// One seeded small, reseed-heavy case: n in [20, 80), dim in
/// {64, 128, 192, 256}, 2-7 random anchor families with dim/8 flips per
/// point, K in [2, 21).
struct SweepCase {
  std::vector<hdc::HyperVector> points;
  std::size_t k = 0;
};

SweepCase make_sweep_case(std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t n = 20 + rng.next_below(60);
  const std::size_t dim = 64 * (1 + rng.next_below(4));
  const std::size_t families = 2 + rng.next_below(6);
  std::vector<hdc::HyperVector> anchors;
  for (std::size_t f = 0; f < families; ++f) {
    anchors.push_back(hdc::HyperVector::random(dim, rng));
  }
  SweepCase sweep;
  for (std::size_t i = 0; i < n; ++i) {
    auto point = anchors[rng.next_below(families)];
    for (std::size_t f = 0; f < dim / 8; ++f) {
      point.flip(rng.next_below(dim));
    }
    sweep.points.push_back(point);
  }
  sweep.k = 2 + rng.next_below(19);
  return sweep;
}

/// What one kmeans_assign span reports about its pass.
struct AssignPass {
  std::uint64_t evaluated = 0;
  std::uint64_t pruned = 0;
  std::uint64_t skipped = 0;
  std::string rescan;
};

/// The assignment passes a traced run recorded, in order.
std::vector<AssignPass> assign_passes(const obs::TraceSession& trace) {
  std::vector<AssignPass> passes;
  for (const auto& event : trace.events()) {
    if (std::string_view(event.name) != "kmeans_assign") {
      continue;
    }
    EXPECT_STREQ(event.arg1_key, "evaluated");
    EXPECT_STREQ(event.arg2_key, "pruned");
    EXPECT_STREQ(event.arg3_key, "skipped");
    EXPECT_STREQ(event.label_key, "rescan");
    passes.push_back({event.arg1_value, event.arg2_value, event.arg3_value,
                      event.label_value != nullptr ? event.label_value : ""});
  }
  return passes;
}

void fnv1a_fold(std::uint64_t& hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFFu;
    hash *= 0x100000001b3ULL;
  }
}

/// FNV-1a over labels, cluster weights, centroid counts and total
/// weights, and reseeds (test_kmeans.cpp's kmeans_state_hash).
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

TEST(CarriedBounds, MovingPointsMatchArgminOracleAcrossBackendsPoolsAndK) {
  const BackendSelectionGuard guard;
  // Points keep moving for at least four iterations at every K, while
  // most of them settle from iteration 2 on: every settled label must
  // be the oracle's.
  const auto points = make_mixed_points(300, 1000, 8, 23);
  std::size_t exact_passes = 0;
  std::size_t pruned_passes = 0;
  for (const auto* backend : hdc::simd::registered_backends()) {
    if (!backend->available()) {
      continue;
    }
    hdc::simd::force_backend(backend->name);
    for (const auto distance :
         {ClusterDistance::kCosine, ClusterDistance::kHamming}) {
      for (const std::size_t k : {2u, 5u, 16u}) {
        SCOPED_TRACE(std::string(backend->name) +
                     (distance == ClusterDistance::kCosine ? " cosine"
                                                           : " hamming") +
                     " k " + std::to_string(k));
        util::ThreadPool serial(1);
        HvKMeansConfig config{
            .clusters = k, .iterations = 12, .distance = distance};
        config.pool = &serial;
        const auto seeds = first_n_seeds(k);
        const auto reference = run_checked_by_oracle(config, points, seeds);
        EXPECT_GE(std::ranges::count_if(reference.moved_per_iteration,
                                        [](std::uint64_t m) { return m > 0; }),
                  4);

        const obs::TraceSession trace;
        expect_kmeans_results_identical(
            reference, HvKMeans(config).run(points, {}, seeds));
        const auto passes = assign_passes(trace);
        ASSERT_EQ(passes.size(), reference.iterations_run);
        EXPECT_EQ(passes[0].skipped, 0u) << "iteration 0 has no bounds";
        std::uint64_t late_skipped = 0;
        for (std::size_t t = 0; t < passes.size(); ++t) {
          if (t >= 2) {
            late_skipped += passes[t].skipped;
          }
          // The rescan rule: exact exactly when half the points settled.
          EXPECT_EQ(passes[t].rescan == "exact",
                    2 * passes[t].skipped >= points.size())
              << "iteration " << t;
          ++(passes[t].rescan == "exact" ? exact_passes : pruned_passes);
        }
        EXPECT_GT(late_skipped, 0u) << "no point settled after iteration 1";

        for (const std::size_t threads : {2u, 4u}) {
          SCOPED_TRACE("threads " + std::to_string(threads));
          util::ThreadPool pool(threads);
          config.pool = &pool;
          expect_kmeans_results_identical(
              reference, HvKMeans(config).run(points, {}, seeds));
        }
      }
    }
  }
  EXPECT_GT(exact_passes, 0u);
  EXPECT_GT(pruned_passes, 0u);
}

TEST(CarriedBounds, NearTiesMatchArgminOracle) {
  // Mirror-symmetric data: every point's mirror image (its two halves
  // swapped) is a point too, a quarter of the points are their own
  // mirror image up to one flipped bit, and the seeds are a mirror
  // pair. The symmetric points sit exactly on, or one dot unit off, the
  // boundary between mirror centroids, so the skip test meets the
  // smallest margins integer dots allow; each label must still be the
  // oracle's, ties to the lowest index.
  constexpr std::size_t kDim = 1024;
  constexpr std::size_t kHalf = kDim / 2;
  util::Rng rng(41);
  const auto anchor = hdc::HyperVector::random(kDim, rng);
  const auto mirror = [&](const hdc::HyperVector& hv) {
    hdc::HyperVector out(kDim);
    for (std::size_t i = 0; i < kDim; ++i) {
      if (hv.get((i + kHalf) % kDim)) {
        out.flip(i);
      }
    }
    return out;
  };
  std::vector<hdc::HyperVector> points;
  for (std::size_t j = 0; j < 60; ++j) {
    auto point = anchor;
    for (std::size_t f = 0; f < kDim / 6; ++f) {
      point.flip(rng.next_below(kDim));
    }
    points.push_back(point);
    points.push_back(mirror(point));
    if (j % 2 == 0) {
      hdc::HyperVector symmetric = hdc::HyperVector::random(kDim, rng);
      for (std::size_t i = 0; i < kHalf; ++i) {
        if (symmetric.get(i) != symmetric.get(i + kHalf)) {
          symmetric.flip(i + kHalf);
        }
      }
      if (j % 4 == 0) {
        symmetric.flip(rng.next_below(kDim));
      }
      points.push_back(symmetric);
    }
  }
  for (const auto distance :
       {ClusterDistance::kCosine, ClusterDistance::kHamming}) {
    SCOPED_TRACE(distance == ClusterDistance::kCosine ? "cosine" : "hamming");
    util::ThreadPool serial(1);
    HvKMeansConfig config{
        .clusters = 2, .iterations = 10, .distance = distance};
    config.pool = &serial;
    const std::vector<std::size_t> seeds{0, 1};
    const auto reference = run_checked_by_oracle(config, points, seeds);
    const obs::TraceSession trace;
    expect_kmeans_results_identical(reference,
                                    HvKMeans(config).run(points, {}, seeds));
    std::uint64_t skipped = 0;
    for (const auto& pass : assign_passes(trace)) {
      skipped += pass.skipped;
    }
    EXPECT_GT(skipped, 0u) << "no point settled, so no skip test ran";
  }
}

TEST(CarriedBounds, ReseededPointIsRescannedNotSettled) {
  // Four identical points of popcount 256, so every norm is an exact
  // square root and every distance below is exactly 0, seeded twice.
  // Every assignment puts all four in cluster 0 (the index tie-break),
  // every reseed moves point 0 into the empty cluster 1, and every next
  // assignment moves it back. From iteration 2 on, point 0's carried
  // bounds describe cluster 0's four-fold sum and would settle it in
  // cluster 1; only the reseed's invalidation makes it rescan.
  hdc::HyperVector x(512);
  for (std::size_t i = 0; i < 256; ++i) {
    x.flip(2 * i);
  }
  const std::vector<hdc::HyperVector> points(4, x);
  for (const auto distance :
       {ClusterDistance::kCosine, ClusterDistance::kHamming}) {
    SCOPED_TRACE(distance == ClusterDistance::kCosine ? "cosine" : "hamming");
    util::ThreadPool serial(1);
    HvKMeansConfig config{.clusters = 2, .iterations = 6, .distance = distance};
    config.pool = &serial;
    const auto result = run_checked_by_oracle(config, points, {0, 1});
    EXPECT_EQ(result.reseeds, 6u);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.moved_per_iteration,
              (std::vector<std::uint64_t>{0, 1, 1, 1, 1, 1}));
  }
}

TEST(CarriedBounds, SettleAndReseedInOneIterationMatchPinnedState) {
  // Sweep case 287 under Hamming (n 63, dim 128, K 4): iteration 2
  // settles points and reseeds an empty cluster, so the farthest-point
  // search must see exact own distances for the settled points too. The
  // state hash, reseeds and iterations were recorded before the
  // assignment carried any bounds.
  const auto [points, k] = make_sweep_case(287);
  const auto seeds = first_n_seeds(k);
  HvKMeansConfig config{.clusters = k,
                        .iterations = 40,
                        .distance = ClusterDistance::kHamming};
  util::ThreadPool serial(1);
  config.pool = &serial;
  std::vector<std::size_t> reseeds_at{0};
  for (std::size_t budget = 1; budget <= 4; ++budget) {
    config.iterations = budget;
    reseeds_at.push_back(HvKMeans(config).run(points, {}, seeds).reseeds);
  }
  config.iterations = 40;
  const obs::TraceSession trace;
  const auto result = HvKMeans(config).run(points, {}, seeds);
  const auto passes = assign_passes(trace);
  ASSERT_EQ(passes.size(), 4u);
  std::size_t both = 0;
  for (std::size_t t = 0; t < passes.size(); ++t) {
    if (passes[t].skipped > 0 && reseeds_at[t + 1] > reseeds_at[t]) {
      ++both;
    }
  }
  EXPECT_GT(both, 0u) << "no iteration both settles points and reseeds";
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    util::ThreadPool pool(threads);
    config.pool = &pool;
    const auto again = HvKMeans(config).run(points, {}, seeds);
    EXPECT_EQ(kmeans_state_hash(again), 4058732782747682178ULL);
    EXPECT_EQ(again.reseeds, 1u);
    EXPECT_EQ(again.iterations_run, 4u);
    expect_kmeans_results_identical(result, again);
  }
}

// ---------------------------------------------------------------------
// Fixed-point exit: a run stops at the first iteration that moves no
// point, applies no queued reseed subtract, and reseeds nothing — and
// only there, so a converged run is a true fixed point.

TEST(FixedPointExit, ConvergedRunsAreExactFixedPointsAcrossASeededSweep) {
  // Small, reseed-heavy runs: few tight anchor families, many clusters.
  // An iteration that moves nothing right after a reseed still applies
  // the reseed's queued source subtract, so its centroids change; the
  // sweep must contain such runs, and none of them may stop there.
  constexpr std::uint64_t kSweep = 6000;
  constexpr std::size_t kBudget = 40;
  util::ThreadPool serial(1);
  std::size_t converged = 0;
  std::size_t zero_move_after_reseed = 0;
  for (std::uint64_t seed = 0; seed < kSweep; ++seed) {
    const auto [points, k] = make_sweep_case(seed);
    const auto seeds = first_n_seeds(k);
    for (const auto distance :
         {ClusterDistance::kCosine, ClusterDistance::kHamming}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " n " +
                   std::to_string(points.size()) + " dim " +
                   std::to_string(points.front().dim()) + " k " +
                   std::to_string(k) +
                   (distance == ClusterDistance::kCosine ? " cosine"
                                                         : " hamming"));
      HvKMeansConfig config{
          .clusters = k, .iterations = kBudget, .distance = distance};
      config.pool = &serial;
      const auto result = HvKMeans(config).run(points, {}, seeds);
      ASSERT_EQ(result.moved_per_iteration.size(), result.iterations_run);
      if (!result.converged) {
        EXPECT_EQ(result.iterations_run, kBudget);
        continue;
      }
      ++converged;
      // A fixed point: the final centroids assign every point where it
      // already is, and five more iterations of budget change nothing.
      EXPECT_EQ(oracle_labels(result.centroids, points, distance),
                result.assignment);
      config.iterations = kBudget + 5;
      expect_kmeans_results_identical(
          result, HvKMeans(config).run(points, {}, seeds));

      // Count the zero-move iterations t that follow a reseed in t - 1:
      // the run at budget t reseeded more than the run at budget t - 1.
      const auto reseeds_at = [&](std::size_t budget) -> std::size_t {
        if (budget == 0) {
          return 0;
        }
        config.iterations = budget;
        return HvKMeans(config).run(points, {}, seeds).reseeds;
      };
      for (std::size_t t = 1; t < result.iterations_run; ++t) {
        if (result.moved_per_iteration[t] == 0 &&
            reseeds_at(t) > reseeds_at(t - 1)) {
          ++zero_move_after_reseed;
        }
      }
    }
  }
  EXPECT_GT(converged, kSweep);
  EXPECT_GT(zero_move_after_reseed, 0u)
      << "the sweep no longer reaches a zero-move iteration right after a "
         "reseed";
}

// ---------------------------------------------------------------------
// OpCounts: the assignment reports measured work obeying the
// conservation law, identically at every pool size.

TEST(PrunedAssignment, OpsAccountingConservationAtEveryKAndPool) {
  // Random points settle almost nothing; the mixed points settle most
  // of themselves from iteration 2 on, and a settled point counts as K
  // pruned pairs with no words scanned.
  const std::vector<std::pair<std::string, std::vector<hdc::HyperVector>>>
      datasets{{"random", make_points(40, 512, 31)},
               {"mixed", make_mixed_points(300, 1000, 8, 23)}};
  for (const auto& [name, points] : datasets) {
    const std::uint64_t n = points.size();
    const std::uint64_t dim = points.front().dim();
    const std::uint64_t words = (dim + 63) / 64;
    for (const auto distance :
         {ClusterDistance::kCosine, ClusterDistance::kHamming}) {
      for (const std::size_t k : {2u, 16u}) {
        SCOPED_TRACE(name +
                     (distance == ClusterDistance::kCosine ? " cosine"
                                                           : " hamming") +
                     " k " + std::to_string(k));
        util::ThreadPool serial(1);
        HvKMeansConfig config{
            .clusters = k, .iterations = 8, .distance = distance};
        config.pool = &serial;
        const auto seeds = first_n_seeds(k);
        const obs::TraceSession trace;
        const auto reference = HvKMeans(config).run(points, {}, seeds);
        const std::uint64_t pairs = n * k * reference.iterations_run;
        // Conservation: every (point, centroid) pair per iteration is
        // either evaluated or pruned, never both, never dropped.
        EXPECT_EQ(
            reference.ops.distance_evals + reference.ops.candidates_pruned,
            pairs);
        std::uint64_t skipped = 0;
        for (const auto& pass : assign_passes(trace)) {
          EXPECT_EQ(pass.evaluated + pass.pruned, n * k);
          EXPECT_GE(pass.pruned, pass.skipped * k);
          skipped += pass.skipped;
        }
        if (name == "mixed") {
          EXPECT_GT(skipped, 0u) << "no point settled";
        }
        // A dot or scan runs only for evaluated pairs, and never streams
        // more than the full rows, settled points included.
        EXPECT_LE(reference.ops.dot_adds, reference.ops.distance_evals * dim);
        EXPECT_GT(reference.ops.words_scanned, 0u);
        if (distance == ClusterDistance::kHamming) {
          EXPECT_EQ(reference.ops.dot_adds, reference.ops.distance_evals * dim);
          EXPECT_LE(reference.ops.words_scanned,
                    (pairs - skipped * k) * words);
        }

        // The per-block counters fold to the same totals at every pool
        // size.
        for (const std::size_t threads : {2u, 4u}) {
          util::ThreadPool pool(threads);
          config.pool = &pool;
          const auto again = HvKMeans(config).run(points, {}, seeds);
          expect_kmeans_results_identical(reference, again);
          EXPECT_EQ(again.ops.distance_evals, reference.ops.distance_evals)
              << "threads " << threads;
          EXPECT_EQ(again.ops.candidates_pruned,
                    reference.ops.candidates_pruned)
              << "threads " << threads;
          EXPECT_EQ(again.ops.dot_adds, reference.ops.dot_adds)
              << "threads " << threads;
          EXPECT_EQ(again.ops.words_scanned, reference.ops.words_scanned)
              << "threads " << threads;
        }
      }
    }
  }
}

TEST(PrunedAssignment, AssignSpansCarryEvaluatedAndPrunedCounts) {
  // Every kmeans_assign span reports the pass's work split and its
  // settled points in its three arg slots and the scan mode in its
  // label; the split conserves the n * K pairs of one pass, and the
  // mode follows the rescan rule.
  for (const auto& points :
       {make_points(40, 512, 31), make_mixed_points(300, 1000, 8, 23)}) {
    const std::uint64_t n = points.size();
    constexpr std::size_t kClusters = 16;
    const HvKMeansConfig config{.clusters = kClusters, .iterations = 8};
    const obs::TraceSession trace;
    const auto result =
        HvKMeans(config).run(points, {}, first_n_seeds(kClusters));
    const auto passes = assign_passes(trace);
    EXPECT_EQ(passes.size(), result.iterations_run);
    std::uint64_t pruned_total = 0;
    for (const auto& pass : passes) {
      EXPECT_EQ(pass.evaluated + pass.pruned, n * kClusters);
      EXPECT_GE(pass.pruned, pass.skipped * kClusters);
      EXPECT_EQ(pass.rescan, 2 * pass.skipped >= n ? "exact" : "pruned");
      pruned_total += pass.pruned;
    }
    EXPECT_EQ(pruned_total, result.ops.candidates_pruned);
  }
}

}  // namespace
