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
    util::Rng rng(seed);
    const std::size_t n = 20 + rng.next_below(60);
    const std::size_t dim = 64 * (1 + rng.next_below(4));
    const std::size_t families = 2 + rng.next_below(6);
    std::vector<hdc::HyperVector> anchors;
    for (std::size_t f = 0; f < families; ++f) {
      anchors.push_back(hdc::HyperVector::random(dim, rng));
    }
    std::vector<hdc::HyperVector> points;
    for (std::size_t i = 0; i < n; ++i) {
      auto point = anchors[rng.next_below(families)];
      for (std::size_t f = 0; f < dim / 8; ++f) {
        point.flip(rng.next_below(dim));
      }
      points.push_back(point);
    }
    const std::size_t k = 2 + rng.next_below(19);
    const auto seeds = first_n_seeds(k);
    for (const auto distance :
         {ClusterDistance::kCosine, ClusterDistance::kHamming}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " n " +
                   std::to_string(n) + " dim " + std::to_string(dim) +
                   " k " + std::to_string(k) +
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
  const auto points = make_points(40, 512, 31);
  const std::uint64_t n = points.size();
  constexpr std::uint64_t kDim = 512;
  constexpr std::uint64_t kWords = kDim / 64;
  for (const auto distance :
       {ClusterDistance::kCosine, ClusterDistance::kHamming}) {
    for (const std::size_t k : {2u, 16u}) {
      SCOPED_TRACE(std::string(distance == ClusterDistance::kCosine
                                   ? "cosine"
                                   : "hamming") +
                   " k " + std::to_string(k));
      util::ThreadPool serial(1);
      HvKMeansConfig config{
          .clusters = k, .iterations = 5, .distance = distance};
      config.pool = &serial;
      const auto seeds = first_n_seeds(k);
      const auto reference = HvKMeans(config).run(points, {}, seeds);
      const std::uint64_t pairs = n * k * reference.iterations_run;
      // Conservation: every (point, centroid) pair per iteration is
      // either evaluated or pruned, never both, never dropped.
      EXPECT_EQ(reference.ops.distance_evals + reference.ops.candidates_pruned,
                pairs);
      // A dot or scan runs only for evaluated pairs, and never streams
      // more than the full rows.
      EXPECT_LE(reference.ops.dot_adds, reference.ops.distance_evals * kDim);
      EXPECT_GT(reference.ops.words_scanned, 0u);
      if (distance == ClusterDistance::kHamming) {
        EXPECT_EQ(reference.ops.dot_adds, reference.ops.distance_evals * kDim);
        EXPECT_LE(reference.ops.words_scanned, pairs * kWords);
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

TEST(PrunedAssignment, AssignSpansCarryEvaluatedAndPrunedCounts) {
  // Every kmeans_assign span reports the pass's work split in its two
  // arg slots, and the split conserves the n * K pairs of one pass.
  const auto points = make_points(40, 512, 31);
  const std::uint64_t n = points.size();
  constexpr std::size_t kClusters = 16;
  const HvKMeansConfig config{.clusters = kClusters, .iterations = 5};
  const obs::TraceSession trace;
  const auto result =
      HvKMeans(config).run(points, {}, first_n_seeds(kClusters));
  std::size_t spans = 0;
  std::uint64_t pruned_total = 0;
  for (const auto& event : trace.events()) {
    if (std::string_view(event.name) != "kmeans_assign") {
      continue;
    }
    ++spans;
    EXPECT_STREQ(event.arg1_key, "evaluated");
    EXPECT_STREQ(event.arg2_key, "pruned");
    EXPECT_EQ(event.arg1_value + event.arg2_value, n * kClusters);
    pruned_total += event.arg2_value;
  }
  EXPECT_EQ(spans, result.iterations_run);
  EXPECT_EQ(pruned_total, result.ops.candidates_pruned);
}

}  // namespace
