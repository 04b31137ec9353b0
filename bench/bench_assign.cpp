// K-Means assignment sweep: the candidate-pruned assignment at K in
// {2, 8, 32, 64, 128, 256} on clustered synthetic HVs.
//
//   ./bench_assign [--points 3000] [--dim 2048]
//                  [--k-list 2,8,32,64,128,256]
//                  [--iterations 4] [--repeats 3] [--threads 1]
//                  [--distance hamming|cosine] [--seed 7] [--csv]
//                  [--backend scalar|harley-seal|avx2|neon|auto]
//
// Each row reports the iterations actually run (a run stops at its
// first fixed point inside the --iterations budget), the assignment
// time (kmeans_assign spans), the whole-run time, and the measured
// pruned fraction (candidates skipped / candidate pairs) from the
// clusterer's own OpCounts, so the table shows WHY a row is fast, not
// just that it is. Every row must conserve the candidate pairs —
// distance_evals + candidates_pruned == points * K * iterations run —
// or the run hard-fails (exit 1): a pair the accounting dropped or
// double-counted would make the fraction a lie.
// Label exactness is not re-checked here; test_kmeans_pruned holds the
// labels to a plain argmin oracle.
//
// The dataset is K anchor HVs of varied density (popcounts spread
// between ~25% and ~75% of dim) with ~2% of bits flipped per point —
// the popcount spread feeds the norm-bound layer, the tight clusters
// feed the early-exit bounded kernels. Emits BENCH_assign.json with a
// per-K sweep array plus the K=128 headline speedup.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "bench_report.hpp"
#include "src/core/kmeans.hpp"
#include "src/hdc/hypervector.hpp"
#include "src/hdc/simd/backend.hpp"
#include "src/hdc/simd/cpu_features.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/cli.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"
#include "src/util/stopwatch.hpp"

namespace {

using namespace seghdc;

/// K anchor HVs with densities swept across [0.25, 0.75], then one
/// point per (slot, anchor) with ~2% of bits flipped. Point j belongs
/// to anchor j % k, so seeds {0..k-1} start one centroid per family.
std::vector<hdc::HyperVector> make_clustered_points(std::size_t count,
                                                    std::size_t dim,
                                                    std::size_t k,
                                                    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<hdc::HyperVector> anchors;
  anchors.reserve(k);
  for (std::size_t c = 0; c < k; ++c) {
    hdc::HyperVector anchor(dim);
    // Density 25%..75% across the anchor family: keep bit i when a
    // 16-bit draw clears the anchor's threshold.
    const std::uint64_t threshold =
        (1u << 14) + ((k > 1 ? c : 1) * (1u << 15)) / (k > 1 ? k - 1 : 1);
    for (std::size_t i = 0; i < dim; ++i) {
      if ((rng() & 0xFFFF) < threshold) {
        anchor.flip(i);
      }
    }
    anchors.push_back(anchor);
  }
  std::vector<hdc::HyperVector> points;
  points.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    auto point = anchors[j % k];
    for (std::size_t f = 0; f < dim / 50; ++f) {
      point.flip(rng.next_below(dim));
    }
    points.push_back(point);
  }
  return points;
}

struct SweepRow {
  std::size_t k = 0;
  std::size_t iterations_run = 0;
  double seconds = 0.0;         ///< whole-run wall time, best of N
  double assign_seconds = 0.0;  ///< kmeans_assign span total, best of N
  double pruned_fraction = 0.0;
};

/// Sum of this run's "kmeans_assign" span durations — the assignment
/// step isolated from the (K-independent) update step, measured by the
/// same obs spans production uses.
double assign_seconds_of(const std::vector<obs::TraceEvent>& events) {
  std::uint64_t total_ns = 0;
  for (const auto& event : events) {
    if (std::string_view(event.name) == "kmeans_assign") {
      total_ns += event.dur_ns;
    }
  }
  return static_cast<double>(total_ns) * 1e-9;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  cli.reject_unknown({"backend", "csv", "dim", "distance", "iterations",
                      "k-list", "points", "repeats", "seed", "threads"});
  const auto points_count =
      static_cast<std::size_t>(cli.get_int("points", 3000));
  const auto dim = static_cast<std::size_t>(cli.get_int("dim", 2048));
  const auto iterations =
      static_cast<std::size_t>(cli.get_int("iterations", 4));
  const auto repeats = static_cast<std::size_t>(cli.get_int("repeats", 3));
  const auto threads = static_cast<std::size_t>(cli.get_int("threads", 1));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  const bool csv = cli.get_flag("csv");
  const std::string distance_flag = cli.get("distance", "hamming");
  core::ClusterDistance distance;
  if (distance_flag == "hamming") {
    distance = core::ClusterDistance::kHamming;
  } else if (distance_flag == "cosine") {
    distance = core::ClusterDistance::kCosine;
  } else {
    std::fprintf(stderr, "--distance must be hamming or cosine, got '%s'\n",
                 distance_flag.c_str());
    return 1;
  }
  const auto k_list = util::Cli::parse_size_list(
      cli.get("k-list", "2,8,32,64,128,256"), /*allow_zero=*/false);
  if (k_list.empty()) {
    std::fprintf(stderr, "--k-list must name at least one cluster count\n");
    return 1;
  }

  const std::string backend_flag = cli.get("backend", "");
  if (!backend_flag.empty()) {
    hdc::simd::force_backend(backend_flag);
  }

  std::printf("bench_assign: %zu points, dim=%zu, %s distance, %zu "
              "iterations, best of %zu repeats, %zu thread(s)\n",
              points_count, dim, distance_flag.c_str(), iterations, repeats,
              threads);
  std::printf("kernel backend: %s | cpu: %s\n",
              hdc::simd::active_backend().name,
              hdc::simd::cpu_feature_string().c_str());

  util::ThreadPool pool(threads);
  obs::LatencyRecorder latency(k_list.size() * repeats);

  std::vector<SweepRow> rows;
  if (csv) {
    std::printf("k,iterations_run,assign_seconds,total_seconds,"
                "pruned_fraction\n");
  } else {
    std::printf("%6s %6s %12s %12s %10s\n", "k", "iters", "assign-s",
                "total-s", "pruned%");
  }
  for (const std::size_t k : k_list) {
    if (points_count < k) {
      std::fprintf(stderr, "--points (%zu) must be >= k (%zu)\n",
                   points_count, k);
      return 1;
    }
    const auto points = make_clustered_points(points_count, dim, k, seed);
    std::vector<std::size_t> seeds(k);
    for (std::size_t c = 0; c < k; ++c) {
      seeds[c] = c;
    }
    core::HvKMeansConfig config{
        .clusters = k, .iterations = iterations, .distance = distance};
    config.pool = &pool;
    const core::HvKMeans kmeans(config);

    // Best-of-N timing; the last run's result is kept for the
    // conservation gate and the ops-based pruned fraction. A fresh
    // TraceSession per repeat isolates that run's kmeans_assign spans
    // (a handful of events — the tracing cost is noise).
    SweepRow row;
    row.k = k;
    core::HvKMeansResult result;
    for (std::size_t r = 0; r < repeats; ++r) {
      const obs::TraceSession trace;
      const util::Stopwatch watch;
      result = kmeans.run(points, {}, seeds);
      const double seconds = watch.seconds();
      const double assign_seconds = assign_seconds_of(trace.events());
      row.seconds = r == 0 ? seconds : std::min(row.seconds, seconds);
      row.assign_seconds = r == 0 ? assign_seconds
                                  : std::min(row.assign_seconds,
                                             assign_seconds);
      latency.record(seconds);
    }

    const std::uint64_t candidate_pairs =
        result.ops.distance_evals + result.ops.candidates_pruned;
    const std::uint64_t expected_pairs =
        static_cast<std::uint64_t>(points_count) * k * result.iterations_run;
    if (candidate_pairs != expected_pairs) {
      std::fprintf(stderr,
                   "FAIL: k=%zu evaluated + pruned = %llu candidate pairs, "
                   "expected points * k * iterations run = %llu\n",
                   k, static_cast<unsigned long long>(candidate_pairs),
                   static_cast<unsigned long long>(expected_pairs));
      return 1;
    }
    row.iterations_run = result.iterations_run;
    row.pruned_fraction = static_cast<double>(result.ops.candidates_pruned) /
                          static_cast<double>(candidate_pairs);
    rows.push_back(row);
    if (csv) {
      std::printf("%zu,%zu,%.6f,%.6f,%.4f\n", row.k, row.iterations_run,
                  row.assign_seconds, row.seconds, row.pruned_fraction);
    } else {
      std::printf("%6zu %6zu %12.4f %12.4f %9.1f%%\n", row.k,
                  row.iterations_run, row.assign_seconds, row.seconds,
                  row.pruned_fraction * 100.0);
    }
  }
  std::printf(
      "evaluated + pruned == points * k * iterations run at every k\n");

  // Headline: the K=128 row when swept, else the largest K.
  // "Throughput" is clustering runs per second there.
  const SweepRow* headline = &rows.back();
  for (const auto& row : rows) {
    if (row.k == 128) {
      headline = &row;
    }
  }
  std::string sweep_json = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    char entry[192];
    std::snprintf(entry, sizeof entry,
                  "%s{\"k\": %zu, \"iterations_run\": %zu, "
                  "\"assign_seconds\": %.6f, \"total_seconds\": %.6f, "
                  "\"pruned_fraction\": %.6f}",
                  i == 0 ? "" : ", ", rows[i].k, rows[i].iterations_run,
                  rows[i].assign_seconds, rows[i].seconds,
                  rows[i].pruned_fraction);
    sweep_json += entry;
  }
  sweep_json += "]";
  char headline_assign[32];
  std::snprintf(headline_assign, sizeof headline_assign, "%.6f",
                headline->assign_seconds);
  char headline_fraction[32];
  std::snprintf(headline_fraction, sizeof headline_fraction, "%.6f",
                headline->pruned_fraction);
  bench::write_bench_json(
      "BENCH_assign.json", "bench_assign", 1.0 / headline->seconds,
      latency.snapshot(),
      {{"distance", "\"" + distance_flag + "\""},
       {"points", std::to_string(points_count)},
       {"dim", std::to_string(dim)},
       {"iterations", std::to_string(iterations)},
       {"headline_k", std::to_string(headline->k)},
       {"assign_seconds", headline_assign},
       {"pruned_fraction", headline_fraction},
       {"sweep", sweep_json}});
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "bench_assign failed: %s\n", error.what());
  return 1;
}
