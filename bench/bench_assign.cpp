// Large-K assignment sweep: pruned vs exhaustive K-Means at K in
// {8, 32, 64, 128, 256} on clustered synthetic HVs.
//
//   ./bench_assign [--points 3000] [--dim 2048] [--k-list 8,32,64,128,256]
//                  [--iterations 4] [--repeats 3] [--threads 1]
//                  [--distance hamming|cosine] [--seed 7] [--csv]
//                  [--backend scalar|harley-seal|avx2|neon|auto]
//
// Both modes run the identical clustering problem; the assignments are
// compared element-wise and ANY divergence is a hard failure (exit 1) —
// pruning is an exactness contract, and a speedup table over wrong
// labels is worthless. Each row reports the measured pruned fraction
// (candidates skipped / candidate pairs) from the clusterer's own
// OpCounts, so the table shows WHY a row is fast, not just that it is.
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
  double exhaustive_seconds = 0.0;       ///< whole-run wall time
  double pruned_seconds = 0.0;
  double exhaustive_assign_seconds = 0.0;  ///< kmeans_assign span total
  double pruned_assign_seconds = 0.0;
  double assign_speedup = 0.0;
  double total_speedup = 0.0;
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
      cli.get("k-list", "8,32,64,128,256"), /*allow_zero=*/false);
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
  obs::LatencyRecorder pruned_latency(k_list.size() * repeats);

  std::vector<SweepRow> rows;
  if (csv) {
    std::printf("k,exhaustive_assign_seconds,pruned_assign_seconds,"
                "assign_speedup,total_speedup,pruned_fraction\n");
  } else {
    std::printf("%6s %12s %12s %9s %9s %10s\n", "k", "exh-assign",
                "prn-assign", "assign", "total", "pruned%");
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
    core::HvKMeansConfig config{.clusters = k,
                                .iterations = iterations,
                                .distance = distance,
                                .assign_mode = core::AssignMode::kExhaustive};
    config.pool = &pool;

    // Best-of-N timing per mode; the last run's result is kept for the
    // divergence check and the ops-based pruned fraction. A fresh
    // TraceSession per repeat isolates that run's kmeans_assign spans
    // (a handful of events — the tracing cost is noise).
    const auto time_mode = [&](core::AssignMode mode, double* best_seconds,
                               double* best_assign_seconds) {
      config.assign_mode = mode;
      const core::HvKMeans kmeans(config);
      core::HvKMeansResult result;
      for (std::size_t r = 0; r < repeats; ++r) {
        const obs::TraceSession trace;
        const util::Stopwatch watch;
        result = kmeans.run(points, {}, seeds);
        const double seconds = watch.seconds();
        const double assign_seconds = assign_seconds_of(trace.events());
        *best_seconds =
            r == 0 ? seconds : std::min(*best_seconds, seconds);
        *best_assign_seconds =
            r == 0 ? assign_seconds
                   : std::min(*best_assign_seconds, assign_seconds);
        if (mode == core::AssignMode::kPruned) {
          pruned_latency.record(seconds);
        }
      }
      return result;
    };

    SweepRow row;
    row.k = k;
    const auto exhaustive =
        time_mode(core::AssignMode::kExhaustive, &row.exhaustive_seconds,
                  &row.exhaustive_assign_seconds);
    const auto pruned =
        time_mode(core::AssignMode::kPruned, &row.pruned_seconds,
                  &row.pruned_assign_seconds);

    if (exhaustive.assignment != pruned.assignment) {
      std::fprintf(stderr,
                   "FAIL: pruned labels diverge from exhaustive at k=%zu\n",
                   k);
      return 1;
    }
    const auto candidate_pairs =
        pruned.ops.distance_evals + pruned.ops.candidates_pruned;
    row.assign_speedup =
        row.exhaustive_assign_seconds / row.pruned_assign_seconds;
    row.total_speedup = row.exhaustive_seconds / row.pruned_seconds;
    row.pruned_fraction =
        candidate_pairs == 0
            ? 0.0
            : static_cast<double>(pruned.ops.candidates_pruned) /
                  static_cast<double>(candidate_pairs);
    rows.push_back(row);
    if (csv) {
      std::printf("%zu,%.4f,%.4f,%.2f,%.2f,%.4f\n", row.k,
                  row.exhaustive_assign_seconds, row.pruned_assign_seconds,
                  row.assign_speedup, row.total_speedup,
                  row.pruned_fraction);
    } else {
      std::printf("%6zu %12.4f %12.4f %8.2fx %8.2fx %9.1f%%\n", row.k,
                  row.exhaustive_assign_seconds, row.pruned_assign_seconds,
                  row.assign_speedup, row.total_speedup,
                  row.pruned_fraction * 100.0);
    }
  }
  std::printf("pruned assignments identical to exhaustive at every k\n");

  // Headline: the K=128 row when swept (the acceptance gate), else the
  // largest K. "Throughput" is pruned clustering runs per second there.
  const SweepRow* headline = &rows.back();
  for (const auto& row : rows) {
    if (row.k == 128) {
      headline = &row;
    }
  }
  std::string sweep_json = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    char entry[256];
    std::snprintf(
        entry, sizeof entry,
        "%s{\"k\": %zu, \"exhaustive_assign_seconds\": %.6f, "
        "\"pruned_assign_seconds\": %.6f, \"assign_speedup\": %.4f, "
        "\"total_speedup\": %.4f, \"pruned_fraction\": %.6f}",
        i == 0 ? "" : ", ", rows[i].k, rows[i].exhaustive_assign_seconds,
        rows[i].pruned_assign_seconds, rows[i].assign_speedup,
        rows[i].total_speedup, rows[i].pruned_fraction);
    sweep_json += entry;
  }
  sweep_json += "]";
  char headline_speedup[32];
  std::snprintf(headline_speedup, sizeof headline_speedup, "%.4f",
                headline->assign_speedup);
  char headline_total[32];
  std::snprintf(headline_total, sizeof headline_total, "%.4f",
                headline->total_speedup);
  char headline_fraction[32];
  std::snprintf(headline_fraction, sizeof headline_fraction, "%.6f",
                headline->pruned_fraction);
  bench::write_bench_json(
      "BENCH_assign.json", "bench_assign",
      1.0 / headline->pruned_seconds, pruned_latency.snapshot(),
      {{"distance", "\"" + distance_flag + "\""},
       {"points", std::to_string(points_count)},
       {"dim", std::to_string(dim)},
       {"iterations", std::to_string(iterations)},
       {"headline_k", std::to_string(headline->k)},
       {"assign_speedup", headline_speedup},
       {"total_speedup", headline_total},
       {"pruned_fraction", headline_fraction},
       {"sweep", sweep_json}});
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "bench_assign failed: %s\n", error.what());
  return 1;
}
