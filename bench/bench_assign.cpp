// K-Means assignment sweep: the candidate-pruned assignment with
// carried per-point bounds at K in {2, 8, 32, 64, 128, 256} on synthetic
// HVs that keep moving for several iterations.
//
//   ./bench_assign [--points 3000] [--dim 2048]
//                  [--k-list 2,8,32,64,128,256]
//                  [--iterations 10] [--repeats 3] [--threads 1]
//                  [--distance hamming|cosine] [--seed 7] [--csv]
//                  [--backend scalar|harley-seal|avx2|neon|auto]
//
// Each row reports the iterations actually run (a run stops at its
// first fixed point inside the --iterations budget), the assignment
// time (kmeans_assign spans), the whole-run time, and the measured
// pruned fraction (candidates skipped / candidate pairs) from the
// clusterer's own OpCounts, so the table shows WHY a row is fast, not
// just that it is. Under each row, one line per iteration of the last
// repeat gives the points moved, the points settled by their carried
// bounds, the evaluated and pruned pairs, and the assignment time, all
// read from that iteration's spans. Every row must conserve the
// candidate pairs — distance_evals + candidates_pruned == points * K *
// iterations run, a settled point counting K pruned pairs — or the run
// hard-fails (exit 1): a pair the accounting dropped or double-counted
// would make the fraction a lie.
// Label exactness is not re-checked here; test_kmeans_pruned holds the
// labels to a plain argmin oracle.
//
// The dataset is K anchor HVs of varied density (popcounts spread
// between ~25% and ~75% of dim); each point mixes two neighbouring
// anchors bit by bit at a random ratio and then flips ~2% of its bits.
// The points form a continuum between the families rather than tight
// clusters, so the runs keep moving points well past iteration 1 (the
// iterations that carried bounds can settle), while the popcount spread
// still feeds the norm-bound layer. Emits BENCH_assign.json with a
// per-K sweep array (each with its per-iteration rows) plus the K=128
// headline.
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

/// K anchor HVs with densities swept across [0.25, 0.75], then point j
/// mixes anchors j % k and (j + 1) % k at a random per-point ratio and
/// flips ~2% of its bits. Seeds {0..k-1} start one centroid per family.
std::vector<hdc::HyperVector> make_mixed_points(std::size_t count,
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
    const auto& a = anchors[j % k];
    const auto& b = anchors[(j + 1) % k];
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

/// One iteration of a run, read from its kmeans_iter and kmeans_assign
/// spans.
struct IterationRow {
  std::uint64_t moved = 0;
  std::uint64_t skipped = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t pruned = 0;
  double assign_ms = 0.0;
};

struct SweepRow {
  std::size_t k = 0;
  std::size_t iterations_run = 0;
  double seconds = 0.0;         ///< whole-run wall time, best of N
  double assign_seconds = 0.0;  ///< kmeans_assign span total, best of N
  double pruned_fraction = 0.0;
  std::vector<IterationRow> iterations;  ///< of the last repeat
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

/// Per-iteration rows of one run: the moved count from each kmeans_iter
/// span, the work split and time from the kmeans_assign span inside it
/// (spans arrive sorted by start time, an iteration before its assign).
std::vector<IterationRow> iterations_of(
    const std::vector<obs::TraceEvent>& events) {
  std::vector<IterationRow> rows;
  for (const auto& event : events) {
    const std::string_view name(event.name);
    if (name == "kmeans_iter") {
      rows.push_back({.moved = event.arg2_value});
    } else if (name == "kmeans_assign" && !rows.empty()) {
      rows.back().evaluated = event.arg1_value;
      rows.back().pruned = event.arg2_value;
      rows.back().skipped = event.arg3_value;
      rows.back().assign_ms = static_cast<double>(event.dur_ns) * 1e-6;
    }
  }
  return rows;
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
      static_cast<std::size_t>(cli.get_int("iterations", 10));
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
    const auto points = make_mixed_points(points_count, dim, k, seed);
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
      const auto events = trace.events();
      const double assign_seconds = assign_seconds_of(events);
      row.iterations = iterations_of(events);
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
      for (std::size_t t = 0; t < row.iterations.size(); ++t) {
        const IterationRow& it = row.iterations[t];
        std::printf("         iter %2zu  moved %6llu  skipped %6llu  "
                    "evaluated %8llu  pruned %8llu  %9.3f ms\n",
                    t, static_cast<unsigned long long>(it.moved),
                    static_cast<unsigned long long>(it.skipped),
                    static_cast<unsigned long long>(it.evaluated),
                    static_cast<unsigned long long>(it.pruned), it.assign_ms);
      }
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
    char entry[256];
    std::snprintf(entry, sizeof entry,
                  "%s{\"k\": %zu, \"iterations_run\": %zu, "
                  "\"assign_seconds\": %.6f, \"total_seconds\": %.6f, "
                  "\"pruned_fraction\": %.6f, \"per_iteration\": [",
                  i == 0 ? "" : ", ", rows[i].k, rows[i].iterations_run,
                  rows[i].assign_seconds, rows[i].seconds,
                  rows[i].pruned_fraction);
    sweep_json += entry;
    for (std::size_t t = 0; t < rows[i].iterations.size(); ++t) {
      const IterationRow& it = rows[i].iterations[t];
      std::snprintf(entry, sizeof entry,
                    "%s{\"moved\": %llu, \"skipped\": %llu, "
                    "\"evaluated\": %llu, \"pruned\": %llu, "
                    "\"assign_ms\": %.4f}",
                    t == 0 ? "" : ", ",
                    static_cast<unsigned long long>(it.moved),
                    static_cast<unsigned long long>(it.skipped),
                    static_cast<unsigned long long>(it.evaluated),
                    static_cast<unsigned long long>(it.pruned), it.assign_ms);
      sweep_json += entry;
    }
    sweep_json += "]}";
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
