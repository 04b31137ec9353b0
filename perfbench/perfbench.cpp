// perfbench runner: one workload, one seed, one measured run.
//
//   perfbench_runner --workload paper_single --seed 3 --seconds 20 --trace 0
//
// Drives the library only through its public entry points
// (SegHdcSession::{encode, cluster_and_finalize, segment, segment_many},
// SegHdcServer::submit/stats, OpCounts, obs::TraceSession) with default
// options, except for the pool and each workload's SegHdcConfig. Prints a
// human-readable report and, as its last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs half the time
// untraced and half traced and reports the per-layer metrics (see
// README.md for every metric and the workload it should move).
// Exits 1 when any output disagrees with the one-shot SegHdc path, or
// when the one-shot path no longer reproduces the committed seed-0 hash.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iomanip>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfbench/bench_stats.hpp"
#include "src/core/seghdc.hpp"
#include "src/core/session.hpp"
#include "src/datasets/bbbc005.hpp"
#include "src/datasets/dsb2018.hpp"
#include "src/datasets/monuseg.hpp"
#include "src/metrics/segmentation_metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/serve/server.hpp"
#include "src/util/cli.hpp"
#include "src/util/parallel.hpp"
#include "src/util/stopwatch.hpp"

namespace {

using namespace seghdc;
using perfbench::median;
using perfbench::percentile;

/// The seed whose check-sample hash is committed below (`golden`) and
/// checked on every run.
constexpr std::uint64_t kDefaultSeed = 0;
/// Start of the combined check-sample hash chain (label_map_hash's
/// default seed, the FNV-1a offset basis).
constexpr std::uint64_t kHashSeed = 14695981039346656037ULL;
/// Set-ups timed per run; the median is reported.
constexpr std::size_t kSetupRepeats = 15;
/// Dataset indices owned by one workload seed: seed s draws samples
/// [s * kSeedStride, s * kSeedStride + distinct_images).
constexpr std::uint64_t kSeedStride = 4096;
/// Allocations at least this large are mmapped and returned on free.
constexpr int kMmapThresholdBytes = 256 * 1024;
/// Longest an open-loop run waits for stragglers after its last arrival.
constexpr double kDrainTimeoutSeconds = 60.0;

enum class Loop {
  kClosed,  ///< one client, next request after the previous returns
  kBatch,   ///< segment_many over consecutive batches
  kOpen,    ///< Poisson arrivals into a SegHdcServer
};

struct Workload {
  std::string name;
  Loop loop = Loop::kClosed;
  std::size_t pool_threads = 1;
  core::SegHdcConfig config;
  std::shared_ptr<const data::DatasetGenerator> dataset;
  /// Images generated per run; requests cycle through them.
  std::size_t distinct_images = 0;
  /// Leading images whose outputs are checked against the one-shot path
  /// (and feed mean_iou and the per-image op counts).
  std::size_t check_images = 0;
  std::size_t batch = 0;   ///< images per segment_many call (kBatch)
  double rate = 0.0;       ///< arrivals per second (kOpen)
  std::uint64_t golden = 0;  ///< check-sample hash at kDefaultSeed
};

std::vector<Workload> make_workloads() {
  std::vector<Workload> list;
  {
    // Paper Table II shape: one 696x520 grayscale BBBC005 image at the
    // paper config on one core. The K-Means update dominates.
    Workload w;
    w.name = "paper_single";
    // The cell count is fixed at the middle of the generator's 10-35
    // range: the cost of an image follows its unique points, which follow
    // the cell count, and a fixed count keeps seeds comparable.
    data::Bbbc005Config cells;
    cells.min_cells = 22;
    cells.max_cells = 22;
    w.dataset = std::make_shared<data::Bbbc005Generator>(cells);
    w.config.dim = 10000;
    w.config.clusters = 2;
    w.config.iterations = 10;
    w.config.beta = w.dataset->profile().suggested_beta;
    w.config.color_quantization_shift = 0;
    w.distinct_images = 8;
    w.check_images = 3;
    w.golden = 11372903292613151428ULL;
    list.push_back(std::move(w));
  }
  {
    // Many clusters: the pruned assignment dominates, the update is
    // small. 256x256 RGB MoNuSeg on one core.
    Workload w;
    w.name = "palette_k32";
    w.dataset = std::make_shared<data::MonusegGenerator>();
    w.config.dim = 2000;
    w.config.clusters = 32;
    w.config.iterations = 6;
    w.config.beta = w.dataset->profile().suggested_beta;
    w.config.color_quantization_shift = 2;
    w.distinct_images = 8;
    w.check_images = 4;
    w.golden = 17565211448571575257ULL;
    list.push_back(std::move(w));
  }
  data::Dsb2018Config small;
  small.width = 128;
  small.height = 96;
  core::SegHdcConfig small_config;
  small_config.dim = 1000;
  small_config.clusters = 2;
  small_config.iterations = 6;
  small_config.beta = 8;
  small_config.color_quantization_shift = 2;
  {
    // Offline/eval throughput: segment_many on four threads.
    Workload w;
    w.name = "batch_small";
    w.loop = Loop::kBatch;
    w.pool_threads = 4;
    w.dataset = std::make_shared<data::Dsb2018Generator>(small);
    w.config = small_config;
    w.distinct_images = 64;
    w.check_images = 16;
    w.batch = 32;
    w.golden = 11135316483238366836ULL;
    list.push_back(std::move(w));
  }
  {
    // Open-loop serving of the same images at about half the server's
    // capacity on this shape (~44 img/s measured on 4 cores).
    Workload w;
    w.name = "serve_open";
    w.loop = Loop::kOpen;
    w.pool_threads = 4;
    w.dataset = std::make_shared<data::Dsb2018Generator>(small);
    w.config = small_config;
    w.distinct_images = 64;
    w.check_images = 16;
    w.rate = 20.0;
    w.golden = 11135316483238366836ULL;
    list.push_back(std::move(w));
  }
  return list;
}

/// The workload path's output for one check-sample image.
struct Output {
  bool seen = false;
  std::uint64_t hash = 0;
  double iou = 0.0;
  core::OpCounts ops;
  std::size_t unique_points = 0;
  std::size_t pixels = 0;
  std::size_t iterations = 0;
};

void record(std::vector<Output>& outputs, std::size_t index,
            const core::SegmentationResult& result, const data::Sample& sample,
            std::size_t clusters) {
  if (index >= outputs.size() || outputs[index].seen) {
    return;
  }
  Output& out = outputs[index];
  out.seen = true;
  out.hash = metrics::label_map_hash(result.labels);
  out.iou = clusters <= 16
                ? metrics::best_foreground_iou(result.labels, clusters,
                                               sample.mask)
                      .iou
                : metrics::best_foreground_iou_any(result.labels, sample.mask)
                      .iou;
  out.ops = result.ops;
  out.unique_points = result.unique_points;
  out.pixels = result.labels.width() * result.labels.height();
  out.iterations = result.iterations_run;
}

/// What one measured pass observed.
struct Pass {
  std::vector<double> latency_s;  ///< per request (per call for kBatch)
  std::size_t attempted = 0;      ///< images requested
  std::size_t images = 0;         ///< images delivered
  std::size_t failed = 0;         ///< thrown, refused or never delivered
  double busy_s = 0.0;  ///< closed/batch: summed call time; open: span
  double image_s = 0.0;           ///< kBatch: summed per-image seconds
  std::vector<double> encode_s;   ///< kBatch: per-image encode seconds
  std::vector<double> lag_s;      ///< kOpen: submit time minus due time
  std::size_t queue_depth_max = 0;
  std::uint64_t rejected = 0;
  std::uint64_t server_failed = 0;
};

/// Pool plus the session or server a workload drives. Declared so that
/// destruction stops the server or session before the pool they use.
struct Harness {
  std::unique_ptr<util::ThreadPool> pool;
  std::unique_ptr<core::SegHdcSession> session;
  std::unique_ptr<serve::SegHdcServer> server;
};

/// Builds the pool and the session (or server), then the encoder state
/// of the workload's geometry with one encode of `blank`, an all-zero
/// image of that geometry (so set-up does not depend on the seed).
Harness set_up(const Workload& w, const img::ImageU8& blank) {
  Harness h;
  h.pool = std::make_unique<util::ThreadPool>(w.pool_threads);
  if (w.loop == Loop::kOpen) {
    h.server = std::make_unique<serve::SegHdcServer>(
        w.config, serve::ServerOptions{.pool = h.pool.get()});
    (void)h.server->session().encode(blank);
  } else {
    h.session = std::make_unique<core::SegHdcSession>(
        w.config, core::SegHdcSession::Options{.pool = h.pool.get()});
    (void)h.session->encode(blank);
  }
  return h;
}

void report_failure(const char* what, const std::exception& e) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what, e.what());
}

Pass run_closed(const Workload& w, const core::SegHdcSession& session,
                const std::vector<data::Sample>& samples, double seconds,
                bool traced, std::vector<Output>& outputs) {
  Pass pass;
  const util::Stopwatch wall;
  for (std::size_t i = 0; i < w.check_images || wall.seconds() < seconds;
       ++i) {
    const data::Sample& sample = samples[i % samples.size()];
    ++pass.attempted;
    try {
      const util::Stopwatch call;
      core::SegmentationResult result;
      if (traced) {
        const obs::SpanScope request("bench.request", "bench");
        core::EncodedImage encoded;
        {
          const obs::SpanScope span("bench.encode", "bench");
          encoded = session.encode(sample.image);
        }
        const obs::SpanScope span("bench.cluster_and_finalize", "bench");
        result = session.cluster_and_finalize(std::move(encoded));
      } else {
        result = session.segment(sample.image);
      }
      const double seconds_taken = call.seconds();
      pass.latency_s.push_back(seconds_taken);
      pass.busy_s += seconds_taken;
      ++pass.images;
      record(outputs, i, result, sample, w.config.clusters);
    } catch (const std::exception& e) {
      report_failure("segment", e);
      ++pass.failed;
    }
  }
  return pass;
}

Pass run_batch(const Workload& w, const core::SegHdcSession& session,
               const std::vector<data::Sample>& samples,
               const std::vector<img::ImageU8>& images, double seconds,
               bool traced, std::vector<Output>& outputs) {
  Pass pass;
  const util::Stopwatch wall;
  for (std::size_t call = 0; call == 0 || wall.seconds() < seconds; ++call) {
    const std::size_t first = (call * w.batch) % images.size();
    const std::span<const img::ImageU8> batch(images.data() + first, w.batch);
    pass.attempted += w.batch;
    try {
      const util::Stopwatch watch;
      std::vector<core::SegmentationResult> results;
      if (traced) {
        const obs::SpanScope span("bench.segment_many", "bench");
        results = session.segment_many(batch);
      } else {
        results = session.segment_many(batch);
      }
      const double seconds_taken = watch.seconds();
      pass.latency_s.push_back(seconds_taken);
      pass.busy_s += seconds_taken;
      pass.images += results.size();
      for (std::size_t j = 0; j < results.size(); ++j) {
        pass.image_s += results[j].timings.total_seconds;
        pass.encode_s.push_back(results[j].timings.encode_seconds);
        record(outputs, first + j, results[j], samples[first + j],
               w.config.clusters);
      }
    } catch (const std::exception& e) {
      report_failure("segment_many", e);
      pass.failed += w.batch;
    }
  }
  return pass;
}

Pass run_open(const Workload& w, serve::SegHdcServer& server,
              const std::vector<data::Sample>& samples, std::uint64_t seed,
              double seconds, bool traced, std::vector<Output>& outputs) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> due = perfbench::poisson_schedule(seed, w.rate, seconds);
  // Very short runs still cover the whole check sample.
  while (due.size() < w.check_images) {
    due.push_back((due.empty() ? 0.0 : due.back()) + 1.0 / w.rate);
  }

  struct Slot {
    std::optional<Clock::time_point> done;
    std::optional<core::SegmentationResult> result;
  };
  std::vector<Slot> slots(due.size());
  std::mutex mutex;  // guards slots and delivered
  std::condition_variable delivered_cv;
  std::size_t delivered = 0;

  Pass pass;
  const serve::ServerStats before = server.stats();
  std::size_t accepted = 0;
  const Clock::time_point start = Clock::now();
  const auto due_at = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due[i]));
  };
  for (std::size_t i = 0; i < due.size(); ++i) {
    std::this_thread::sleep_until(due_at(i));
    pass.lag_s.push_back(
        std::chrono::duration<double>(Clock::now() - due_at(i)).count());
    pass.queue_depth_max =
        std::max(pass.queue_depth_max, server.stats().queued);
    ++pass.attempted;
    const bool keep = i < w.check_images;
    auto sink = [&, i, keep](core::SegmentationResult&& result) {
      const Clock::time_point now = Clock::now();
      const std::lock_guard<std::mutex> lock(mutex);
      slots[i].done = now;
      if (keep) {
        slots[i].result = std::move(result);
      }
      ++delivered;
      delivered_cv.notify_all();
    };
    try {
      if (traced) {
        const obs::SpanScope span("bench.submit", "bench");
        server.submit(samples[i % samples.size()].image, std::move(sink));
      } else {
        server.submit(samples[i % samples.size()].image, std::move(sink));
      }
      ++accepted;
    } catch (const serve::RejectedError& e) {
      report_failure("submit", e);
    } catch (const serve::ShutdownError& e) {
      report_failure("submit", e);
    }
  }

  // Drain: every accepted request is either delivered to its sink or
  // counted as failed/cancelled by the server (a failed request's sink
  // is never invoked).
  bool drained = false;
  const util::Stopwatch drain;
  while (!drained && drain.seconds() < kDrainTimeoutSeconds) {
    const serve::ServerStats now = server.stats();
    const std::size_t lost = (now.failed - before.failed) +
                             (now.cancelled - before.cancelled);
    std::unique_lock<std::mutex> lock(mutex);
    drained = delivered + lost >= accepted;
    if (!drained) {
      delivered_cv.wait_for(lock, std::chrono::milliseconds(5));
    }
  }
  if (!drained) {
    // Late sinks would write into this frame: stop the server, which
    // returns once its stage threads have exited. The undelivered
    // requests count as failed below.
    std::fprintf(stderr, "perfbench: server did not drain in %.0f s\n",
                 kDrainTimeoutSeconds);
    server.shutdown(serve::ShutdownMode::kCancel);
  }
  const serve::ServerStats after = server.stats();
  pass.rejected = after.rejected - before.rejected;
  pass.server_failed = after.failed - before.failed;

  const std::lock_guard<std::mutex> lock(mutex);
  Clock::time_point last = start;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i].done) {
      continue;
    }
    pass.latency_s.push_back(
        std::chrono::duration<double>(*slots[i].done - due_at(i)).count());
    last = std::max(last, *slots[i].done);
    ++pass.images;
    if (slots[i].result) {
      record(outputs, i, *slots[i].result, samples[i % samples.size()],
             w.config.clusters);
    }
  }
  pass.failed = pass.attempted - pass.images;
  pass.busy_s = std::chrono::duration<double>(last - start).count();
  return pass;
}

Pass run_pass(const Workload& w, Harness& h,
              const std::vector<data::Sample>& samples,
              const std::vector<img::ImageU8>& images, std::uint64_t seed,
              double seconds, bool traced, std::vector<Output>& outputs) {
  switch (w.loop) {
    case Loop::kClosed:
      return run_closed(w, *h.session, samples, seconds, traced, outputs);
    case Loop::kBatch:
      return run_batch(w, *h.session, samples, images, seconds, traced,
                       outputs);
    case Loop::kOpen:
      return run_open(w, *h.server, samples, seed, seconds, traced, outputs);
  }
  return {};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Per-layer times read from the traced pass's spans.
struct LayerTimes {
  std::vector<double> bench_encode_ms;
  std::vector<double> cluster_ms;
  std::vector<double> assign_ms;
  std::vector<double> update_ms;
  std::vector<double> label_map_ms;
  std::vector<double> serve_encode_ms;
  std::vector<double> serve_cluster_ms;
  std::vector<double> queue_wait_ms;
};

LayerTimes analyze(const std::vector<obs::TraceEvent>& events) {
  const perfbench::SpanTree tree = perfbench::build_span_tree(events);
  const auto is = [&](std::size_t i, const char* name) {
    return std::strcmp(events[i].name, name) == 0;
  };
  const auto ms = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  // The enclosing `kmeans` span of span i (one per clustering run).
  const auto kmeans_of = [&](std::size_t i) -> std::ptrdiff_t {
    std::ptrdiff_t p = tree.parent[i];
    while (p >= 0 && !is(static_cast<std::size_t>(p), "kmeans")) {
      p = tree.parent[static_cast<std::size_t>(p)];
    }
    return p;
  };
  LayerTimes t;
  std::unordered_map<std::ptrdiff_t, double> assign;
  std::unordered_map<std::ptrdiff_t, double> update;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const double dur = ms(events[i].dur_ns);
    if (is(i, "bench.encode")) {
      t.bench_encode_ms.push_back(dur);
    } else if (is(i, "kmeans")) {
      t.cluster_ms.push_back(dur);
      assign.try_emplace(static_cast<std::ptrdiff_t>(i), 0.0);
      update.try_emplace(static_cast<std::ptrdiff_t>(i), 0.0);
    } else if (is(i, "kmeans_assign")) {
      assign[kmeans_of(i)] += dur;
    } else if (is(i, "kmeans_iter")) {
      update[kmeans_of(i)] += ms(tree.self_ns[i]);
    } else if (is(i, "label_map")) {
      t.label_map_ms.push_back(dur);
    } else if (is(i, "encode") && std::strcmp(events[i].cat, "serve") == 0) {
      t.serve_encode_ms.push_back(dur);
    } else if (is(i, "cluster_finalize")) {
      t.serve_cluster_ms.push_back(dur);
    } else if (is(i, "queue_wait")) {
      t.queue_wait_ms.push_back(dur);
    }
  }
  for (const auto& [kmeans, value] : assign) {
    if (kmeans >= 0) {
      t.assign_ms.push_back(value);
    }
  }
  for (const auto& [kmeans, value] : update) {
    if (kmeans >= 0) {
      t.update_ms.push_back(value);
    }
  }
  return t;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_number(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << (std::isfinite(value) ? value : 0.0);
  return out.str();
}

void print_metrics(const std::vector<Metric>& list) {
  for (const Metric& m : list) {
    std::printf("  %-26s %16s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  }
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "<paper_single|palette_k32|batch_small|serve_open> --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold. Left dynamic, it rises after the first
  // large free, and whether later image-sized blocks come from the heap
  // or from mmap then depends on the order of image sizes, which moves
  // peak_rss_mb by a whole encoded block between seeds.
  mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes);
  std::string name;
  std::int64_t seed_arg = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
  try {
    const util::Cli cli(argc, argv);
    name = cli.get("workload", "");
    seed_arg = cli.get_int("seed", 0);
    seconds = cli.get_double("seconds", 10.0);
    trace = cli.get_int("trace", 0) != 0;
    trace_out = cli.get("trace-out", "");
    cli.reject_unknown({"workload", "seed", "seconds", "trace", "trace-out"});
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  }
  if (seed_arg < 0 || !(seconds > 0.0)) {
    return usage("--seed must be >= 0 and --seconds > 0");
  }
  const auto seed = static_cast<std::uint64_t>(seed_arg);
  const std::vector<Workload> all = make_workloads();
  const Workload* found = nullptr;
  for (const Workload& w : all) {
    if (w.name == name) {
      found = &w;
    }
  }
  if (found == nullptr) {
    return usage("unknown or missing --workload");
  }
  const Workload& w = *found;

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d pool=%zu dim=%zu "
              "K=%zu iterations=%zu\n",
              w.name.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace ? 1 : 0, w.pool_threads, w.config.dim, w.config.clusters,
              w.config.iterations);

  // Inputs: a pure function of the seed. Not part of set-up.
  std::vector<data::Sample> samples;
  std::vector<img::ImageU8> images;
  for (std::size_t i = 0; i < w.distinct_images; ++i) {
    samples.push_back(w.dataset->generate(seed * kSeedStride + i));
    images.push_back(samples.back().image);
  }

  const img::ImageU8& first = images.front();
  const img::ImageU8 blank(first.width(), first.height(), first.channels(), 0);
  std::vector<double> setup_s;
  std::optional<Harness> harness;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    harness.reset();  // server or session before the pool they use
    const util::Stopwatch watch;
    harness.emplace(set_up(w, blank));
    setup_s.push_back(watch.seconds());
  }

  std::vector<Output> outputs(w.check_images);
  Pass pass;
  Pass traced_pass;
  std::vector<obs::TraceEvent> events;
  std::uint64_t dropped = 0;
  if (!trace) {
    pass = run_pass(w, *harness, samples, images, seed, seconds, false,
                    outputs);
  } else {
    pass = run_pass(w, *harness, samples, images, seed, seconds / 2, false,
                    outputs);
    const obs::TraceSession session;
    traced_pass = run_pass(w, *harness, samples, images, seed, seconds / 2,
                           true, outputs);
    events = session.events();
    dropped = obs::Tracer::instance().dropped();
    if (!trace_out.empty()) {
      session.write_json(trace_out);
    }
  }
  const double rss_mb = peak_rss_mb();

  // Output check, outside every timed region: the workload path must
  // reproduce the one-shot SegHdc path bit for bit on the check sample.
  const core::SegHdc one_shot(w.config);
  std::uint64_t combined = kHashSeed;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < w.check_images; ++i) {
    const core::SegmentationResult reference =
        one_shot.segment(samples[i].image);
    const std::uint64_t hash = metrics::label_map_hash(reference.labels);
    combined = metrics::label_map_hash(reference.labels, combined);
    if (!outputs[i].seen || outputs[i].hash != hash) {
      std::printf("check: image %zu differs from the one-shot path\n", i);
      ++mismatches;
    }
  }
  // The committed hash pins the one-shot path itself, whatever the seed:
  // the default seed's check sample must still segment to `golden`.
  std::uint64_t golden_hash = combined;
  if (seed != kDefaultSeed) {
    golden_hash = kHashSeed;
    for (std::size_t i = 0; i < w.check_images; ++i) {
      const data::Sample sample =
          w.dataset->generate(kDefaultSeed * kSeedStride + i);
      golden_hash = metrics::label_map_hash(
          one_shot.segment(sample.image).labels, golden_hash);
    }
  }
  const bool golden_ok = golden_hash == w.golden;
  if (!golden_ok) {
    std::printf("check: seed %llu hash %llu != committed %llu\n",
                static_cast<unsigned long long>(kDefaultSeed),
                static_cast<unsigned long long>(golden_hash),
                static_cast<unsigned long long>(w.golden));
    ++mismatches;
  }

  const std::size_t attempted = pass.attempted + traced_pass.attempted;
  const std::size_t failed =
      pass.failed + traced_pass.failed + mismatches;
  const bool correct = failed == 0;

  double iou_sum = 0.0;
  double unique_sum = 0.0;
  double pixel_sum = 0.0;
  double iterations_sum = 0.0;
  core::OpCounts ops;
  for (const Output& out : outputs) {
    iou_sum += out.iou;
    unique_sum += static_cast<double>(out.unique_points);
    pixel_sum += static_cast<double>(out.pixels);
    iterations_sum += static_cast<double>(out.iterations);
    ops += out.ops;
  }
  const double per_image = 1.0 / static_cast<double>(w.check_images);

  const std::size_t n = pass.latency_s.size();
  const double error_rate =
      static_cast<double>(failed) / static_cast<double>(attempted);
  const std::vector<Metric> end_to_end = {
      {"latency_p50_ms", median(pass.latency_s) * 1e3, "ms"},
      {"images_per_s",
       pass.busy_s > 0.0 ? static_cast<double>(pass.images) / pass.busy_s : 0.0,
       "1/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"mean_iou", iou_sum * per_image, "frac"},
      {"success_rate", 1.0 - error_rate, "frac"},
  };
  std::printf("end-to-end (%zu latency samples%s):\n", n,
              trace ? ", untraced half" : "");
  print_metrics(end_to_end);
  if (n > 0) {
    const auto [lo, hi] =
        std::minmax_element(pass.latency_s.begin(), pass.latency_s.end());
    std::printf("  latency range %.3f .. %.3f ms\n", *lo * 1e3, *hi * 1e3);
  }
  // The highest percentile with kTailBeyond samples above it: p90 from
  // 100 samples on, p99 from 1000.
  const double tail = perfbench::reportable_tail_percentile(n);
  if (tail >= 90.0) {
    char tail_name[32];
    std::snprintf(tail_name, sizeof tail_name, "latency_p%g_ms", tail);
    std::printf("  %-26s %16s ms (n=%zu)\n", tail_name,
                json_number(percentile(pass.latency_s, tail) * 1e3).c_str(),
                n);
  } else {
    std::printf("  %-26s %16s (n=%zu < 100)\n", "latency_p90_ms",
                "not reported", n);
  }
  std::printf("  %-26s %16s frac (%zu of %zu)\n", "error_rate",
              json_number(error_rate).c_str(), failed, attempted);
  std::printf("check: %zu image(s) vs one-shot SegHdc::segment, %zu "
              "mismatch(es); seed hash %llu; seed-%llu hash %s\n",
              w.check_images, mismatches,
              static_cast<unsigned long long>(combined),
              static_cast<unsigned long long>(kDefaultSeed),
              golden_ok ? "= committed" : "WRONG");

  std::vector<Metric> reported = end_to_end;
  if (trace) {
    const LayerTimes t = analyze(events);
    // Per-image encode time, from outside the call where there is one.
    std::vector<double> encode_ms;
    switch (w.loop) {
      case Loop::kClosed:
        encode_ms = t.bench_encode_ms;
        break;
      case Loop::kBatch:
        for (const double s : traced_pass.encode_s) {
          encode_ms.push_back(s * 1e3);
        }
        break;
      case Loop::kOpen:
        encode_ms = t.serve_encode_ms;
        break;
    }
    const double evals = static_cast<double>(ops.distance_evals);
    const double pruned = static_cast<double>(ops.candidates_pruned);
    const double untraced_p50 = median(pass.latency_s);
    const double traced_p50 = median(traced_pass.latency_s);
    reported = {
        {"encode.ms", median(encode_ms), "ms"},
        {"encode.unique_frac", pixel_sum > 0 ? unique_sum / pixel_sum : 0.0,
         "frac"},
        {"encode.bind_xor_bits",
         static_cast<double>(ops.bind_xor_bits) * per_image, "bits"},
        {"cluster.ms", median(t.cluster_ms), "ms"},
        {"cluster.iterations", iterations_sum * per_image, "count"},
        {"cluster.update_ms", median(t.update_ms), "ms"},
        {"cluster.update_adds",
         static_cast<double>(ops.centroid_update_adds) * per_image, "count"},
        {"cluster.assign_ms", median(t.assign_ms), "ms"},
        {"cluster.distance_evals", evals * per_image, "count"},
        {"cluster.candidates_pruned", pruned * per_image, "count"},
        {"cluster.pruned_frac",
         evals + pruned > 0 ? pruned / (evals + pruned) : 0.0, "frac"},
        {"cluster.words_scanned",
         static_cast<double>(ops.words_scanned) * per_image, "count"},
        {"finalize.label_map_ms", median(t.label_map_ms), "ms"},
        {"serve.queue_wait_ms_p50", median(t.queue_wait_ms), "ms"},
        {"serve.queue_wait_ms_p90", percentile(t.queue_wait_ms, 90), "ms"},
        {"serve.encode_stage_ms", median(t.serve_encode_ms), "ms"},
        {"serve.cluster_stage_ms", median(t.serve_cluster_ms), "ms"},
        {"serve.queue_depth_max",
         static_cast<double>(
             std::max(pass.queue_depth_max, traced_pass.queue_depth_max)),
         "count"},
        {"serve.rejected",
         static_cast<double>(pass.rejected + traced_pass.rejected), "count"},
        {"serve.failed",
         static_cast<double>(pass.server_failed + traced_pass.server_failed),
         "count"},
        {"batch.pool_busy_frac",
         w.loop == Loop::kBatch && pass.busy_s > 0
             ? pass.image_s /
                   (pass.busy_s * static_cast<double>(w.pool_threads))
             : 0.0,
         "frac"},
        {"loadgen.lag_ms_p90", percentile(pass.lag_s, 90) * 1e3, "ms"},
        {"trace.overhead_frac",
         untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0.0, "frac"},
    };
    std::printf("per-layer (traced half: %zu latency samples, %zu spans, "
                "%llu dropped; p50 traced %.3f ms vs untraced %.3f ms):\n",
                traced_pass.latency_s.size(), events.size(),
                static_cast<unsigned long long>(dropped), traced_p50 * 1e3,
                untraced_p50 * 1e3);
    print_metrics(reported);
    if (w.loop == Loop::kClosed) {
      const double sum = median(t.bench_encode_ms) + median(t.cluster_ms) +
                         median(t.label_map_ms);
      std::printf("accounting: encode + cluster + label_map = %.3f ms, "
                  "%.1f%% of the traced p50\n",
                  sum, traced_p50 > 0 ? 100.0 * sum / (traced_p50 * 1e3) : 0.0);
    }
    if (!trace_out.empty()) {
      std::printf("trace: %s\n", trace_out.c_str());
    }
  }

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    json << (i == 0 ? "" : ", ") << '"' << reported[i].name
         << "\": {\"value\": " << json_number(reported[i].value)
         << ", \"unit\": \"" << reported[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return correct ? 0 : 1;
}
