// Async serving throughput + tail latency: SegHdcServer (the
// request-level path, N whole-image workers) vs
// SegHdcSession::segment_many (the batch/barrier path) over the same
// DSB2018-like traffic.
//
//   ./bench_serving [--images 24] [--width 128] [--height 96]
//                   [--dim 1000] [--beta 8] [--clusters 2]
//                   [--iterations 6] [--quantize 2] [--seed 42]
//                   [--threads 1,2,4] [--queue 0,4]
//                   [--workers 2]
//                   [--repeats 3] [--csv]
//                   [--backend scalar|harley-seal|avx2|neon|auto]
//                   [--tenants N] [--max-in-flight-total 0] [--stream]
//
// For each pool size T in --threads, the barrier path `many@T` is timed
// first; then for each queue capacity C in --queue (0 = unbounded) the
// server path `serve@T/qC` submits the whole batch asynchronously and
// waits for every future. Server rows additionally report the
// per-request submit-to-completion p50/p95/p99 from the ServerStats
// snapshot — the tail the barrier path cannot even measure, because its
// callers block on the whole batch.
//
// Every row's combined label hash (in submit order) is checked against
// the sequential session loop; ANY divergence between the server and
// segment_many paths is a hard failure (exit 1). The speedup table of a
// wrong result is worthless.
//
// --tenants N switches to the fleet bench: one SegHdcFleet carrying N
// tenants (configs differing by seed) on a shared pool, every tenant
// fed the whole batch with submissions interleaved across tenants. For
// each pool size T and per-tenant queue capacity C, the row reports
// fleet throughput and admission-to-done tail latency; every tenant's
// hash is checked against its own solo sequential loop, and ANY
// per-tenant divergence is a hard failure (exit 1) — multi-tenancy must
// change who waits, never what anyone gets.
//
// --stream switches to the temporal bench: a static-prefix / pan /
// static-tail frame sequence (the warm-start shape) segmented three
// ways per pool size — cold per-frame, session segment_stream, and a
// server stream handle. Hard gates (exit 1): frame 0 of every stream
// is hash-equal to the cold reference, the session-stream and
// server-stream hashes are identical at every pool size, the stream
// hash itself is identical across pool sizes, and a cold re-run AFTER
// streaming still matches the cold reference — warm-start drift is
// opt-in per stream, never a side effect on the cold path.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "src/core/session.hpp"
#include "src/datasets/dsb2018.hpp"
#include "src/hdc/simd/backend.hpp"
#include "src/hdc/simd/cpu_features.hpp"
#include "src/metrics/segmentation_metrics.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/serve/fleet.hpp"
#include "src/serve/server.hpp"
#include "src/util/cli.hpp"
#include "src/util/parallel.hpp"
#include "src/util/stopwatch.hpp"

namespace {

using namespace seghdc;

std::uint64_t batch_hash(const std::vector<core::SegmentationResult>& results) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const auto& result : results) {
    hash = metrics::label_map_hash(result.labels, hash);
  }
  return hash;
}

struct Row {
  std::string name;
  double seconds = 0.0;
  std::uint64_t hash = 0;
  bool has_latency = false;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  obs::LatencyPercentiles latency;
};

/// The fleet bench: N tenants on one shared pool, every tenant fed the
/// whole batch, per-tenant hashes gated against each tenant's own solo
/// sequential loop. Returns the process exit code.
int run_fleet_bench(const util::Cli& cli, const core::SegHdcConfig& base,
                    const std::vector<img::ImageU8>& images,
                    const std::vector<std::size_t>& thread_list,
                    const std::vector<std::size_t>& queue_list,
                    std::size_t tenant_count, std::size_t workers,
                    std::size_t repeats, bool csv) {
  const auto max_in_flight_total =
      static_cast<std::size_t>(cli.get_int("max-in-flight-total", 0));

  // Tenant configs differ by seed, so a cross-tenant mix-up cannot
  // hash-collide; each tenant's answer key is its own sequential loop.
  std::vector<core::SegHdcConfig> configs;
  std::vector<std::uint64_t> expected;
  configs.reserve(tenant_count);
  expected.reserve(tenant_count);
  for (std::size_t t = 0; t < tenant_count; ++t) {
    core::SegHdcConfig config = base;
    config.seed = base.seed + t;
    util::ThreadPool one(1);
    const core::SegHdcSession session(config,
                                      core::SegHdcSession::Options{&one});
    std::vector<core::SegmentationResult> results;
    results.reserve(images.size());
    for (const auto& image : images) {
      results.push_back(session.segment(image));
    }
    configs.push_back(config);
    expected.push_back(batch_hash(results));
  }

  bool hashes_match = true;
  std::vector<Row> rows;
  obs::LatencyPercentiles last_latency;
  for (const std::size_t threads : thread_list) {
    util::ThreadPool pool(threads);
    for (const std::size_t capacity : queue_list) {
      Row row;
      row.name = "fleet@" + std::to_string(threads) + "/q" +
                 (capacity == 0 ? std::string("inf")
                                : std::to_string(capacity)) +
                 "/x" + std::to_string(tenant_count);
      row.has_latency = true;
      for (std::size_t r = 0; r < repeats; ++r) {
        serve::FleetOptions fleet_options;
        fleet_options.pool = &pool;
        fleet_options.max_in_flight_total = max_in_flight_total;
        serve::SegHdcFleet fleet(fleet_options);
        std::vector<std::string> names;
        for (std::size_t t = 0; t < tenant_count; ++t) {
          names.push_back("tenant" + std::to_string(t));
          serve::TenantOptions tenant_options;
          tenant_options.max_queued = capacity;
          tenant_options.workers = workers;
          fleet.add_tenant(names.back(), configs[t], tenant_options);
        }
        const util::Stopwatch watch;
        std::vector<std::vector<std::future<core::SegmentationResult>>>
            futures(tenant_count);
        for (const auto& image : images) {
          for (std::size_t t = 0; t < tenant_count; ++t) {
            futures[t].push_back(fleet.submit(names[t], image));
          }
        }
        std::uint64_t combined = 14695981039346656037ULL;
        for (std::size_t t = 0; t < tenant_count; ++t) {
          std::vector<core::SegmentationResult> results;
          results.reserve(images.size());
          for (auto& future : futures[t]) {
            results.push_back(future.get());
          }
          const std::uint64_t hash = batch_hash(results);
          if (hash != expected[t]) {
            hashes_match = false;
            std::fprintf(stderr,
                         "FAIL: %s tenant%zu hash %016llx != solo "
                         "%016llx\n",
                         row.name.c_str(), t,
                         static_cast<unsigned long long>(hash),
                         static_cast<unsigned long long>(expected[t]));
          }
          combined ^= hash;
        }
        const double seconds = watch.seconds();
        row.hash = combined;
        if (r == 0 || seconds < row.seconds) {
          row.seconds = seconds;
          const auto stats = fleet.stats();
          row.p50_ms = stats.latency.p50_seconds * 1e3;
          row.p95_ms = stats.latency.p95_seconds * 1e3;
          row.p99_ms = stats.latency.p99_seconds * 1e3;
          last_latency = stats.latency;
        }
      }
      rows.push_back(row);
    }
  }

  const double total =
      static_cast<double>(images.size()) * static_cast<double>(tenant_count);
  if (csv) {
    std::printf("mode,seconds,images_per_sec,p50_ms,p95_ms,p99_ms,hash\n");
  } else {
    std::printf("%-16s %10s %12s %9s %9s %9s  %s\n", "mode", "seconds",
                "images/sec", "p50 ms", "p95 ms", "p99 ms",
                "combined hash");
  }
  for (const auto& row : rows) {
    const double ips = total / row.seconds;
    if (csv) {
      std::printf("%s,%.4f,%.2f,%.2f,%.2f,%.2f,%016llx\n", row.name.c_str(),
                  row.seconds, ips, row.p50_ms, row.p95_ms, row.p99_ms,
                  static_cast<unsigned long long>(row.hash));
    } else {
      std::printf("%-16s %10.4f %12.2f %9.2f %9.2f %9.2f  %016llx\n",
                  row.name.c_str(), row.seconds, ips, row.p50_ms,
                  row.p95_ms, row.p99_ms,
                  static_cast<unsigned long long>(row.hash));
    }
  }
  if (!hashes_match) {
    std::fprintf(stderr,
                 "FAIL: at least one tenant's label hashes diverge from "
                 "its solo sequential loop\n");
    return 1;
  }
  // Honest window note: percentiles cover the sliding window, the mean
  // covers the lifetime count — say which is which.
  std::printf("latency percentiles over last %llu of %llu requests "
              "(fastest pass)\n",
              static_cast<unsigned long long>(last_latency.window_count),
              static_cast<unsigned long long>(last_latency.count));
  std::printf("all %zu tenants bit-identical to their solo loops at every "
              "pool size and queue capacity\n",
              tenant_count);
  return 0;
}

/// One synthetic stream frame: gradient background, a fixed noisy
/// texture row, and a dark square at `square_x` (what moves during the
/// pan phase).
img::ImageU8 stream_frame(std::size_t width, std::size_t height,
                          std::size_t square_x) {
  img::ImageU8 frame(width, height, 3);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      const auto base = static_cast<std::uint8_t>(160 + (y * 40) / height);
      frame.at(x, y, 0) = base;
      frame.at(x, y, 1) = base;
      frame.at(x, y, 2) = static_cast<std::uint8_t>(base - 10);
    }
  }
  for (std::size_t x = 0; x < width; ++x) {
    frame.at(x, 0, 0) = static_cast<std::uint8_t>((x * 199) % 256);
  }
  const std::size_t side = height / 4;
  for (std::size_t dy = 0; dy < side; ++dy) {
    for (std::size_t dx = 0; dx < side; ++dx) {
      const std::size_t x = square_x + dx;
      const std::size_t y = height / 3 + dy;
      if (x < width && y < height) {
        frame.at(x, y, 0) = 40;
        frame.at(x, y, 1) = 45;
        frame.at(x, y, 2) = 50;
      }
    }
  }
  return frame;
}

std::uint64_t frame_seq_hash(
    const std::vector<core::StreamFrameResult>& outcomes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const auto& outcome : outcomes) {
    hash = metrics::label_map_hash(outcome.result.labels, hash);
  }
  return hash;
}

/// The temporal bench: warm-start streaming vs the cold per-frame loop,
/// with hard hash gates on every invariant the stream path promises.
/// Returns the process exit code.
int run_stream_bench(const util::Cli& cli, const core::SegHdcConfig& config,
                     const std::vector<std::size_t>& thread_list,
                     std::size_t frame_count, std::size_t repeats,
                     bool csv) {
  const auto width = static_cast<std::size_t>(cli.get_int("width", 128));
  const auto height = static_cast<std::size_t>(cli.get_int("height", 96));

  // Static prefix, 1-px/frame pan, static tail: replay, band reuse, and
  // warm convergence each get frames that exercise them.
  std::vector<img::ImageU8> frames;
  frames.reserve(frame_count);
  const std::size_t prefix = frame_count / 4;
  const std::size_t tail = frame_count / 4;
  for (std::size_t f = 0; f < frame_count; ++f) {
    const std::size_t pan =
        f < prefix ? 0 : std::min(f - prefix, frame_count - prefix - tail);
    frames.push_back(stream_frame(width, height, width / 8 + pan));
  }

  // Cold per-frame reference on a 1-thread pool: the answer key for
  // frame 0, for replayed frames, and for the post-stream cold re-run.
  std::vector<std::uint64_t> cold_hashes;
  std::size_t cold_iterations = 0;
  {
    util::ThreadPool one(1);
    const core::SegHdcSession session(config,
                                      core::SegHdcSession::Options{&one});
    for (const auto& frame : frames) {
      const auto result = session.segment(frame);
      cold_hashes.push_back(metrics::label_map_hash(result.labels));
      cold_iterations += result.iterations_run;
    }
  }

  bool gates_pass = true;
  std::uint64_t stream_hash_all_rows = 0;
  bool have_stream_hash = false;
  struct StreamRow {
    std::string name;
    double seconds = 0.0;
    std::uint64_t hash = 0;
    std::size_t iterations = 0;
    std::size_t tiles_reused = 0, tiles_encoded = 0, replayed = 0;
  };
  std::vector<StreamRow> rows;

  for (const std::size_t threads : thread_list) {
    util::ThreadPool pool(threads);
    const core::SegHdcSession session(config,
                                      core::SegHdcSession::Options{&pool});

    {  // Cold row: what a per-image deployment pays for this feed.
      StreamRow row;
      row.name = "cold@" + std::to_string(threads);
      row.iterations = cold_iterations;
      for (std::size_t r = 0; r < repeats; ++r) {
        const util::Stopwatch watch;
        std::uint64_t hash = 14695981039346656037ULL;
        for (const auto& frame : frames) {
          hash = metrics::label_map_hash(session.segment(frame).labels, hash);
        }
        row.hash = hash;
        const double seconds = watch.seconds();
        row.seconds = r == 0 ? seconds : std::min(row.seconds, seconds);
      }
      rows.push_back(row);
    }

    {  // Session-stream row: segment_stream, fresh Stream per repeat.
      StreamRow row;
      row.name = "stream@" + std::to_string(threads);
      for (std::size_t r = 0; r < repeats; ++r) {
        core::SegHdcSession::Stream stream;
        const util::Stopwatch watch;
        std::vector<core::StreamFrameResult> outcomes;
        outcomes.reserve(frames.size());
        for (const auto& frame : frames) {
          outcomes.push_back(session.segment_stream(frame, stream));
        }
        const double seconds = watch.seconds();
        row.hash = frame_seq_hash(outcomes);
        if (r == 0 || seconds < row.seconds) {
          row.seconds = seconds;
          row.iterations = row.tiles_reused = row.tiles_encoded = 0;
          row.replayed = 0;
          for (const auto& outcome : outcomes) {
            row.iterations += outcome.stats.kmeans_iterations;
            row.tiles_reused += outcome.stats.tiles_reused;
            row.tiles_encoded += outcome.stats.tiles_encoded;
            row.replayed += outcome.stats.replayed ? 1 : 0;
          }
        }
        if (metrics::label_map_hash(outcomes[0].result.labels) !=
            cold_hashes[0]) {
          gates_pass = false;
          std::fprintf(stderr,
                       "FAIL: %s frame 0 diverges from the cold path\n",
                       row.name.c_str());
        }
      }
      if (have_stream_hash && row.hash != stream_hash_all_rows) {
        gates_pass = false;
        std::fprintf(stderr,
                     "FAIL: %s stream hash %016llx differs across pool "
                     "sizes (expected %016llx)\n",
                     row.name.c_str(),
                     static_cast<unsigned long long>(row.hash),
                     static_cast<unsigned long long>(stream_hash_all_rows));
      }
      stream_hash_all_rows = row.hash;
      have_stream_hash = true;
      rows.push_back(row);
    }

    {  // Server-stream row: the same frames through a stream handle.
      StreamRow row;
      row.name = "serve-str@" + std::to_string(threads);
      for (std::size_t r = 0; r < repeats; ++r) {
        serve::ServerOptions options;
        options.queue_capacity = 8;
        options.backpressure = serve::BackpressurePolicy::kBlock;
        options.pool = &pool;
        serve::SegHdcServer server(config, options);
        auto handle = server.open_stream();
        const util::Stopwatch watch;
        std::vector<std::future<core::StreamFrameResult>> futures;
        futures.reserve(frames.size());
        for (const auto& frame : frames) {
          futures.push_back(server.submit(handle, frame));
        }
        std::vector<core::StreamFrameResult> outcomes;
        outcomes.reserve(frames.size());
        for (auto& future : futures) {
          outcomes.push_back(future.get());
        }
        const double seconds = watch.seconds();
        row.hash = frame_seq_hash(outcomes);
        if (r == 0 || seconds < row.seconds) {
          row.seconds = seconds;
          const auto stats = server.stats();
          row.iterations =
              static_cast<std::size_t>(stats.stream.kmeans_iterations);
          row.tiles_reused =
              static_cast<std::size_t>(stats.stream.tiles_reused);
          row.tiles_encoded =
              static_cast<std::size_t>(stats.stream.tiles_encoded);
          row.replayed =
              static_cast<std::size_t>(stats.stream.replayed_frames);
        }
      }
      if (row.hash != stream_hash_all_rows) {
        gates_pass = false;
        std::fprintf(stderr,
                     "FAIL: %s server-stream hash %016llx != session "
                     "stream hash %016llx\n",
                     row.name.c_str(),
                     static_cast<unsigned long long>(row.hash),
                     static_cast<unsigned long long>(stream_hash_all_rows));
      }
      rows.push_back(row);
    }

    // Cold re-run gate: streaming must leave the cold path untouched.
    for (std::size_t f = 0; f < frames.size(); ++f) {
      if (metrics::label_map_hash(session.segment(frames[f]).labels) !=
          cold_hashes[f]) {
        gates_pass = false;
        std::fprintf(stderr,
                     "FAIL: cold re-run of frame %zu after streaming "
                     "diverges from the cold reference (@%zu threads)\n",
                     f, threads);
        break;
      }
    }
  }

  if (csv) {
    std::printf(
        "mode,seconds,frames_per_sec,kmeans_iters,tiles_reused,"
        "tiles_encoded,replayed,hash\n");
  } else {
    std::printf("%-14s %9s %11s %11s %13s %8s  %s\n", "mode", "seconds",
                "frames/sec", "km iters", "tiles r/e", "replays",
                "label hash");
  }
  for (const auto& row : rows) {
    const double fps = static_cast<double>(frames.size()) / row.seconds;
    if (csv) {
      std::printf("%s,%.4f,%.2f,%zu,%zu,%zu,%zu,%016llx\n", row.name.c_str(),
                  row.seconds, fps, row.iterations, row.tiles_reused,
                  row.tiles_encoded, row.replayed,
                  static_cast<unsigned long long>(row.hash));
    } else {
      std::printf("%-14s %9.4f %11.2f %11zu %6zu/%-6zu %8zu  %016llx\n",
                  row.name.c_str(), row.seconds, fps, row.iterations,
                  row.tiles_reused, row.tiles_encoded, row.replayed,
                  static_cast<unsigned long long>(row.hash));
    }
  }
  if (!gates_pass) {
    std::fprintf(stderr,
                 "FAIL: at least one stream determinism gate tripped\n");
    return 1;
  }
  std::printf("stream hashes identical across pool sizes and across the "
              "session/server paths; cold path unaffected by streaming\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const auto image_count =
      static_cast<std::size_t>(cli.get_int("images", 24));
  const auto repeats = static_cast<std::size_t>(cli.get_int("repeats", 3));
  const bool csv = cli.get_flag("csv");
  const auto workers = static_cast<std::size_t>(cli.get_int("workers", 2));

  core::SegHdcConfig config;
  config.dim = static_cast<std::size_t>(cli.get_int("dim", 1000));
  config.beta = static_cast<std::size_t>(cli.get_int("beta", 8));
  config.clusters = static_cast<std::size_t>(cli.get_int("clusters", 2));
  config.iterations =
      static_cast<std::size_t>(cli.get_int("iterations", 6));
  config.color_quantization_shift =
      static_cast<std::size_t>(cli.get_int("quantize", 2));
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));

  const auto thread_list =
      util::Cli::parse_size_list(cli.get("threads", "1,2,4"),
                                 /*allow_zero=*/false);
  const auto queue_list =
      util::Cli::parse_size_list(cli.get("queue", "0,4"),
                                 /*allow_zero=*/true);
  if (thread_list.empty() || queue_list.empty()) {
    // An empty sweep would "pass" after checking nothing — reject it so
    // a typo'd flag can't turn the hash gate into a no-op.
    std::fprintf(stderr,
                 "--threads and --queue must each name at least one value\n");
    return 1;
  }

  const std::string backend_flag = cli.get("backend", "");
  if (!backend_flag.empty()) {
    hdc::simd::force_backend(backend_flag);
  }

  // --trace <path>: capture every span of the whole bench run (reference
  // loops included) and export Chrome-trace JSON on the way out — the
  // artifact tools/trace_lint.py validates in CI.
  const std::string trace_path = cli.get("trace", "");
  std::optional<obs::TraceSession> trace;
  if (!trace_path.empty()) {
    trace.emplace();
  }
  const auto finish = [&](int code) {
    if (trace.has_value()) {
      trace->write_json(trace_path);
      std::printf("trace json -> %s (%zu events, %llu dropped)\n",
                  trace_path.c_str(), trace->events().size(),
                  static_cast<unsigned long long>(
                      obs::Tracer::instance().dropped()));
    }
    return code;
  };

  if (cli.get_flag("stream")) {
    std::printf("bench_serving --stream: %zu frames %llux%llu, dim=%zu, "
                "iterations=%zu, best of %zu repeats\n",
                image_count,
                static_cast<unsigned long long>(cli.get_int("width", 128)),
                static_cast<unsigned long long>(cli.get_int("height", 96)),
                config.dim, config.iterations, repeats);
    std::printf("kernel backend: %s | cpu: %s\n",
                hdc::simd::active_backend().name,
                hdc::simd::cpu_feature_string().c_str());
    return finish(run_stream_bench(cli, config, thread_list, image_count,
                                   repeats, csv));
  }

  data::Dsb2018Config dataset_config;
  dataset_config.width = static_cast<std::size_t>(cli.get_int("width", 128));
  dataset_config.height =
      static_cast<std::size_t>(cli.get_int("height", 96));
  const data::Dsb2018Generator dataset(dataset_config);
  std::vector<img::ImageU8> images;
  images.reserve(image_count);
  for (std::size_t i = 0; i < image_count; ++i) {
    images.push_back(dataset.generate(i).image);
  }

  std::printf("bench_serving: %zu images %zux%zux3, dim=%zu, "
              "iterations=%zu, %zu workers, best of %zu repeats\n",
              images.size(), dataset_config.width, dataset_config.height,
              config.dim, config.iterations, workers, repeats);
  std::printf("kernel backend: %s | cpu: %s\n",
              hdc::simd::active_backend().name,
              hdc::simd::cpu_feature_string().c_str());

  const auto tenant_count =
      static_cast<std::size_t>(cli.get_int("tenants", 0));
  if (tenant_count > 0) {
    return finish(run_fleet_bench(cli, config, images, thread_list,
                                  queue_list, tenant_count, workers, repeats,
                                  csv));
  }

  // Reference: a sequential session loop pins the expected hash.
  std::uint64_t expected_hash = 0;
  {
    util::ThreadPool one(1);
    const core::SegHdcSession session(config,
                                      core::SegHdcSession::Options{&one});
    std::vector<core::SegmentationResult> results;
    results.reserve(images.size());
    for (const auto& image : images) {
      results.push_back(session.segment(image));
    }
    expected_hash = batch_hash(results);
  }

  std::vector<Row> rows;
  obs::LatencyPercentiles last_latency;
  for (const std::size_t threads : thread_list) {
    {
      // Barrier path: segment_many blocks the caller for the batch.
      util::ThreadPool pool(threads);
      const core::SegHdcSession session(config,
                                        core::SegHdcSession::Options{&pool});
      Row row;
      row.name = "many@" + std::to_string(threads);
      for (std::size_t r = 0; r < repeats; ++r) {
        const util::Stopwatch watch;
        const auto results = session.segment_many(images);
        const double seconds = watch.seconds();
        row.hash = batch_hash(results);
        row.seconds = r == 0 ? seconds : std::min(row.seconds, seconds);
      }
      rows.push_back(row);
    }
    for (const std::size_t capacity : queue_list) {
      // Pipelined path: all requests in flight, futures collected in
      // submit order. A fresh server per repeat so stats cover exactly
      // one pass; best-of wall time, latency from the fastest pass.
      Row row;
      row.name = "serve@" + std::to_string(threads) + "/q" +
                 (capacity == 0 ? std::string("inf")
                                : std::to_string(capacity));
      row.has_latency = true;
      util::ThreadPool pool(threads);
      for (std::size_t r = 0; r < repeats; ++r) {
        serve::ServerOptions options;
        options.queue_capacity = capacity;
        options.backpressure = serve::BackpressurePolicy::kBlock;
        options.workers = workers;
        options.pool = &pool;
        serve::SegHdcServer server(config, options);
        const util::Stopwatch watch;
        std::vector<std::future<core::SegmentationResult>> futures;
        futures.reserve(images.size());
        for (const auto& image : images) {
          futures.push_back(server.submit(image));
        }
        std::vector<core::SegmentationResult> results;
        results.reserve(images.size());
        for (auto& future : futures) {
          results.push_back(future.get());
        }
        const double seconds = watch.seconds();
        row.hash = batch_hash(results);
        if (r == 0 || seconds < row.seconds) {
          row.seconds = seconds;
          const auto stats = server.stats();
          row.p50_ms = stats.latency.p50_seconds * 1e3;
          row.p95_ms = stats.latency.p95_seconds * 1e3;
          row.p99_ms = stats.latency.p99_seconds * 1e3;
          row.latency = stats.latency;
          last_latency = stats.latency;
        }
      }
      rows.push_back(row);
    }
  }

  bool hashes_match = true;
  if (csv) {
    std::printf(
        "mode,seconds,images_per_sec,p50_ms,p95_ms,p99_ms,hash\n");
  } else {
    std::printf("%-16s %10s %12s %9s %9s %9s  %s\n", "mode", "seconds",
                "images/sec", "p50 ms", "p95 ms", "p99 ms", "label hash");
  }
  for (const auto& row : rows) {
    const double ips = static_cast<double>(images.size()) / row.seconds;
    if (csv) {
      std::printf("%s,%.4f,%.2f,%.2f,%.2f,%.2f,%016llx\n", row.name.c_str(),
                  row.seconds, ips, row.p50_ms, row.p95_ms, row.p99_ms,
                  static_cast<unsigned long long>(row.hash));
    } else if (row.has_latency) {
      std::printf("%-16s %10.4f %12.2f %9.2f %9.2f %9.2f  %016llx%s\n",
                  row.name.c_str(), row.seconds, ips, row.p50_ms,
                  row.p95_ms, row.p99_ms,
                  static_cast<unsigned long long>(row.hash),
                  row.hash == expected_hash ? "" : "  MISMATCH");
    } else {
      std::printf("%-16s %10.4f %12.2f %9s %9s %9s  %016llx%s\n",
                  row.name.c_str(), row.seconds, ips, "-", "-", "-",
                  static_cast<unsigned long long>(row.hash),
                  row.hash == expected_hash ? "" : "  MISMATCH");
    }
    hashes_match = hashes_match && row.hash == expected_hash;
  }

  if (!hashes_match) {
    std::fprintf(stderr,
                 "FAIL: label hashes diverge between the server and "
                 "segment_many paths\n");
    return finish(1);
  }
  // Honest window note: percentiles cover the sliding window, the mean
  // covers the lifetime count — say which is which.
  std::printf("latency percentiles over last %llu of %llu requests "
              "(final row's fastest pass)\n",
              static_cast<unsigned long long>(last_latency.window_count),
              static_cast<unsigned long long>(last_latency.count));
  std::printf("all label hashes identical across server and barrier "
              "paths at every queue capacity and pool size\n");

  // Machine-readable headline: the fastest server row, with
  // that row's own registry-backed latency percentiles.
  const Row* best = nullptr;
  double best_ips = 0.0;
  for (const auto& row : rows) {
    if (!row.has_latency) {
      continue;
    }
    const double ips = static_cast<double>(images.size()) / row.seconds;
    if (best == nullptr || ips > best_ips) {
      best = &row;
      best_ips = ips;
    }
  }
  if (best != nullptr) {
    char hash_hex[32];
    std::snprintf(hash_hex, sizeof hash_hex, "\"%016llx\"",
                  static_cast<unsigned long long>(expected_hash));
    bench::write_bench_json(
        "BENCH_serving.json", "bench_serving", best_ips, best->latency,
        {{"mode", "\"" + best->name + "\""},
         {"images", std::to_string(images.size())},
         {"repeats", std::to_string(repeats)},
         {"label_hash", hash_hex}});
  }
  return finish(0);
} catch (const std::exception& error) {
  std::fprintf(stderr, "bench_serving failed: %s\n", error.what());
  return 1;
}
