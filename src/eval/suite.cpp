#include "src/eval/suite.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <utility>

#include "src/baseline/otsu_segmenter.hpp"
#include "src/core/session.hpp"
#include "src/imaging/filters.hpp"
#include "src/metrics/segmentation_metrics.hpp"
#include "src/util/contracts.hpp"
#include "src/util/csv.hpp"
#include "src/util/stopwatch.hpp"

namespace seghdc::eval {

double SuiteResult::mean_iou() const {
  double sum = 0.0;
  for (const auto& record : records) {
    sum += record.iou;
  }
  return records.empty() ? 0.0 : sum / static_cast<double>(records.size());
}

double SuiteResult::min_iou() const {
  double value = records.empty() ? 0.0 : records.front().iou;
  for (const auto& record : records) {
    value = std::min(value, record.iou);
  }
  return value;
}

double SuiteResult::max_iou() const {
  double value = 0.0;
  for (const auto& record : records) {
    value = std::max(value, record.iou);
  }
  return value;
}

double SuiteResult::stddev_iou() const {
  if (records.size() < 2) {
    return 0.0;
  }
  const double mean = mean_iou();
  double sum_sq = 0.0;
  for (const auto& record : records) {
    sum_sq += (record.iou - mean) * (record.iou - mean);
  }
  return std::sqrt(sum_sq / static_cast<double>(records.size() - 1));
}

double SuiteResult::mean_seconds() const {
  return records.empty()
             ? 0.0
             : total_seconds() / static_cast<double>(records.size());
}

double SuiteResult::total_seconds() const {
  double sum = 0.0;
  for (const auto& record : records) {
    sum += record.seconds;
  }
  return sum;
}

core::OpCounts SuiteResult::total_ops() const {
  core::OpCounts total;
  for (const auto& record : records) {
    total += record.ops;
  }
  return total;
}

SuiteResult evaluate_suite(const data::DatasetGenerator& dataset,
                           std::size_t images,
                           const std::string& method_name,
                           const Method& method) {
  util::expects(images > 0, "evaluate_suite needs at least one image");
  util::expects(static_cast<bool>(method),
                "evaluate_suite needs a method");
  SuiteResult result;
  result.dataset = dataset.profile().name;
  result.method = method_name;
  result.records.reserve(images);
  const util::Stopwatch wall;
  obs::LatencyRecorder latency;
  for (std::size_t i = 0; i < images; ++i) {
    const auto sample = dataset.generate(i);
    const util::Stopwatch watch;
    const auto labels = method(sample);
    const double seconds = watch.seconds();
    util::expects(labels.width() == sample.mask.width() &&
                      labels.height() == sample.mask.height(),
                  "method returned a label map of the wrong size");
    const auto matched =
        metrics::best_foreground_iou_any(labels, sample.mask);
    latency.record(seconds);
    ImageRecord record;
    record.id = sample.id;
    record.iou = matched.iou;
    record.seconds = seconds;
    record.instances = sample.instance_count;
    result.records.push_back(std::move(record));
  }
  result.wall_seconds = wall.seconds();
  result.latency = latency.snapshot();
  return result;
}

EvalPath parse_eval_path(const std::string& name) {
  if (name == "one_shot") {
    return EvalPath::kOneShot;
  }
  if (name == "batch") {
    return EvalPath::kBatch;
  }
  if (name == "server") {
    return EvalPath::kServer;
  }
  throw std::invalid_argument("parse_eval_path: unknown eval path '" + name +
                              "' (use one_shot, batch or server)");
}

const char* eval_path_name(EvalPath path) {
  switch (path) {
    case EvalPath::kOneShot:
      return "one_shot";
    case EvalPath::kBatch:
      return "batch";
    case EvalPath::kServer:
      return "server";
  }
  throw std::invalid_argument("eval_path_name: invalid EvalPath");
}

namespace {

/// True when two configs produce the same output content (performance
/// knobs — tile_rows, kernel_backend, trace — excluded by
/// the library's determinism guarantees).
bool same_semantics(const core::SegHdcConfig& a,
                    const core::SegHdcConfig& b) {
  return a.dim == b.dim && a.alpha == b.alpha && a.beta == b.beta &&
         a.gamma == b.gamma && a.clusters == b.clusters &&
         a.iterations == b.iterations && a.seed == b.seed &&
         a.position_encoding == b.position_encoding &&
         a.color_encoding == b.color_encoding &&
         a.flip_unit_basis == b.flip_unit_basis &&
         a.cluster_distance == b.cluster_distance &&
         a.color_quantization_shift == b.color_quantization_shift &&
         a.bit_error_rate == b.bit_error_rate &&
         a.compute_margins == b.compute_margins;
}

}  // namespace

SuiteResult evaluate_seghdc(const data::DatasetGenerator& dataset,
                            std::size_t images,
                            const core::SegHdcConfig& config,
                            const EvalOptions& options) {
  util::expects(images > 0, "evaluate_seghdc needs at least one image");
  if (options.server != nullptr &&
      !same_semantics(options.server->config(), config)) {
    throw std::invalid_argument(
        "evaluate_seghdc: external server config does not match the eval "
        "config (labels would not be comparable)");
  }

  SuiteResult result;
  result.dataset = dataset.profile().name;
  result.method = "seghdc";
  result.path = eval_path_name(options.path);
  result.records.reserve(images);
  result.labels_hash = 14695981039346656037ULL;  // FNV-1a offset basis

  const util::Stopwatch wall;
  obs::LatencyRecorder local_latency(options.latency_window);

  // Session for the synchronous paths; locally owned server (built only
  // when needed) for the serving path.
  core::SegHdcSession session(config,
                              core::SegHdcSession::Options{options.pool});
  std::unique_ptr<serve::SegHdcServer> owned_server;
  serve::SegHdcServer* server = options.server;
  if (options.path == EvalPath::kServer && server == nullptr) {
    serve::ServerOptions server_options = options.server_options;
    if (server_options.pool == nullptr) {
      server_options.pool = options.pool;
    }
    owned_server =
        std::make_unique<serve::SegHdcServer>(config, server_options);
    server = owned_server.get();
  }

  // Scores result `i` and appends its record. Called strictly in sample
  // order, which is what makes labels_hash a chained fingerprint.
  const auto score = [&](std::size_t index, const data::Sample& sample,
                         core::SegmentationResult&& r) {
    util::expects(r.labels.width() == sample.mask.width() &&
                      r.labels.height() == sample.mask.height(),
                  "segmentation returned a label map of the wrong size");
    const auto matched =
        metrics::best_foreground_iou_any(r.labels, sample.mask);
    result.labels_hash =
        metrics::label_map_hash(r.labels, result.labels_hash);
    const double seconds = r.timings.total_seconds;
    if (options.path != EvalPath::kServer) {
      local_latency.record(seconds);
    }
    result.records.push_back(ImageRecord{
        .id = sample.id,
        .iou = matched.iou,
        .seconds = seconds,
        .instances = sample.instance_count,
        .label_hash = metrics::label_map_hash(r.labels),
        .ops = r.ops,
        .unique_points = r.unique_points,
        .iterations_run = r.iterations_run,
    });
    if (options.sink) {
      options.sink(index, sample, r);
    }
  };

  // Wave loop: at most `wave` samples (plus their results) are alive at
  // once, so thousand-image sweeps run in bounded memory on every path.
  const std::size_t wave =
      options.batch_size == 0 ? images : options.batch_size;
  for (std::size_t start = 0; start < images; start += wave) {
    const std::size_t end = std::min(images, start + wave);
    std::vector<data::Sample> samples;
    samples.reserve(end - start);
    for (std::size_t i = start; i < end; ++i) {
      samples.push_back(dataset.generate(i));
    }

    switch (options.path) {
      case EvalPath::kOneShot: {
        for (std::size_t i = 0; i < samples.size(); ++i) {
          score(start + i, samples[i], session.segment(samples[i].image));
        }
        break;
      }
      case EvalPath::kBatch: {
        std::vector<img::ImageU8> wave_images;
        wave_images.reserve(samples.size());
        for (const auto& sample : samples) {
          wave_images.push_back(sample.image);
        }
        auto results = session.segment_many(wave_images);
        for (std::size_t i = 0; i < samples.size(); ++i) {
          score(start + i, samples[i], std::move(results[i]));
        }
        break;
      }
      case EvalPath::kServer: {
        std::vector<std::future<core::SegmentationResult>> futures;
        futures.reserve(samples.size());
        for (const auto& sample : samples) {
          futures.push_back(server->submit(sample.image));
        }
        for (std::size_t i = 0; i < samples.size(); ++i) {
          score(start + i, samples[i], futures[i].get());
        }
        break;
      }
    }
  }

  if (options.path == EvalPath::kServer) {
    result.latency = server->stats().latency;
  } else {
    result.latency = local_latency.snapshot();
  }
  result.wall_seconds = wall.seconds();
  return result;
}

void write_suite_csv(const SuiteResult& result, const std::string& path) {
  util::CsvWriter csv(path,
                      {"dataset", "method", "image", "iou", "seconds",
                       "instances"});
  for (const auto& record : result.records) {
    csv.row({result.dataset, result.method, record.id,
             util::CsvWriter::field(record.iou),
             util::CsvWriter::field(record.seconds),
             std::to_string(record.instances)});
  }
  csv.row({result.dataset, result.method, "mean",
           util::CsvWriter::field(result.mean_iou()),
           util::CsvWriter::field(result.mean_seconds()), ""});
}

Method seghdc_method(const core::SegHdcConfig& config) {
  return [config](const data::Sample& sample) {
    const core::SegHdc seghdc(config);
    return seghdc.segment(sample.image).labels;
  };
}

Method kim_method(const baseline::KimConfig& config,
                  std::size_t train_downscale) {
  util::expects(train_downscale >= 1,
                "kim_method train_downscale must be >= 1");
  return [config, train_downscale](const data::Sample& sample) {
    img::ImageU8 train_image = sample.image;
    if (train_downscale > 1) {
      train_image = img::resize_bilinear(
          sample.image, sample.image.width() / train_downscale,
          sample.image.height() / train_downscale);
    }
    const baseline::KimSegmenter segmenter(config);
    auto labels = segmenter.segment(train_image).labels;
    if (train_downscale > 1) {
      labels = img::resize_nearest(labels, sample.image.width(),
                                   sample.image.height());
    }
    return labels;
  };
}

Method otsu_method(bool equalize_first) {
  return [equalize_first](const data::Sample& sample) {
    const baseline::OtsuSegmenter otsu(equalize_first);
    return otsu.segment(sample.image).labels;
  };
}

}  // namespace seghdc::eval
