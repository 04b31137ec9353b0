// Reproduces paper Fig. 7(a): IoU and Raspberry-Pi latency of SegHDC on
// the sample DSB2018 image as the clustering iteration count sweeps
// 1..10, at d = 10000 (the unified-variable setting of the paper).
//
// Paper shape: latency grows ~linearly from ~20 s (1 iter) past 300 s
// (10 iters); IoU jumps after iteration 1 and saturates around
// iteration 4.
//
//   ./bench_fig7a [--dim 10000] [--max-iters 10]
//                 [--path server|batch|one_shot] [--out out]
//
// Runs through the shared eval pipeline (default path: server).
//
// The columns answer different questions past the fixed point. K-Means
// stops at its first exact fixed point inside the budget, so once the
// sweep passes the iteration where the labels stop changing, IoU and
// host_seconds flatten: a larger budget runs no more iterations.
// pi_seconds stays the paper's fixed-budget model (every iteration of
// the budget runs on the Pi), so it keeps growing with the sweep.
#include <cstdio>
#include <exception>

#include "bench_common.hpp"
#include "src/device/latency_model.hpp"
#include "src/util/cli.hpp"
#include "src/util/csv.hpp"

int main(int argc, char** argv) try {
  using namespace seghdc;
  const util::Cli cli(argc, argv);
  const auto dim = static_cast<std::size_t>(cli.get_int("dim", 10000));
  const auto max_iters =
      static_cast<std::size_t>(cli.get_int("max-iters", 10));
  const auto out_dir = cli.get("out", "out");
  const auto options = bench::eval_options_from_cli(cli);
  util::ensure_directory(out_dir);

  const auto pi = device::DeviceSpec::raspberry_pi_4b();
  const bench::Scale scale = bench::Scale::host();
  const auto dataset = bench::make_dataset(bench::DatasetId::kDsb2018, scale);
  const auto sample = dataset->generate(0);

  util::CsvWriter csv(out_dir + "/fig7a.csv",
                      {"iterations", "iou", "host_seconds", "pi_seconds"});

  std::printf("FIG 7(a): IoU and Pi latency vs clustering iterations "
              "(d = %zu)\n", dim);
  std::printf("%10s %10s %12s %12s\n", "iters", "IoU", "host (s)",
              "Pi (s)");

  for (std::size_t iters = 1; iters <= max_iters; ++iters) {
    auto config = bench::seghdc_config_for(*dataset, scale);
    config.dim = dim;
    config.iterations = iters;
    const auto run = bench::run_seghdc(config, *dataset, sample, options);
    const double pi_seconds = device::project_seghdc_latency(
        pi, device::SegHdcWorkload{
                .pixels = sample.image.pixel_count(),
                .dim = dim,
                .clusters = config.clusters,
                .iterations = iters,
            });
    std::printf("%10zu %10.4f %12.3f %12.1f\n", iters, run.iou,
                run.seconds, pi_seconds);
    csv.row({std::to_string(iters), util::CsvWriter::field(run.iou),
             util::CsvWriter::field(run.seconds),
             util::CsvWriter::field(pi_seconds)});
  }
  std::printf("\npaper shape: ~20 s at 1 iter -> 300+ s at 10 iters; "
              "IoU saturates by iteration ~4\n");
  std::printf("csv: %s/fig7a.csv\n", out_dir.c_str());
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "bench_fig7a failed: %s\n", error.what());
  return 1;
}
