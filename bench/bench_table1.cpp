// Reproduces paper TABLE I: mean IoU on the three nuclei suites for the
// CNN baseline (BL, Kim et al. 2020), the two encoding ablations
// (RPos = random position HVs, RColor = random color HVs) and SegHDC.
//
// Every SegHDC number flows through the shared eval pipeline
// (eval::evaluate_seghdc) on the configured execution path — by default
// the serving path, so the accuracy table is itself a serving workload
// and EVAL_table1.json carries the serving latency percentiles next to
// the mIoU columns. The baseline rides the generic evaluate_suite loop
// (it has no serving form).
//
// Paper reference values:
//   dataset   BL      RPos    RColor  SegHDC  improvement
//   BBBC005   0.7490  0.0361  0.1016  0.9414  25.7%
//   DSB2018   0.6281  0.1172  0.2352  0.8038  28.0%
//   MoNuSeg   0.5088  0.1959  0.3832  0.5509  8.27%
//
//   ./bench_table1 [--images 24] [--paper] [--skip-baseline]
//                  [--datasets BBBC005,DSB2018,MoNuSeg]
//                  [--path server|batch|one_shot] [--batch 64]
//                  [--out out] [--json EVAL_table1.json]
#include <cstdio>
#include <exception>
#include <vector>

#include "bench_common.hpp"
#include "bench_report.hpp"
#include "src/util/cli.hpp"
#include "src/util/csv.hpp"

namespace {

using namespace seghdc;

struct Row {
  const char* dataset;
  double bl = 0.0, rpos = 0.0, rcolor = 0.0, seghdc = 0.0;
  /// Relative improvement over the baseline in percent — the paper's
  /// "Improvement" column (e.g. 0.8038 vs 0.6281 = 28.0%).
  double improvement_percent() const {
    return bl > 0.0 ? (seghdc / bl - 1.0) * 100.0 : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  cli.reject_unknown({"batch", "datasets", "images", "json", "out", "paper",
                      "path", "skip-baseline"});
  bench::Scale scale = cli.get_flag("paper") ? bench::Scale::paper_scale()
                                             : bench::Scale::host();
  scale.images = static_cast<std::size_t>(
      cli.get_int("images", static_cast<std::int64_t>(scale.images)));
  const bool skip_baseline = cli.get_flag("skip-baseline");
  const auto out_dir = cli.get("out", "out");
  const auto json_path = cli.get("json", out_dir + "/EVAL_table1.json");
  const auto options = bench::eval_options_from_cli(cli);
  util::ensure_directory(out_dir);

  const auto selected = cli.get("datasets", "BBBC005,DSB2018,MoNuSeg");

  util::CsvWriter csv(out_dir + "/table1.csv",
                      {"dataset", "BL", "RPos", "RColor", "SegHDC",
                       "improvement_percent"});

  std::printf("TABLE I: IoU score on 3 datasets (%zu images each%s, "
              "%s path)\n",
              scale.images, scale.paper ? ", paper scale" : "",
              eval::eval_path_name(options.path));
  std::printf("%-10s %8s %8s %8s %8s %14s\n", "Dataset", "BL", "RPos",
              "RColor", "SegHDC", "Improvement");

  std::vector<Row> rows;
  std::vector<eval::SuiteResult> suites;
  for (const auto id : {bench::DatasetId::kBbbc005,
                        bench::DatasetId::kDsb2018,
                        bench::DatasetId::kMonuseg}) {
    if (selected.find(bench::dataset_name(id)) == std::string::npos) {
      continue;
    }
    const auto dataset = bench::make_dataset(id, scale);
    const auto seghdc_config = bench::seghdc_config_for(*dataset, scale);
    const auto kim_config = bench::kim_config_for(scale);

    // The three HDC variants through the shared (serving-capable) eval
    // pipeline; the CNN baseline through the generic functor loop.
    auto seghdc_suite =
        eval::evaluate_seghdc(*dataset, scale.images, seghdc_config, options);
    auto rpos_suite = eval::evaluate_seghdc(
        *dataset, scale.images, seghdc_config.rpos_variant(), options);
    rpos_suite.method = "rpos";
    auto rcolor_suite = eval::evaluate_seghdc(
        *dataset, scale.images, seghdc_config.rcolor_variant(), options);
    rcolor_suite.method = "rcolor";

    Row row;
    row.dataset = bench::dataset_name(id);
    row.rpos = rpos_suite.mean_iou();
    row.rcolor = rcolor_suite.mean_iou();
    row.seghdc = seghdc_suite.mean_iou();
    if (!skip_baseline) {
      auto bl_suite = eval::evaluate_suite(
          *dataset, scale.images, "kim",
          eval::kim_method(kim_config, scale.kim_train_downscale));
      row.bl = bl_suite.mean_iou();
      suites.push_back(std::move(bl_suite));
    }
    suites.push_back(std::move(seghdc_suite));
    suites.push_back(std::move(rpos_suite));
    suites.push_back(std::move(rcolor_suite));
    rows.push_back(row);

    std::printf("%-10s %8.4f %8.4f %8.4f %8.4f %12.1f%%\n", row.dataset,
                row.bl, row.rpos, row.rcolor, row.seghdc,
                row.improvement_percent());
    csv.row({row.dataset, util::CsvWriter::field(row.bl),
             util::CsvWriter::field(row.rpos),
             util::CsvWriter::field(row.rcolor),
             util::CsvWriter::field(row.seghdc),
             util::CsvWriter::field(row.improvement_percent())});
  }

  bench::write_eval_json(
      json_path, "bench_table1", suites,
      {{"images_per_dataset", std::to_string(scale.images)},
       {"paper_scale", scale.paper ? "true" : "false"}});

  std::printf("\npaper reference: BBBC005 0.9414 vs 0.7490 | DSB2018 "
              "0.8038 vs 0.6281 | MoNuSeg 0.5509 vs 0.5088\n");
  std::printf("expected shape: SegHDC > BL >> RColor > RPos on every "
              "dataset\n");
  std::printf("csv: %s/table1.csv\n", out_dir.c_str());
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "bench_table1 failed: %s\n", error.what());
  return 1;
}
