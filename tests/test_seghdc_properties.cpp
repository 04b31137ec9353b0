// Parameterized property sweeps over the SegHDC pipeline: the
// segmentation invariants must hold across dimensions, block sizes,
// cluster distances, and channel counts — not just at the paper's
// default configuration.
#include <gtest/gtest.h>

#include "src/core/seghdc.hpp"
#include "src/metrics/segmentation_metrics.hpp"

namespace {

using namespace seghdc;
using namespace seghdc::core;

struct Card {
  img::ImageU8 image;
  img::ImageU8 mask;
};

Card make_card(std::size_t size, std::size_t channels) {
  Card card;
  card.image = img::ImageU8(size, size, channels, 24);
  card.mask = img::ImageU8(size, size, 1, 0);
  for (std::size_t y = size / 4; y < 3 * size / 4; ++y) {
    for (std::size_t x = size / 4; x < 3 * size / 4; ++x) {
      for (std::size_t c = 0; c < channels; ++c) {
        card.image(x, y, c) = 216;
      }
      card.mask(x, y) = 255;
    }
  }
  return card;
}

// --- Sweep 1: dimension x block size, grayscale and RGB. ---
class DimBetaSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(DimBetaSweep, TwoToneCardSegmentsPerfectly) {
  const auto [dim, beta, channels] = GetParam();
  const auto card = make_card(64, channels);
  SegHdcConfig config;
  config.dim = dim;
  config.beta = beta;
  config.iterations = 6;
  const auto result = SegHdc(config).segment(card.image);
  const auto matched =
      metrics::best_foreground_iou(result.labels, 2, card.mask);
  EXPECT_GT(matched.iou, 0.97)
      << "dim=" << dim << " beta=" << beta << " channels=" << channels;
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, DimBetaSweep,
    ::testing::Combine(::testing::Values(512, 1024, 4096),
                       ::testing::Values(2, 8, 16),
                       ::testing::Values(1, 3)));

// --- Sweep 2: every position-encoding variant that preserves locality
// must solve the easy card; the ablation variants are allowed to fail
// but must not crash. ---
class EncodingSweep
    : public ::testing::TestWithParam<PositionEncoding> {};

TEST_P(EncodingSweep, RunsAndProducesValidLabels) {
  const auto card = make_card(48, 1);
  SegHdcConfig config;
  config.dim = 1024;
  config.beta = 8;
  config.iterations = 5;
  config.position_encoding = GetParam();
  const auto result = SegHdc(config).segment(card.image);
  for (const auto label : result.labels.pixels()) {
    EXPECT_LT(label, 2u);
  }
  // Quality is only guaranteed for the decayed variants: kManhattan is
  // by definition the alpha = 1 encoding (paper Fig. 3(b)), where
  // position distance rivals color distance and clustering can split
  // spatially — the motivation for the decay ratio in Fig. 3(c).
  if (GetParam() == PositionEncoding::kDecayManhattan ||
      GetParam() == PositionEncoding::kBlockDecayManhattan) {
    const auto matched =
        metrics::best_foreground_iou(result.labels, 2, card.mask);
    EXPECT_GT(matched.iou, 0.95);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, EncodingSweep,
    ::testing::Values(PositionEncoding::kUniform,
                      PositionEncoding::kManhattan,
                      PositionEncoding::kDecayManhattan,
                      PositionEncoding::kBlockDecayManhattan,
                      PositionEncoding::kRandom));

// --- Sweep 3: both clustering distances solve the card. ---
class DistanceSweep : public ::testing::TestWithParam<ClusterDistance> {};

TEST_P(DistanceSweep, TwoToneCardSegments) {
  const auto card = make_card(48, 1);
  SegHdcConfig config;
  config.dim = 1024;
  config.beta = 8;
  config.iterations = 6;
  config.cluster_distance = GetParam();
  const auto result = SegHdc(config).segment(card.image);
  const auto matched =
      metrics::best_foreground_iou(result.labels, 2, card.mask);
  EXPECT_GT(matched.iou, 0.97);
}

INSTANTIATE_TEST_SUITE_P(Distances, DistanceSweep,
                         ::testing::Values(ClusterDistance::kCosine,
                                           ClusterDistance::kHamming));

// --- Sweep 4: quantisation shifts preserve quality on clean images. ---
class QuantizationSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuantizationSweep, QualityHolds) {
  const auto card = make_card(48, 3);
  SegHdcConfig config;
  config.dim = 1024;
  config.beta = 8;
  config.iterations = 5;
  config.color_quantization_shift = GetParam();
  const auto result = SegHdc(config).segment(card.image);
  const auto matched =
      metrics::best_foreground_iou(result.labels, 2, card.mask);
  EXPECT_GT(matched.iou, 0.97) << "shift " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Shifts, QuantizationSweep,
                         ::testing::Values(0, 1, 2, 3, 4));

// --- Convergence: every run stops at its first exact fixed point, so a
// converged run at budget t equals the same run at budget t + 5. ---
void expect_same_run(const SegmentationResult& a, const SegmentationResult& b) {
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.iterations_run, b.iterations_run);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.cluster_pixel_counts, b.cluster_pixel_counts);
  EXPECT_EQ(a.ops.distance_evals, b.ops.distance_evals);
  EXPECT_EQ(a.ops.words_scanned, b.ops.words_scanned);
  EXPECT_EQ(a.ops.centroid_update_adds, b.ops.centroid_update_adds);
}

TEST(Convergence, EarlyStopMatchesFullBudget) {
  const auto card = make_card(48, 1);
  SegHdcConfig config;
  config.dim = 1024;
  config.beta = 8;
  config.iterations = 10;
  const auto stopped = SegHdc(config).segment(card.image);
  EXPECT_TRUE(stopped.converged);
  EXPECT_LT(stopped.iterations_run, 10u);

  config.iterations = 15;
  expect_same_run(stopped, SegHdc(config).segment(card.image));
}

TEST(Convergence, ReportsIterationsRun) {
  const auto card = make_card(32, 1);
  SegHdcConfig config;
  config.dim = 512;
  config.beta = 8;
  config.iterations = 50;
  const auto result = SegHdc(config).segment(card.image);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations_run, 50u);
  EXPECT_GE(result.iterations_run, 2u);

  // The budget that just reaches the fixed point converges exactly as
  // the larger budgets do; one iteration less runs out without it.
  const std::size_t t = result.iterations_run;
  for (const std::size_t budget : {t, t + 5}) {
    config.iterations = budget;
    expect_same_run(result, SegHdc(config).segment(card.image));
  }
  config.iterations = t - 1;
  const auto short_run = SegHdc(config).segment(card.image);
  EXPECT_FALSE(short_run.converged);
  EXPECT_EQ(short_run.iterations_run, t - 1);
}

// --- Gamma sweep: raising gamma must not break the easy case and must
// monotonically increase the share of color in the total distance. ---
class GammaSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GammaSweep, CardStillSegments) {
  const auto card = make_card(48, 3);
  SegHdcConfig config;
  config.dim = 1536;
  config.beta = 8;
  config.iterations = 5;
  config.gamma = GetParam();
  const auto result = SegHdc(config).segment(card.image);
  const auto matched =
      metrics::best_foreground_iou(result.labels, 2, card.mask);
  EXPECT_GT(matched.iou, 0.97) << "gamma " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Gammas, GammaSweep, ::testing::Values(1, 2, 4));

}  // namespace
