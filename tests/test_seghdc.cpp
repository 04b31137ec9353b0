// End-to-end tests for the SegHDC pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/kmeans.hpp"
#include "src/core/seghdc.hpp"
#include "src/metrics/segmentation_metrics.hpp"

namespace {

using namespace seghdc;
using namespace seghdc::core;

/// A crisp two-tone test card: bright square on dark background.
struct TestCard {
  img::ImageU8 image;
  img::ImageU8 mask;
};

TestCard make_card(std::size_t size = 64, std::size_t channels = 1) {
  TestCard card;
  card.image = img::ImageU8(size, size, channels, 20);
  card.mask = img::ImageU8(size, size, 1, 0);
  for (std::size_t y = size / 4; y < 3 * size / 4; ++y) {
    for (std::size_t x = size / 4; x < 3 * size / 4; ++x) {
      for (std::size_t c = 0; c < channels; ++c) {
        card.image(x, y, c) = 220;
      }
      card.mask(x, y) = 255;
    }
  }
  return card;
}

SegHdcConfig small_config() {
  SegHdcConfig config;
  config.dim = 1024;
  config.beta = 8;
  config.clusters = 2;
  config.iterations = 5;
  return config;
}

TEST(SegHdc, PerfectlySeparatesTwoToneImage) {
  const auto card = make_card();
  const SegHdc seghdc(small_config());
  const auto result = seghdc.segment(card.image);
  const auto matched =
      metrics::best_foreground_iou(result.labels, 2, card.mask);
  EXPECT_DOUBLE_EQ(matched.iou, 1.0);
}

TEST(SegHdc, WorksOnRgbImages) {
  const auto card = make_card(64, 3);
  const SegHdc seghdc(small_config());
  const auto result = seghdc.segment(card.image);
  const auto matched =
      metrics::best_foreground_iou(result.labels, 2, card.mask);
  EXPECT_GT(matched.iou, 0.98);
}

TEST(SegHdc, DeterministicAcrossRuns) {
  const auto card = make_card();
  const SegHdc seghdc(small_config());
  const auto a = seghdc.segment(card.image);
  const auto b = seghdc.segment(card.image);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(SegHdc, SeedChangesEncodingNotQuality) {
  const auto card = make_card();
  auto config_a = small_config();
  auto config_b = small_config();
  config_b.seed = 777;
  const auto result_a = SegHdc(config_a).segment(card.image);
  const auto result_b = SegHdc(config_b).segment(card.image);
  const auto iou_a =
      metrics::best_foreground_iou(result_a.labels, 2, card.mask).iou;
  const auto iou_b =
      metrics::best_foreground_iou(result_b.labels, 2, card.mask).iou;
  EXPECT_NEAR(iou_a, iou_b, 0.02);
}

TEST(SegHdc, DedupMatchesPerPixelOracle) {
  // Deduplication is an exact optimisation. The oracle clusters every
  // pixel as its own point: the encode expanded to per-pixel rows through
  // pixel_to_unique, weight 1 each, seeds picked over per-pixel
  // intensities. Its labels must equal segment()'s.
  for (const std::size_t channels : {1u, 3u}) {
    for (const auto distance :
         {ClusterDistance::kCosine, ClusterDistance::kHamming}) {
      SCOPED_TRACE("channels " + std::to_string(channels) +
                   (distance == ClusterDistance::kCosine ? " cosine"
                                                         : " hamming"));
      const auto card = make_card(32, channels);
      auto config = small_config();
      config.cluster_distance = distance;
      const SegHdc seghdc(config);
      const auto encoded = seghdc.encode(card.image);
      const std::size_t pixels = card.image.pixel_count();

      hdc::HvBlock per_pixel(config.dim, pixels);
      std::vector<std::uint8_t> intensities(pixels);
      for (std::size_t p = 0; p < pixels; ++p) {
        const std::uint32_t u = encoded.pixel_to_unique[p];
        const auto row = encoded.unique_hvs.row(u);
        std::copy(row.begin(), row.end(), per_pixel.row(p).begin());
        intensities[p] = encoded.intensities[u];
      }
      const std::vector<std::uint32_t> weights(pixels, 1);
      const HvKMeans kmeans(HvKMeansConfig{
          .clusters = config.clusters,
          .iterations = config.iterations,
          .distance = config.cluster_distance,
      });
      const auto oracle = kmeans.run(
          per_pixel, weights,
          largest_color_difference_seeds(intensities, config.clusters));

      const auto result = seghdc.segment(card.image);
      EXPECT_LT(result.unique_points, pixels);
      ASSERT_EQ(result.labels.pixel_count(), pixels);
      for (std::size_t p = 0; p < pixels; ++p) {
        ASSERT_EQ(result.labels.pixels()[p], oracle.assignment[p])
            << "pixel " << p;
      }
    }
  }
}

TEST(SegHdc, EncodeMappingIsConsistent) {
  const auto card = make_card(32);
  const SegHdc seghdc(small_config());
  const auto encoded = seghdc.encode(card.image);
  ASSERT_EQ(encoded.pixel_to_unique.size(), card.image.pixel_count());
  ASSERT_EQ(encoded.unique_hvs.size(), encoded.weights.size());
  ASSERT_EQ(encoded.unique_hvs.size(), encoded.intensities.size());
  // Weights sum to the pixel count.
  std::uint64_t total = 0;
  for (const auto w : encoded.weights) {
    total += w;
  }
  EXPECT_EQ(total, card.image.pixel_count());
  // Every pixel maps to a valid unique index.
  for (const auto u : encoded.pixel_to_unique) {
    EXPECT_LT(u, encoded.unique_hvs.size());
  }
  // All unique HVs share the configured dimensionality (one SoA block).
  EXPECT_EQ(encoded.unique_hvs.dim(), small_config().dim);
  EXPECT_EQ(encoded.unique_hvs.words_per_hv(),
            (small_config().dim + 63) / 64);
}

TEST(SegHdc, PixelsInSameBlockWithSameColorShareUniquePoint) {
  const auto card = make_card(32);
  const SegHdc seghdc(small_config());  // beta = 8
  const auto encoded = seghdc.encode(card.image);
  // (0,0) and (1,1) are in the same 8x8 block and both background.
  EXPECT_EQ(encoded.pixel_to_unique[0],
            encoded.pixel_to_unique[1 * 32 + 1]);
  // (0,0) and (16,16) share the color but not the block.
  EXPECT_NE(encoded.pixel_to_unique[0],
            encoded.pixel_to_unique[16 * 32 + 16]);
}

TEST(SegHdc, QuantizationCollapsesNearbyColors) {
  auto card = make_card(32);
  // Add one-off color jitter to the background.
  card.image(1, 1) = 21;
  card.image(2, 2) = 22;
  auto exact = small_config();
  auto quantized = small_config();
  quantized.color_quantization_shift = 3;
  const auto exact_encoded = SegHdc(exact).encode(card.image);
  const auto quant_encoded = SegHdc(quantized).encode(card.image);
  EXPECT_GT(exact_encoded.unique_hvs.size(),
            quant_encoded.unique_hvs.size());
}

TEST(SegHdc, ClusterPixelCountsSumToImage) {
  const auto card = make_card();
  const SegHdc seghdc(small_config());
  const auto result = seghdc.segment(card.image);
  std::uint64_t total = 0;
  for (const auto count : result.cluster_pixel_counts) {
    total += count;
  }
  EXPECT_EQ(total, card.image.pixel_count());
  EXPECT_EQ(result.cluster_pixel_counts.size(), 2u);
}

TEST(SegHdc, ReportsTimingsAndOps) {
  const auto card = make_card();
  const SegHdc seghdc(small_config());
  const auto result = seghdc.segment(card.image);
  EXPECT_GT(result.timings.total_seconds, 0.0);
  EXPECT_GE(result.timings.total_seconds,
            result.timings.cluster_seconds);
  EXPECT_GT(result.ops.dot_adds, 0u);
  EXPECT_GT(result.ops.bind_xor_bits, 0u);
  // Paper-equivalent counts follow the analytic per-pixel formula.
  const auto expected = analytic_seghdc_ops(card.image.pixel_count(),
                                            small_config().dim, 2, 5);
  EXPECT_EQ(result.paper_equivalent_ops.dot_adds, expected.dot_adds);
  // Dedup makes actual work strictly smaller than paper-equivalent.
  EXPECT_LT(result.ops.dot_adds, result.paper_equivalent_ops.dot_adds);
}

TEST(SegHdc, ThreeClusterImage) {
  // Three intensity bands -> three clusters recovered.
  img::ImageU8 image(48, 48, 1, 0);
  for (std::size_t y = 0; y < 48; ++y) {
    for (std::size_t x = 0; x < 48; ++x) {
      image(x, y) = x < 16 ? 15 : x < 32 ? 120 : 240;
    }
  }
  auto config = small_config();
  config.clusters = 3;
  const auto result = SegHdc(config).segment(image);
  // Each band should be internally uniform.
  EXPECT_EQ(result.labels.at(2, 20), result.labels.at(8, 40));
  EXPECT_EQ(result.labels.at(20, 20), result.labels.at(25, 4));
  EXPECT_EQ(result.labels.at(40, 20), result.labels.at(45, 45));
  // And the three bands pairwise distinct.
  EXPECT_NE(result.labels.at(2, 20), result.labels.at(20, 20));
  EXPECT_NE(result.labels.at(20, 20), result.labels.at(40, 20));
}

TEST(SegHdc, RposVariantDegradesSegmentation) {
  // Table I's RPos column: random position codebooks destroy locality
  // and drag IoU far below the structured encoder.
  const auto card = make_card();
  const auto structured = SegHdc(small_config()).segment(card.image);
  const auto rpos =
      SegHdc(small_config().rpos_variant()).segment(card.image);
  const auto structured_iou =
      metrics::best_foreground_iou(structured.labels, 2, card.mask).iou;
  const auto rpos_iou =
      metrics::best_foreground_iou(rpos.labels, 2, card.mask).iou;
  EXPECT_GT(structured_iou, rpos_iou + 0.2);
}

TEST(SegHdc, ConfigValidation) {
  SegHdcConfig config;
  config.dim = 4;
  EXPECT_THROW(SegHdc{config}, std::invalid_argument);
  config = SegHdcConfig{};
  config.alpha = 0.0;
  EXPECT_THROW(SegHdc{config}, std::invalid_argument);
  config = SegHdcConfig{};
  config.clusters = 1;
  EXPECT_THROW(SegHdc{config}, std::invalid_argument);
  config = SegHdcConfig{};
  config.iterations = 0;
  EXPECT_THROW(SegHdc{config}, std::invalid_argument);
  config = SegHdcConfig{};
  config.gamma = 0;
  EXPECT_THROW(SegHdc{config}, std::invalid_argument);
  config = SegHdcConfig{};
  config.color_quantization_shift = 8;
  EXPECT_THROW(SegHdc{config}, std::invalid_argument);
}

TEST(SegHdc, RejectsUnsupportedImages) {
  const SegHdc seghdc(small_config());
  const img::ImageU8 two_channel(8, 8, 2, 0);
  EXPECT_THROW(seghdc.segment(two_channel), std::invalid_argument);
}

TEST(SegHdc, VariantFactoriesOnlyChangeEncoding) {
  const SegHdcConfig base = small_config();
  const auto rpos = base.rpos_variant();
  EXPECT_EQ(rpos.position_encoding, PositionEncoding::kRandom);
  EXPECT_EQ(rpos.color_encoding, base.color_encoding);
  EXPECT_EQ(rpos.dim, base.dim);
  const auto rcolor = base.rcolor_variant();
  EXPECT_EQ(rcolor.color_encoding, ColorEncoding::kRandom);
  EXPECT_EQ(rcolor.position_encoding, base.position_encoding);
}

}  // namespace
