// Tests for the pixel HV producer (paper Section III-③, Fig. 5): a pixel
// HV is position HV XOR color HV. XOR binding adds distances on disjoint
// flip sites, partially cancels on coinciding ones, and the bound HVs
// satisfy Lemma 1.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/color_encoder.hpp"
#include "src/core/position_encoder.hpp"
#include "src/hdc/distances.hpp"

namespace {

using namespace seghdc;
using namespace seghdc::core;

TEST(PixelBind, Fig5bColorFlipAloneMovesDistanceOne) {
  // Fig. 5(b): flip one color bit -> pixel HV moves Hamming distance 1.
  util::Rng rng(3);
  const auto position = hdc::HyperVector::random(128, rng);
  auto color = hdc::HyperVector::random(128, rng);
  const auto y1 = position ^ color;
  color.flip(17);
  const auto y2 = position ^ color;
  EXPECT_EQ(hdc::hamming_distance(y1, y2), 1u);
}

TEST(PixelBind, Fig5cDisjointFlipsAddDistances) {
  // Fig. 5(c): position flips bit A, color flips bit B != A -> the pixel
  // HV moves distance 2.
  util::Rng rng(4);
  auto position = hdc::HyperVector::random(128, rng);
  auto color = hdc::HyperVector::random(128, rng);
  const auto y1 = position ^ color;
  position.flip(5);
  color.flip(90);
  const auto y3 = position ^ color;
  EXPECT_EQ(hdc::hamming_distance(y1, y3), 2u);
}

TEST(PixelBind, Fig5dCoincidingFlipsCancel) {
  // Fig. 5(d): position and color flip the SAME site -> the flips cancel
  // and the pixel HV does not move at that site.
  util::Rng rng(5);
  auto position = hdc::HyperVector::random(128, rng);
  auto color = hdc::HyperVector::random(128, rng);
  const auto y1 = position ^ color;
  position.flip(42);
  color.flip(42);
  const auto y4 = position ^ color;
  EXPECT_EQ(hdc::hamming_distance(y1, y4), 0u);
}

TEST(PixelBind, RealEncodersDistancesAdd) {
  // With the actual encoders, position flips live in the position
  // half-regions and color flips in the ladder prefix; moving one block
  // AND one color step moves the pixel HV by x_row + uc exactly when the
  // flip sites are disjoint — verify the additive case occurs at real
  // scale.
  util::Rng rng(6);
  const PositionEncoder positions(
      PositionEncoderConfig{.dim = 4096, .rows = 8, .cols = 8,
                            .encoding = PositionEncoding::kManhattan,
                            .alpha = 1.0, .beta = 1},
      rng);
  const ColorEncoder colors(
      ColorEncoderConfig{.dim = 4096, .channels = 1}, rng);

  const auto y_base = positions.encode(0, 0) ^ colors.channel_hv(0, 0);
  const auto y_moved = positions.encode(1, 0) ^ colors.channel_hv(0, 10);

  const auto position_distance = hdc::hamming_distance(
      positions.encode(0, 0), positions.encode(1, 0));
  const auto color_distance = hdc::hamming_distance(
      colors.channel_hv(0, 0), colors.channel_hv(0, 10));
  const auto combined = hdc::hamming_distance(y_base, y_moved);
  // Flip sites may partially overlap (both ladders start near bit 0), so
  // combined <= sum, with equality iff disjoint; it must exceed either
  // single contribution alone minus the other (triangle band).
  EXPECT_LE(combined, position_distance + color_distance);
  EXPECT_GE(combined + 2 * std::min(position_distance, color_distance),
            position_distance + color_distance);
  EXPECT_GT(combined, 0u);
}

TEST(PixelBind, Lemma1BoundHvPseudoOrthogonalToInputs) {
  // Lemma 1: the bound pixel HV is pseudo-orthogonal to both factors.
  util::Rng rng(7);
  const auto position = hdc::HyperVector::random(10000, rng);
  const auto color = hdc::HyperVector::random(10000, rng);
  const auto pixel = position ^ color;
  EXPECT_NEAR(hdc::normalized_hamming(pixel, position), 0.5, 0.03);
  EXPECT_NEAR(hdc::normalized_hamming(pixel, color), 0.5, 0.03);
}

TEST(PixelBind, BindingPreservesRecovery) {
  // XOR binding is invertible: pixel ^ position == color.
  util::Rng rng(8);
  const auto position = hdc::HyperVector::random(1000, rng);
  const auto color = hdc::HyperVector::random(1000, rng);
  const auto pixel = position ^ color;
  EXPECT_EQ(pixel ^ position, color);
  EXPECT_EQ(pixel ^ color, position);
}

}  // namespace
