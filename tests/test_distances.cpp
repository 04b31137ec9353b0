// Tests for the Hamming distances and the centroid cosine (paper Eq. 7).
#include <gtest/gtest.h>

#include <cmath>

#include "src/hdc/accumulator.hpp"
#include "src/hdc/distances.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace seghdc::hdc;
using seghdc::util::Rng;

TEST(Distances, HammingSymmetricAndZeroOnSelf) {
  Rng rng(1);
  const auto a = HyperVector::random(400, rng);
  const auto b = HyperVector::random(400, rng);
  EXPECT_EQ(hamming_distance(a, a), 0u);
  EXPECT_EQ(hamming_distance(a, b), hamming_distance(b, a));
}

TEST(Distances, HammingTriangleInequality) {
  Rng rng(2);
  const auto a = HyperVector::random(512, rng);
  const auto b = HyperVector::random(512, rng);
  const auto c = HyperVector::random(512, rng);
  EXPECT_LE(hamming_distance(a, c),
            hamming_distance(a, b) + hamming_distance(b, c));
}

TEST(Distances, NormalizedHammingRange) {
  Rng rng(3);
  const auto a = HyperVector::random(256, rng);
  auto b = a;
  EXPECT_DOUBLE_EQ(normalized_hamming(a, b), 0.0);
  b.flip_range(0, 256);
  EXPECT_DOUBLE_EQ(normalized_hamming(a, b), 1.0);
}

TEST(Distances, CosineAgainstAccumulatorMatchesEq7) {
  // Eq. 7 spelled out on a tiny example: z = [2,1,0,1], y = {0,2}.
  Accumulator z(4);
  HyperVector h1(4), h2(4);
  h1.set(0, true);
  h1.set(1, true);
  h2.set(0, true);
  h2.set(3, true);
  z.add(h1);
  z.add(h2);
  HyperVector y(4);
  y.set(0, true);
  y.set(2, true);
  // dot = 2, |y| = sqrt(2), |z| = sqrt(4+1+0+1) = sqrt(6).
  const double expected = 1.0 - 2.0 / (std::sqrt(2.0) * std::sqrt(6.0));
  EXPECT_NEAR(z.cosine_distance(y), expected, 1e-12);
}

}  // namespace
