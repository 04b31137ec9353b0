// NEON backend for the aarch64 (Raspberry Pi) target.
//
// vcnt counts bits per byte; blocks of up to 31 vectors accumulate
// those byte counts in a u8 lane accumulator (31 * 8 = 248 < 255, no
// overflow) before one horizontal vaddlvq_u8 fold — one widen per
// block instead of one per vector. Hamming and the cosine plane
// primitive fuse their XOR/AND into the same pass. NEON is baseline on
// aarch64, so no runtime probe or target attribute is needed; on other
// architectures the accessor returns nullptr.
#include "src/hdc/simd/backends_internal.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>

namespace seghdc::hdc::simd {

namespace {

/// Popcount of `size` words produced by `vec(i)` (two words per
/// uint8x16_t), blocked to amortise the horizontal fold.
template <typename VecFn>
inline std::uint64_t neon_count(std::size_t vectors, VecFn vec) {
  std::uint64_t total = 0;
  std::size_t v = 0;
  while (v < vectors) {
    const std::size_t block_end = std::min(vectors, v + 31);
    uint8x16_t acc = vdupq_n_u8(0);
    for (; v < block_end; ++v) {
      acc = vaddq_u8(acc, vcntq_u8(vec(v)));
    }
    total += vaddlvq_u8(acc);
  }
  return total;
}

inline uint8x16_t load_u8x16(const std::uint64_t* p) {
  return vreinterpretq_u8_u64(vld1q_u64(p));
}

std::size_t neon_popcount(std::span<const std::uint64_t> words) {
  const std::size_t vectors = words.size() / 2;
  std::uint64_t total = neon_count(
      vectors, [&](std::size_t v) { return load_u8x16(&words[2 * v]); });
  for (std::size_t i = 2 * vectors; i < words.size(); ++i) {
    total += static_cast<std::uint64_t>(std::popcount(words[i]));
  }
  return static_cast<std::size_t>(total);
}

std::size_t neon_hamming(std::span<const std::uint64_t> a,
                         std::span<const std::uint64_t> b) {
  const std::size_t vectors = a.size() / 2;
  std::uint64_t total = neon_count(vectors, [&](std::size_t v) {
    return veorq_u8(load_u8x16(&a[2 * v]), load_u8x16(&b[2 * v]));
  });
  for (std::size_t i = 2 * vectors; i < a.size(); ++i) {
    total += static_cast<std::uint64_t>(std::popcount(a[i] ^ b[i]));
  }
  return static_cast<std::size_t>(total);
}

std::size_t neon_and_popcount(std::span<const std::uint64_t> a,
                              std::span<const std::uint64_t> b) {
  const std::size_t vectors = a.size() / 2;
  std::uint64_t total = neon_count(vectors, [&](std::size_t v) {
    return vandq_u8(load_u8x16(&a[2 * v]), load_u8x16(&b[2 * v]));
  });
  for (std::size_t i = 2 * vectors; i < a.size(); ++i) {
    total += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  }
  return static_cast<std::size_t>(total);
}

// Bounded variants process four vectors (8 words) per abort check: the
// u8 lane accumulator folds once per block (8 * 8 = 64 byte counts,
// far under the 255 overflow ceiling) so the check is a plain scalar
// compare on the running total.

BoundedScan neon_hamming_bounded(std::span<const std::uint64_t> a,
                                 std::span<const std::uint64_t> b,
                                 std::size_t bound) {
  std::size_t count = 0;
  std::size_t w = 0;
  for (; w + 8 <= a.size(); w += 8) {
    if (count >= bound) {
      return BoundedScan{count, w};
    }
    uint8x16_t acc = vdupq_n_u8(0);
    for (std::size_t v = 0; v < 4; ++v) {
      acc = vaddq_u8(acc, vcntq_u8(veorq_u8(load_u8x16(&a[w + 2 * v]),
                                            load_u8x16(&b[w + 2 * v]))));
    }
    count += vaddlvq_u8(acc);
  }
  if (count >= bound) {
    return BoundedScan{count, w};
  }
  for (; w < a.size(); ++w) {
    count += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  }
  return BoundedScan{count, w};
}

BoundedScan neon_and_popcount_capped(std::span<const std::uint64_t> a,
                                     std::span<const std::uint64_t> b,
                                     std::size_t cap) {
  std::size_t count = 0;
  std::size_t w = 0;
  for (; w + 8 <= a.size(); w += 8) {
    if (count + 64 * (a.size() - w) <= cap) {
      return BoundedScan{count, w};
    }
    uint8x16_t acc = vdupq_n_u8(0);
    for (std::size_t v = 0; v < 4; ++v) {
      acc = vaddq_u8(acc, vcntq_u8(vandq_u8(load_u8x16(&a[w + 2 * v]),
                                            load_u8x16(&b[w + 2 * v]))));
    }
    count += vaddlvq_u8(acc);
  }
  if (w < a.size() && count + 64 * (a.size() - w) <= cap) {
    return BoundedScan{count, w};
  }
  for (; w < a.size(); ++w) {
    count += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
  }
  return BoundedScan{count, w};
}

void neon_xor_bind(std::span<std::uint64_t> dst,
                   std::span<const std::uint64_t> a,
                   std::span<const std::uint64_t> b) {
  std::size_t i = 0;
  for (; i + 2 <= dst.size(); i += 2) {
    vst1q_u64(&dst[i], veorq_u64(vld1q_u64(&a[i]), vld1q_u64(&b[i])));
  }
  for (; i < dst.size(); ++i) {
    dst[i] = a[i] ^ b[i];
  }
}

/// Masked-lane accumulate, 2 x int64 at a time: the lane selector starts
/// at {1, 2} and slides left 2 bits per pair, so one mask-word broadcast
/// drives all 32 compares of a 64-count block; the pre-add dot rides the
/// same pass in a vector accumulator.
std::int64_t neon_accumulate_words(std::span<std::int64_t> counts,
                                   std::span<const std::uint64_t> words,
                                   std::int64_t weight) {
  int64x2_t dot_acc = vdupq_n_s64(0);
  const int64x2_t weight_vec = vdupq_n_s64(weight);
  const std::size_t full = counts.size() / 64;
  std::size_t w = 0;
  for (; w < full && w < words.size(); ++w) {
    const std::uint64_t bits = words[w];
    if (bits == 0) {
      continue;
    }
    std::int64_t* base = counts.data() + w * 64;
    const uint64x2_t bcast = vdupq_n_u64(bits);
    uint64x2_t select = vcombine_u64(vcreate_u64(1), vcreate_u64(2));
    for (std::size_t g = 0; g < 32; ++g) {
      const int64x2_t mask =
          vreinterpretq_s64_u64(vceqq_u64(vandq_u64(bcast, select), select));
      int64x2_t c = vld1q_s64(base + 2 * g);
      dot_acc = vaddq_s64(dot_acc, vandq_s64(c, mask));
      c = vaddq_s64(c, vandq_s64(weight_vec, mask));
      vst1q_s64(base + 2 * g, c);
      select = vshlq_n_u64(select, 2);
    }
  }
  std::int64_t dot =
      vgetq_lane_s64(dot_acc, 0) + vgetq_lane_s64(dot_acc, 1);
  if (w < words.size()) {
    dot += detail::scalar_accumulate_words(counts.subspan(w * 64),
                                           words.subspan(w), weight);
  }
  return dot;
}

bool always_available() { return true; }

const KernelBackend kNeonBackend{
    .name = "neon",
    .priority = 30,
    .available = always_available,
    .popcount = neon_popcount,
    .hamming = neon_hamming,
    .and_popcount = neon_and_popcount,
    .hamming_bounded = neon_hamming_bounded,
    .and_popcount_capped = neon_and_popcount_capped,
    .xor_bind = neon_xor_bind,
    .accumulate_words = neon_accumulate_words,
    // The scatter is index arithmetic; vcnt has nothing to add.
    .build_planes = detail::scalar_build_planes,
};

}  // namespace

const KernelBackend* neon_backend() { return &kNeonBackend; }

}  // namespace seghdc::hdc::simd

#else  // non-aarch64 targets: backend compiled out.

namespace seghdc::hdc::simd {

const KernelBackend* neon_backend() { return nullptr; }

}  // namespace seghdc::hdc::simd

#endif
