// Subsystem-internal glue between the backend TUs and the registry:
// accessor declarations (one per TU — ISA-gated TUs return nullptr when
// compiled out) and the shared scalar kernels that every backend reuses
// for short spans and vector tails.
#ifndef SEGHDC_HDC_SIMD_BACKENDS_INTERNAL_HPP
#define SEGHDC_HDC_SIMD_BACKENDS_INTERNAL_HPP

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/hdc/simd/backend.hpp"

namespace seghdc::hdc::simd {

/// The scalar reference backend; always available.
const KernelBackend* scalar_backend();

/// The portable unrolled Harley-Seal popcount backend; always available.
const KernelBackend* harley_seal_backend();

/// The AVX2 backend, or nullptr when this binary targets a non-x86-64
/// architecture. Registered with a cpuid `available()` probe.
const KernelBackend* avx2_backend();

/// The NEON backend, or nullptr when this binary targets a non-aarch64
/// architecture.
const KernelBackend* neon_backend();

namespace detail {

/// Scalar kernels shared across backends (tail handling + reference).
inline std::size_t scalar_popcount(std::span<const std::uint64_t> words) {
  std::size_t count = 0;
  for (const auto word : words) {
    count += static_cast<std::size_t>(std::popcount(word));
  }
  return count;
}

inline std::size_t scalar_hamming(std::span<const std::uint64_t> a,
                                  std::span<const std::uint64_t> b) {
  std::size_t count = 0;
  for (std::size_t w = 0; w < a.size(); ++w) {
    count += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  }
  return count;
}

inline std::size_t scalar_and_popcount(std::span<const std::uint64_t> a,
                                       std::span<const std::uint64_t> b) {
  std::size_t count = 0;
  for (std::size_t w = 0; w < a.size(); ++w) {
    count += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
  }
  return count;
}

/// Reference bounded Hamming: plain per-word popcounts with the abort
/// condition (running >= bound) checked every 8 words — the smallest
/// granularity any backend uses, and the exactness reference the
/// property suite holds the vector backends to. A scan whose final
/// distance is < bound can never abort (running is non-decreasing), so
/// the BoundedScan contract holds by construction.
inline BoundedScan scalar_hamming_bounded(std::span<const std::uint64_t> a,
                                          std::span<const std::uint64_t> b,
                                          std::size_t bound) {
  std::size_t count = 0;
  std::size_t w = 0;
  while (w < a.size()) {
    if (count >= bound) {
      return BoundedScan{count, w};
    }
    const std::size_t block_end = std::min(a.size(), w + 8);
    for (; w < block_end; ++w) {
      count += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
    }
  }
  return BoundedScan{count, w};
}

/// Reference capped AND+popcount: aborts once running + 64 * remaining
/// <= cap (the final count provably cannot exceed cap), checked every 8
/// words. A scan whose final count is > cap can never abort, so the
/// BoundedScan contract holds by construction.
inline BoundedScan scalar_and_popcount_capped(
    std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
    std::size_t cap) {
  std::size_t count = 0;
  std::size_t w = 0;
  while (w < a.size()) {
    const std::size_t remaining = 64 * (a.size() - w);
    if (count + remaining <= cap) {
      return BoundedScan{count, w};
    }
    const std::size_t block_end = std::min(a.size(), w + 8);
    for (; w < block_end; ++w) {
      count += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
    }
  }
  return BoundedScan{count, w};
}

inline void scalar_xor_bind(std::span<std::uint64_t> dst,
                            std::span<const std::uint64_t> a,
                            std::span<const std::uint64_t> b) {
  for (std::size_t w = 0; w < dst.size(); ++w) {
    dst[w] = a[w] ^ b[w];
  }
}

/// Set-bit-walk weighted accumulate — the reference for accumulate_words
/// and the shared tail handler for the vectorised backends (it only
/// touches counts at set-bit indices, so partial trailing blocks stay in
/// bounds under the zero-padding invariant).
std::int64_t scalar_accumulate_words(std::span<std::int64_t> counts,
                                     std::span<const std::uint64_t> words,
                                     std::int64_t weight);

/// Per-count countr_zero scatter — the reference for build_planes and
/// the shared tail handler for partial 64-count blocks.
void scalar_build_planes(std::span<const std::int64_t> counts,
                         std::span<std::uint64_t> storage,
                         std::size_t words_per_plane);

}  // namespace detail

}  // namespace seghdc::hdc::simd

#endif  // SEGHDC_HDC_SIMD_BACKENDS_INTERNAL_HPP
