// Hamming distances between binary HVs: the metric the position and
// color encoders are designed to realise the paper's Manhattan / L1
// distance (Eq. 1) in. Cosine distance to a centroid (paper Eq. 7) is
// Accumulator::cosine_distance.
#ifndef SEGHDC_HDC_DISTANCES_HPP
#define SEGHDC_HDC_DISTANCES_HPP

#include <cstddef>

#include "src/hdc/hypervector.hpp"

namespace seghdc::hdc {

/// Hamming distance between two equal-dimension binary HVs.
std::size_t hamming_distance(const HyperVector& a, const HyperVector& b);

/// Hamming distance divided by the dimension, in [0, 1]. Two random HVs
/// concentrate tightly around 0.5 ("pseudo-orthogonal", paper Lemma 1).
double normalized_hamming(const HyperVector& a, const HyperVector& b);

}  // namespace seghdc::hdc

#endif  // SEGHDC_HDC_DISTANCES_HPP
