#include "src/hdc/distances.hpp"

#include "src/hdc/kernels.hpp"
#include "src/util/contracts.hpp"

namespace seghdc::hdc {

std::size_t hamming_distance(const HyperVector& a, const HyperVector& b) {
  util::expects(a.dim() == b.dim(),
                "hamming_distance requires equal dimensions");
  // Straight onto the dispatched word-span kernel (same integers on
  // every backend; HyperVector::hamming routes there too).
  return kernels::hamming_words(a.words(), b.words());
}

double normalized_hamming(const HyperVector& a, const HyperVector& b) {
  util::expects(a.dim() > 0, "normalized_hamming requires non-empty HVs");
  return static_cast<double>(HyperVector::hamming(a, b)) /
         static_cast<double>(a.dim());
}

}  // namespace seghdc::hdc
