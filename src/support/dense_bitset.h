// A growable set of small unsigned ids, one bit per id.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace cityhunter::support {

class DenseBitset {
 public:
  bool contains(std::uint32_t i) const {
    const std::size_t w = i >> 6;
    return w < words_.size() && ((words_[w] >> (i & 63)) & 1) != 0;
  }

  /// Returns true when `i` was not yet in the set.
  bool insert(std::uint32_t i) {
    const std::size_t w = i >> 6;
    if (w >= words_.size()) words_.resize(std::max(w + 1, 2 * words_.size()));
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    const bool fresh = (words_[w] & bit) == 0;
    words_[w] |= bit;
    return fresh;
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace cityhunter::support
