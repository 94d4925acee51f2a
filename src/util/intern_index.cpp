#include "util/intern_index.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace rsb {

namespace {
constexpr std::size_t kInitialSlots = 64;  // power of two

/// Smallest power-of-two table that holds `entries` at load <= 1/2.
std::size_t table_size_for(std::size_t entries) {
  std::size_t wanted = kInitialSlots;
  while (wanted < (entries + 1) * 2) wanted *= 2;
  return wanted;
}
}  // namespace

void throw_store_limit(std::size_t value, const char* what) {
  throw Error(std::string(what) + " " + std::to_string(value) +
              " exceeds the 32-bit store limit " +
              std::to_string(kMaxStoreIndex));
}

void InternIndex::reset() {
  const std::size_t wanted = table_size_for(hashes_.size());
  reset_pool(hashes_);
  if (slots_.size() < wanted || slots_.size() > kRetainFactor * wanted) {
    slots_ = std::vector<std::uint32_t>(wanted, kEmptySlot);
  } else {
    std::fill(slots_.begin(), slots_.end(), kEmptySlot);
  }
}

void InternIndex::grow() {
  std::vector<std::uint32_t> bigger(table_size_for(hashes_.size()),
                                    kEmptySlot);
  const std::size_t mask = bigger.size() - 1;
  for (std::uint32_t id = 0; id < hashes_.size(); ++id) {
    std::size_t i = static_cast<std::size_t>(hashes_[id]) & mask;
    while (bigger[i] != kEmptySlot) i = (i + 1) & mask;
    bigger[i] = id;
  }
  slots_ = std::move(bigger);
}

}  // namespace rsb
