#include "sim/payload.hpp"

#include <algorithm>
#include <cstring>

#include "util/hash.hpp"

namespace rsb::sim {

namespace {

std::uint64_t payload_hash(std::string_view bytes) noexcept {
  // FNV-1a over the bytes, finalized with mix64 for avalanche; cheap and
  // deterministic across runs (no per-process seed).
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return mix64(h);
}

}  // namespace

PayloadArena::PayloadArena() { index_.reset(); }

void PayloadArena::reset() {
  // The intern index's reset rule (util/intern_index.hpp): keep what the
  // ending run needed, within kRetainFactor, and give back the rest.
  reset_pool(entries_);
  index_.reset();
  const std::size_t filled = active_block_ + 1;
  if (blocks_.size() > kRetainFactor * filled) blocks_.resize(filled);
  for (std::vector<char>& block : blocks_) block.clear();  // keeps capacity
  active_block_ = 0;
  bytes_interned_ = 0;
}

const char* PayloadArena::allocate(std::string_view bytes) {
  if (bytes.empty()) return "";
  while (active_block_ < blocks_.size()) {
    std::vector<char>& block = blocks_[active_block_];
    if (block.size() + bytes.size() <= block.capacity()) break;
    ++active_block_;
  }
  if (active_block_ == blocks_.size()) {
    blocks_.emplace_back();
    blocks_.back().reserve(std::max(kBlockBytes, bytes.size()));
  }
  std::vector<char>& block = blocks_[active_block_];
  const std::size_t offset = block.size();
  block.resize(offset + bytes.size());  // within capacity: never reallocates
  std::memcpy(block.data() + offset, bytes.data(), bytes.size());
  return block.data() + offset;
}

PayloadId PayloadArena::intern(std::string_view bytes) {
  const std::uint64_t h = payload_hash(bytes);
  const std::size_t slot =
      index_.find(h, [&](PayloadId id) { return view(id) == bytes; });
  if (index_.at(slot) != InternIndex::kEmptySlot) return index_.at(slot);
  Entry entry;
  entry.size = narrow_store_index(bytes.size(), "payload size");
  entry.data = allocate(bytes);
  const PayloadId id = index_.insert(slot, h, "payload id");
  entries_.push_back(entry);
  bytes_interned_ += bytes.size();
  return id;
}

}  // namespace rsb::sim
