#include "service/cache.hpp"

#include "util/hash.hpp"

namespace rsb::service {

std::size_t ResultCache::KeyHash::operator()(const Key& key) const noexcept {
  std::uint64_t h = hash_combine(key.spec_hash, key.first);
  return static_cast<std::size_t>(hash_combine(h, key.count));
}

std::optional<ResultCache::Entry> ResultCache::lookup(const Key& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch
  return it->second->entry;
}

bool ResultCache::misses(const Key& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index_.contains(key)) return false;
  ++stats_.misses;
  return true;
}

void ResultCache::insert(const Key& key, Entry entry) {
  const std::uint64_t charged = entry.payload.size() + kEntryOverhead;
  std::lock_guard<std::mutex> lock(mutex_);
  // Oversized entries are rejected before any accounting: counting them
  // as insertions inflated the stat, and taking the refresh path below
  // would have evicted every *other* entry just to fail retaining this
  // one. `insertions` therefore counts retained inserts exactly.
  if (charged > byte_budget_) return;
  ++stats_.insertions;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    stats_.bytes -= it->second->charged;
    it->second->entry = std::move(entry);
    it->second->charged = charged;
    stats_.bytes += charged;
    lru_.splice(lru_.begin(), lru_, it->second);
    stats_.entries = lru_.size();
    evict_to_budget();
    return;
  }
  lru_.push_front(Node{key, std::move(entry), charged});
  index_.emplace(key, lru_.begin());
  stats_.bytes += charged;
  stats_.entries = lru_.size();
  evict_to_budget();
}

void ResultCache::evict_to_budget() {
  while (stats_.bytes > byte_budget_ && !lru_.empty()) {
    const Node& victim = lru_.back();
    stats_.bytes -= victim.charged;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  stats_.entries = lru_.size();
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace rsb::service
