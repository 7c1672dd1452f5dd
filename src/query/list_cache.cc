#include "query/list_cache.h"

namespace ndss {

CrossQueryListCache::CrossQueryListCache(uint64_t budget_bytes,
                                         MemoryBudget* parent)
    : budget_bytes_(budget_bytes), parent_(parent) {}

CrossQueryListCache::~CrossQueryListCache() {
  const uint64_t bytes = bytes_.load(std::memory_order_relaxed);
  if (parent_ != nullptr && bytes > 0) parent_->Release(bytes);
}

std::shared_ptr<CrossQueryListCache::Entry> CrossQueryListCache::GetOrCreate(
    const Key& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, created] = shard.map.try_emplace(key);
  if (created) {
    it->second.entry = std::make_shared<Entry>();
  } else if (it->second.resident) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  }
  return it->second.entry;
}

bool CrossQueryListCache::TryReserve(uint64_t need) {
  uint64_t current = bytes_.load(std::memory_order_relaxed);
  while (current + need <= budget_bytes_) {
    if (bytes_.compare_exchange_weak(current, current + need,
                                     std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void CrossQueryListCache::RetireLocked(Shard& shard, Slot& slot) {
  bytes_.fetch_sub(slot.entry->bytes, std::memory_order_relaxed);
  if (parent_ != nullptr) parent_->Release(slot.entry->bytes);
  shard.lru.erase(slot.lru_it);
  slot.resident = false;
}

bool CrossQueryListCache::Commit(const Key& key,
                                 const std::shared_ptr<Entry>& entry) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end() || it->second.entry != entry) {
    // EraseOwner raced the load and already dropped this key: the source
    // is retired, so do not re-insert — the entry stays usable by the
    // queries that hold it and dies with them.
    return false;
  }
  const uint64_t need = entry->bytes;
  // Evict this shard's LRU entries until the whole cache has room. Other
  // shards are not touched (their mutexes are not held), so a commit can
  // be refused while another shard holds evictable bytes; loading entries
  // (not yet resident) cannot be evicted either. Later queries retry.
  bool reserved = need <= budget_bytes_ && TryReserve(need);
  while (!reserved && need <= budget_bytes_ && !shard.lru.empty()) {
    const Key victim_key = shard.lru.back();
    auto victim = shard.map.find(victim_key);
    RetireLocked(shard, victim->second);
    shard.map.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    reserved = TryReserve(need);
  }
  if (reserved && parent_ != nullptr && !parent_->Charge(need).ok()) {
    // The server-wide budget is exhausted by other subsystems: serve the
    // current holders but do not retain.
    bytes_.fetch_sub(need, std::memory_order_relaxed);
    reserved = false;
  }
  if (!reserved) {
    shard.map.erase(it);
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  shard.lru.push_front(key);
  it->second.lru_it = shard.lru.begin();
  it->second.resident = true;
  insertions_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void CrossQueryListCache::Abandon(const Key& key,
                                  const std::shared_ptr<Entry>& entry) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end() || it->second.entry != entry) return;
  if (it->second.resident) RetireLocked(shard, it->second);
  shard.map.erase(it);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
}

void CrossQueryListCache::EraseOwner(uint64_t owner) {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      if (it->first.owner != owner) {
        ++it;
        continue;
      }
      if (it->second.resident) RetireLocked(shard, it->second);
      it = shard.map.erase(it);
      invalidations_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

CrossQueryListCache::Counters CrossQueryListCache::counters() const {
  Counters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.insertions = insertions_.load(std::memory_order_relaxed);
  c.evictions = evictions_.load(std::memory_order_relaxed);
  c.invalidations = invalidations_.load(std::memory_order_relaxed);
  c.bytes_used = bytes_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    c.entries += shard.map.size();
  }
  return c;
}

}  // namespace ndss
