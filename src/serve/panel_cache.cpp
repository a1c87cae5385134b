#include "serve/panel_cache.hpp"

#include <algorithm>

#include "obs/registry.hpp"
#include "util/error.hpp"

namespace ptucker::serve {

namespace {

/// The cache's event counts, process-wide under "serve.cache.*": every
/// PanelCache in the process adds to the same cells.
struct CacheMetrics {
  obs::Counter lookups;
  obs::Counter hits;
  obs::Counter misses;
  obs::Counter evictions;
  obs::Counter invalidations;
};

CacheMetrics& cache_metrics() {
  static CacheMetrics* m = [] {
    auto* t = new CacheMetrics;
    t->lookups = obs::registry().counter("serve.cache.lookups");
    t->hits = obs::registry().counter("serve.cache.hits");
    t->misses = obs::registry().counter("serve.cache.misses");
    t->evictions = obs::registry().counter("serve.cache.evictions");
    t->invalidations = obs::registry().counter("serve.cache.invalidations");
    return t;
  }();
  return *m;
}

}  // namespace

PanelCache::PanelCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity) {
  PT_REQUIRE(capacity >= 1, "PanelCache: capacity < 1");
  PT_REQUIRE(shards >= 1, "PanelCache: shards < 1");
  const std::size_t n = std::min(shards, capacity);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = capacity / n + (i < capacity % n ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

std::size_t PanelCache::shard_of(const PanelKey& key) const {
  return (key.archive + key.entry) % shards_.size();
}

std::shared_ptr<const EntryPanels> PanelCache::get_or_load(
    const PanelKey& key, const Loader& loader) {
  Shard& s = *shards_[shard_of(key)];
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    cache_metrics().lookups.inc();
    const auto hit = s.index.find(key);
    if (hit != s.index.end()) {
      cache_metrics().hits.inc();
      s.lru.splice(s.lru.begin(), s.lru, hit->second);  // bump to front
      return s.lru.front().second;
    }
    cache_metrics().misses.inc();
  }
  // Miss: load with the lock dropped so this key's decompression I/O never
  // blocks hits on other keys of the shard. A racing thread may load the
  // same key; first insert wins, the loser adopts the winner's panels.
  std::shared_ptr<const EntryPanels> panels = loader();
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto hit = s.index.find(key);
  if (hit != s.index.end()) {
    s.lru.splice(s.lru.begin(), s.lru, hit->second);
    return s.lru.front().second;
  }
  s.lru.emplace_front(key, std::move(panels));
  s.index[key] = s.lru.begin();
  while (s.lru.size() > s.capacity) {
    s.index.erase(s.lru.back().first);
    s.lru.pop_back();
    cache_metrics().evictions.inc();
  }
  return s.lru.front().second;
}

void PanelCache::erase_archive(std::size_t archive) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->first.archive == archive) {
        shard->index.erase(it->first);
        it = shard->lru.erase(it);
        cache_metrics().invalidations.inc();
      } else {
        ++it;
      }
    }
  }
}

std::size_t PanelCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->lru.size();
  }
  return total;
}

std::vector<PanelKey> PanelCache::shard_keys(std::size_t shard) const {
  PT_REQUIRE(shard < shards_.size(),
             "PanelCache: shard " << shard << " out of range");
  const Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mutex);
  std::vector<PanelKey> keys;
  keys.reserve(s.lru.size());
  for (const auto& [key, panels] : s.lru) keys.push_back(key);
  return keys;
}

}  // namespace ptucker::serve
