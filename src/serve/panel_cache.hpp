#pragma once
/// \file panel_cache.hpp
/// \brief Sharded LRU cache of decompressed archive-entry panels (core +
/// factors + stats) for the query server: many concurrent queries over the
/// same hot windows decompress each window's model once, not once per
/// query.
///
/// The design follows the TimestepReader LRU (pario/timestep_reader.hpp)
/// scaled out for server concurrency: the key space is split over
/// independently locked shards so queries against different windows never
/// contend on one mutex, and the loader runs with no lock held so a miss's
/// disk I/O never blocks hits on other keys in the same shard. Two threads
/// racing to load the same key both load; the first insert wins and the
/// loser adopts it (one redundant read, no torn state) — the same policy
/// TimestepReader::step_file uses.
///
/// Events are counted in the process-wide registry under "serve.cache.*"
/// (lookups, hits, misses, evictions = capacity evictions only,
/// invalidations = panels dropped by erase_archive); hits + misses ==
/// lookups always holds (a racing duplicate load counts as the one miss of
/// the thread that looked up and found nothing).
///
/// Keys carry the owning archive's revalidation generation: when the server
/// detects an archive was rewritten in place, it bumps the generation and
/// drops the archive's panels, so stale models can never serve a query (see
/// QueryServer). Values are shared_ptr-to-const: eviction never invalidates
/// a panel a query is still reading.

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "data/normalize.hpp"
#include "tensor/matrix.hpp"
#include "tensor/tensor.hpp"

namespace ptucker::serve {

/// One archive entry decompressed and ready to contract: the full core, the
/// replicated factors, the window it covers, and its normalization stats.
struct EntryPanels {
  std::uint64_t step_first = 0;
  std::uint64_t step_count = 0;
  tensor::Tensor core;
  std::vector<tensor::Matrix> factors;
  bool has_stats = false;
  data::NormalizationStats stats;  ///< valid only when has_stats
};

/// Cache key: which archive (server-local index), which revalidation
/// generation of it, which entry.
struct PanelKey {
  std::size_t archive = 0;
  std::uint64_t generation = 0;
  std::size_t entry = 0;
  bool operator==(const PanelKey&) const = default;
};

class PanelCache {
 public:
  /// \p capacity panels total, spread over min(\p shards, capacity)
  /// independently locked shards (both >= 1). Shards that come first get
  /// the remainder panels, so every shard holds at least one.
  PanelCache(std::size_t capacity, std::size_t shards);

  using Loader = std::function<std::shared_ptr<const EntryPanels>()>;

  /// Return the cached panels for \p key, or invoke \p loader (with no
  /// cache lock held) and cache its result. Never returns null unless the
  /// loader returns null.
  [[nodiscard]] std::shared_ptr<const EntryPanels> get_or_load(
      const PanelKey& key, const Loader& loader);

  /// Drop every panel of \p archive (all generations) — the revalidation
  /// path when an archive was rewritten in place.
  void erase_archive(std::size_t archive);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Shard a key maps to: (archive + entry) mod shards, so consecutive
  /// entries of one archive round-robin over the shards. Deterministic and
  /// exposed for tests.
  [[nodiscard]] std::size_t shard_of(const PanelKey& key) const;
  /// Panels currently resident (sums the shards; a racing insert may make
  /// consecutive calls disagree, which is fine for observability).
  [[nodiscard]] std::size_t size() const;
  /// Resident keys of one shard, most recently used first (tests only).
  [[nodiscard]] std::vector<PanelKey> shard_keys(std::size_t shard) const;

 private:
  struct KeyHash {
    std::size_t operator()(const PanelKey& k) const {
      std::size_t h = std::hash<std::size_t>{}(k.archive);
      h = h * 1000003u ^ std::hash<std::uint64_t>{}(k.generation);
      return h * 1000003u ^ std::hash<std::size_t>{}(k.entry);
    }
  };
  struct Shard {
    mutable std::mutex mutex;
    std::size_t capacity = 0;
    /// Front = most recently used.
    std::list<std::pair<PanelKey, std::shared_ptr<const EntryPanels>>> lru;
    std::unordered_map<PanelKey, decltype(lru)::iterator, KeyHash> index;
  };

  std::size_t capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ptucker::serve
