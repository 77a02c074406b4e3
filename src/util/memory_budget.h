#ifndef CCFP_UTIL_MEMORY_BUDGET_H_
#define CCFP_UTIL_MEMORY_BUDGET_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ccfp {

/// The shared byte-accounting vocabulary for long-lived sessions.
///
/// Every resident structure of the id-space substrate — the workspace's
/// tuple stores, dedup indexes, occurrence lists, change feeds, and cached
/// partitions; the verifier's trackers, composed counters, and watcher
/// state; the witness cache's pinned databases — reports its heap
/// footprint through one `MemoryBreakdown`, so engines can enforce
/// `Budget::bytes` (a *ceiling on live state*, not a consumable rate) and
/// tests can pin which component grows.
///
/// The numbers are *logical* bytes: element counts times element sizes
/// plus fixed per-node overheads for node-based containers. They
/// deliberately ignore allocator slack and vector over-reservation, so
/// they are stable across platforms and monotone in the data actually
/// held — the property the ceiling checks and the soak suite need. Peak
/// RSS (bench/reporter.h) is the physical complement.
struct MemoryBreakdown {
  std::uint64_t tuple_store = 0;   ///< flat id payloads + slot metadata
  std::uint64_t dedup_index = 0;   ///< per-relation duplicate tables
  std::uint64_t occurrences = 0;   ///< per-value-id occurrence lists
  std::uint64_t feed = 0;          ///< retained change-feed events
  std::uint64_t journal = 0;       ///< retained mutation-journal entries
  std::uint64_t partitions = 0;    ///< cached projection partitions
  std::uint64_t interner = 0;      ///< value table + id map + union-find
  std::uint64_t watchers = 0;      ///< verifier trackers/counters/watchers
  std::uint64_t other = 0;         ///< engine-local state (worklists, ...)

  std::uint64_t Total() const {
    return tuple_store + dedup_index + occurrences + feed + journal +
           partitions + interner + watchers + other;
  }

  MemoryBreakdown& Add(const MemoryBreakdown& o) {
    tuple_store += o.tuple_store;
    dedup_index += o.dedup_index;
    occurrences += o.occurrences;
    feed += o.feed;
    journal += o.journal;
    partitions += o.partitions;
    interner += o.interner;
    watchers += o.watchers;
    other += o.other;
    return *this;
  }

  /// "tuple_store=120 dedup=80 ... total=512".
  std::string ToString() const;
};

namespace memory {

/// Approximate per-node bookkeeping overhead of a node-based hash
/// container (bucket pointer + node header), used uniformly so estimates
/// stay platform-stable.
inline constexpr std::uint64_t kHashNodeOverhead = 4 * sizeof(void*);

/// Logical bytes of a vector's *held* elements (size, not capacity — see
/// the MemoryBreakdown doc for why).
template <typename T>
std::uint64_t VectorBytes(const std::vector<T>& v) {
  return static_cast<std::uint64_t>(v.size()) * sizeof(T);
}

}  // namespace memory

}  // namespace ccfp

#endif  // CCFP_UTIL_MEMORY_BUDGET_H_
