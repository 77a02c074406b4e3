#include "verify/witness_cache.h"

#include <algorithm>
#include <utility>

namespace ccfp {

WitnessCache::WitnessCache(SchemePtr scheme, std::vector<Dependency> sigma,
                           std::size_t capacity,
                           std::size_t max_watches_per_entry)
    : scheme_(std::move(scheme)),
      sigma_(std::move(sigma)),
      capacity_(capacity),
      // The reset path re-registers sigma, so the cap must leave room for
      // sigma plus at least one probed target.
      max_watches_per_entry_(
          std::max(max_watches_per_entry, sigma_.size() + 1)) {}

void WitnessCache::Touch(std::size_t i) {
  if (i + 1 == entries_.size()) return;
  std::unique_ptr<Entry> e = std::move(entries_[i]);
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
  entries_.push_back(std::move(e));
}

IncrementalVerifier& WitnessCache::ProbeVerifier(Entry& e) {
  if (e.verifier->watch_count() >= max_watches_per_entry_) {
    // The watcher set has absorbed max_watches distinct targets; rebuild
    // it fresh over sigma alone. The pinned workspace (with its compiled
    // partitions) stays, so re-registering is the cheap part of the
    // original admission, and the verdicts are unchanged — only cold
    // per-target counters are dropped.
    e.verifier = std::make_unique<IncrementalVerifier>(&e.ws);
    for (const Dependency& dep : sigma_) e.verifier->Watch(dep);
    ++stats_.watcher_resets;
  }
  return *e.verifier;
}

bool WitnessCache::EntryViolates(Entry& e, const Dependency& target) {
  IncrementalVerifier& v = ProbeVerifier(e);
  return !v.Satisfies(v.Watch(target));
}

std::uint64_t WitnessCache::BytesLocked() const {
  std::uint64_t total = 0;
  for (const auto& e : entries_) {
    MemoryBreakdown mb = e->ws.MemoryUsage();
    // The pinned heap Database copy mirrors the workspace's tuple store;
    // count it as a second tuple store rather than walking heap Values.
    total += mb.Total() + mb.tuple_store + e->verifier->MemoryBytes();
  }
  return total;
}

std::uint64_t WitnessCache::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return BytesLocked();
}

std::uint64_t WitnessCache::EnforceByteCeiling(std::uint64_t limit) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t dropped = 0;
  while (!entries_.empty() && BytesLocked() > limit) {
    entries_.pop_front();
    ++stats_.evicted;
    ++stats_.byte_evictions;
    ++dropped;
  }
  return dropped;
}

WitnessCache::AdmitOutcome WitnessCache::Admit(const Database& db,
                                               const Dependency& target) {
  AdmitOutcome out;
  std::lock_guard<std::mutex> lock(mu_);
  // Identical witness already cached? Its sigma check stands; answer the
  // target probe from the existing entry's watchers instead of
  // re-interning (Materialize round-trips make duplicates common), and
  // refresh its recency — being re-offered is a use.
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry* e = entries_[i].get();
    if (*e->db == db) {
      out.admitted = true;
      out.genuine = EntryViolates(*e, target);
      Touch(i);
      return out;
    }
  }

  // Intern the candidate into a fresh workspace and verify sigma + the
  // target through watchers.
  auto entry = std::make_unique<Entry>(scheme_);
  entry->ws.AppendDatabase(db);
  bool sigma_ok = true;
  for (const Dependency& dep : sigma_) {
    if (!entry->verifier->Satisfies(entry->verifier->Watch(dep))) {
      sigma_ok = false;
      break;
    }
  }
  out.genuine =
      sigma_ok && !entry->verifier->Satisfies(entry->verifier->Watch(target));
  if (!sigma_ok) {
    ++stats_.rejected;
    return out;
  }
  if (capacity_ == 0) return out;  // verify-only mode: nothing retained
  if (entries_.size() >= capacity_) {
    entries_.pop_front();
    ++stats_.evicted;
  }
  entry->db = std::make_shared<const Database>(db);  // copied when retained
  entries_.push_back(std::move(entry));
  ++stats_.admitted;
  out.admitted = true;
  return out;
}

std::shared_ptr<const Database> WitnessCache::Refute(
    const Dependency& target) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.probes;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (EntryViolates(*entries_[i], target)) {
      ++stats_.hits;
      Touch(i);
      return entries_.back()->db;
    }
  }
  ++stats_.misses;
  return nullptr;
}

}  // namespace ccfp
