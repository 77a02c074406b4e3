#include "reference/mine.h"

#include <algorithm>
#include <functional>

namespace ccfp::reference {

namespace {

void ForEachSortedSubset(
    std::size_t arity, std::size_t max_size, bool include_empty,
    const std::function<void(const std::vector<AttrId>&)>& fn) {
  std::vector<AttrId> current;
  std::function<void(AttrId)> rec = [&](AttrId start) {
    if (include_empty || !current.empty()) fn(current);
    if (current.size() >= max_size) return;
    for (AttrId a = start; a < arity; ++a) {
      current.push_back(a);
      rec(a + 1);
      current.pop_back();
    }
  };
  rec(0);
}

}  // namespace

std::vector<Fd> MineFdsSweep(const InternedWorkspace& ws, RelId rel,
                             const FdMiningOptions& options) {
  std::size_t arity = ws.scheme().relation(rel).arity();
  std::vector<Fd> mined;
  ForEachSortedSubset(
      arity, options.max_lhs, options.include_constants,
      [&](const std::vector<AttrId>& lhs) {
        for (AttrId rhs = 0; rhs < arity; ++rhs) {
          if (std::find(lhs.begin(), lhs.end(), rhs) != lhs.end()) {
            continue;  // trivial
          }
          Fd candidate{rel, lhs, {rhs}};
          if (!ws.Satisfies(candidate)) continue;
          mined.push_back(std::move(candidate));
        }
      });
  if (!options.minimal_only) return mined;

  // Keep an FD only if no other mined FD with the same rhs has a strictly
  // smaller lhs (both lhs are sorted).
  std::vector<Fd> minimal;
  for (const Fd& fd : mined) {
    bool subsumed = false;
    for (const Fd& other : mined) {
      if (other.rhs != fd.rhs || other.lhs == fd.lhs) continue;
      if (other.lhs.size() < fd.lhs.size() &&
          std::includes(fd.lhs.begin(), fd.lhs.end(), other.lhs.begin(),
                        other.lhs.end())) {
        subsumed = true;
        break;
      }
    }
    if (!subsumed) minimal.push_back(fd);
  }
  return minimal;
}

}  // namespace ccfp::reference
