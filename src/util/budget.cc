#include "util/budget.h"

#include <algorithm>
#include <limits>

#include "util/strings.h"

namespace ccfp {

std::string BudgetUse::ToString() const {
  return StrCat("steps=", steps, " tuples=", tuples,
                " expressions=", expressions);
}

Budget Budget::Tiny() {
  Budget b;
  b.steps = 8;
  b.tuples = 8;
  b.expressions = 8;
  return b;
}

Budget Budget::WithByteCeiling(std::uint64_t limit) {
  Budget b;
  b.bytes = limit;
  return b;
}

Budget Budget::Split(unsigned parts) const {
  if (parts <= 1) return *this;
  Budget share = *this;
  auto divide = [parts](std::uint64_t amount) {
    if (amount == 0) return std::uint64_t{0};  // drained stays drained
    std::uint64_t slice = amount / parts;
    return slice == 0 ? std::uint64_t{1} : slice;
  };
  share.steps = divide(steps);
  share.tuples = divide(tuples);
  share.expressions = divide(expressions);
  return share;
}

std::vector<Budget> Budget::SplitLadder(
    const std::vector<std::uint64_t>& costs) const {
  std::vector<Budget> shares;
  shares.reserve(costs.size());
  std::uint64_t remaining = steps;
  for (std::uint64_t cost : costs) {
    Budget share = *this;
    share.steps = std::min(cost, remaining);
    remaining -= share.steps;
    shares.push_back(share);
  }
  return shares;
}

std::string Budget::ToString() const {
  return StrCat("steps=", steps, " tuples=", tuples,
                " expressions=", expressions, " bytes=",
                bytes == std::numeric_limits<std::uint64_t>::max()
                    ? std::string("none")
                    : StrCat(bytes),
                " deadline=", deadline.has_value() ? "set" : "none");
}

}  // namespace ccfp
