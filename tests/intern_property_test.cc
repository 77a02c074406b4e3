// Differential property test for the value interner (core/intern.h): its
// hash tables are flat slot arrays of ids, keyed by a mixed Value::Hash()
// and compared through the value vectors. Against a std::map model that
// hands out ids in first-sight order, every value must get the same id,
// and the same values must land in the ascending-null side vector — with
// ints crafted to share their full Value::Hash() with strings and nulls,
// nulls labeled above and below the side vector's labels, across Freeze,
// copies of a frozen interner (a fork's) and the restore path InternNew.
// A workspace holding such values must save -> load -> save to the same
// bytes.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/intern.h"
#include "core/snapshot.h"
#include "core/workspace.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ccfp {
namespace {

/// The map-based interner the flat one must agree with: first-sight ids,
/// and a null joins the ascending side vector when its label is above
/// every null label interned before it.
class MapInterner {
 public:
  ValueId Intern(const Value& v) {
    auto [it, inserted] =
        ids_.try_emplace(v, static_cast<ValueId>(ids_.size()));
    if (inserted && v.is_null() && (!any_null_ || v.null_id() > max_null_)) {
      ++ascending_;
      max_null_ = v.null_id();
      any_null_ = true;
    }
    return it->second;
  }
  std::size_t size() const { return ids_.size(); }
  std::size_t ascending() const { return ascending_; }

 private:
  std::map<Value, ValueId> ids_;
  bool any_null_ = false;
  std::uint64_t max_null_ = 0;
  std::size_t ascending_ = 0;
};

/// The Int whose Value::Hash() equals `target`'s (libstdc++ hashes an
/// int64 to itself, so Value::Hash is invertible on ints).
Value CollidingInt(const Value& target) {
  constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
  std::uint64_t h0 = static_cast<std::uint64_t>(Value::Kind::kInt) * kGolden;
  std::uint64_t x = (static_cast<std::uint64_t>(target.Hash()) ^ h0) -
                    (kGolden + (h0 << 6) + (h0 >> 2));
  return Value::Int(static_cast<std::int64_t>(x));
}

/// A random value from a small pool (so repeats are common), or an int
/// colliding with an earlier string or null.
Value RandomValue(SplitMix64& rng, std::vector<Value>& seen,
                  std::uint64_t& null_high) {
  switch (rng.Below(6)) {
    case 0:
      return Value::Int(static_cast<std::int64_t>(rng.Below(40)) - 20);
    case 1:
      return Value::Str(StrCat("s", rng.Below(30)));
    case 2:
      null_high += 1 + rng.Below(3);  // above every label so far
      return Value::Null(null_high);
    case 3:
      return Value::Null(1 + rng.Below(null_high + 1));  // mostly below
    default: {
      if (seen.empty()) return Value::Int(0);
      const Value& target = seen[rng.Below(seen.size())];
      if (target.is_int()) return target;  // a plain repeat
      return CollidingInt(target);
    }
  }
}

/// Interns `n` random values into `in` and `model`, checking each id.
void InternAndCompare(SplitMix64& rng, ValueInterner& in, MapInterner& model,
                      std::vector<Value>& seen, std::uint64_t& null_high,
                      std::size_t n, const std::string& where) {
  for (std::size_t i = 0; i < n; ++i) {
    Value v = RandomValue(rng, seen, null_high);
    ASSERT_EQ(in.Intern(v), model.Intern(v)) << where << ": " << v.ToString();
    seen.push_back(v);
  }
  ASSERT_EQ(in.size(), model.size()) << where;
  ASSERT_EQ(in.ascending_nulls(), model.ascending()) << where;
  for (const Value& v : seen) {
    ASSERT_EQ(in.Intern(v), model.Intern(v)) << where << " re-probe";
  }
  ASSERT_EQ(in.size(), model.size()) << where << " re-probe grew";
}

TEST(InternPropertyTest, CraftedIntsCollideWithStringsAndNulls) {
  for (const Value& v : {Value::Str("abc"), Value::Str(""), Value::Null(7),
                         Value::Null(1ULL << 40)}) {
    Value i = CollidingInt(v);
    ASSERT_TRUE(i.is_int());
    ASSERT_EQ(i.Hash(), v.Hash()) << v.ToString();
    ASSERT_NE(i, v);
  }
}

TEST(InternPropertyTest, FlatTablesGiveTheMapInternersIds) {
  SplitMix64 rng(31337);
  for (int trial = 0; trial < 40; ++trial) {
    std::string where = StrCat("trial ", trial);
    ValueInterner in;
    MapInterner model;
    std::vector<Value> seen;
    std::uint64_t null_high = 0;
    InternAndCompare(rng, in, model, seen, null_high, rng.Below(200), where);

    in.Freeze();
    ASSERT_EQ(in.base_size(), model.size());
    InternAndCompare(rng, in, model, seen, null_high, rng.Below(100),
                     where + " frozen");

    // A copy of a frozen interner is a fork: both extend independently
    // over the shared base.
    ValueInterner fork = in;
    MapInterner fork_model = model;
    std::vector<Value> fork_seen = seen;
    std::uint64_t fork_high = null_high;
    InternAndCompare(rng, fork, fork_model, fork_seen, fork_high,
                     rng.Below(100), where + " fork");
    InternAndCompare(rng, in, model, seen, null_high, rng.Below(100),
                     where + " origin");
    fork.Freeze();  // re-freeze over an existing base
    InternAndCompare(rng, fork, fork_model, fork_seen, fork_high,
                     rng.Below(100), where + " fork refrozen");

    // The restore path re-interns the table in id order: same ids, same
    // placement, and a second InternNew of any value is refused.
    ValueInterner restored;
    for (ValueId id = 0; id < fork.size(); ++id) {
      ASSERT_TRUE(restored.InternNew(fork.value(id))) << where;
    }
    ASSERT_EQ(restored.ascending_nulls(), fork.ascending_nulls()) << where;
    for (ValueId id = 0; id < fork.size(); ++id) {
      ASSERT_FALSE(restored.InternNew(fork.value(id))) << where;
      ASSERT_EQ(restored.Intern(fork.value(id)), id) << where;
    }
    ASSERT_EQ(restored.size(), fork.size()) << where;
  }
}

TEST(InternPropertyTest, SnapshotsOfCollidingValuesRoundTripByteForByte) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}});
  SplitMix64 rng(8080);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Value> seen;
    std::uint64_t null_high = 0;
    InternedWorkspace base(scheme);
    auto append_rows = [&](InternedWorkspace& ws, std::size_t rows) {
      for (std::size_t i = 0; i < rows; ++i) {
        Tuple t{RandomValue(rng, seen, null_high),
                RandomValue(rng, seen, null_high)};
        seen.push_back(t[0]);
        seen.push_back(t[1]);
        ws.AppendTuple(0, t);
      }
    };
    append_rows(base, 1 + rng.Below(60));
    base.SealSharedBase();
    InternedWorkspace fork = base.Fork();
    append_rows(fork, rng.Below(60));
    for (const InternedWorkspace* ws : {&base, &fork}) {
      std::string saved = SerializeWorkspace(*ws);
      Result<RestoredWorkspace> loaded = DeserializeWorkspace(scheme, saved);
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      ASSERT_EQ(SerializeWorkspace(loaded->ws), saved) << "trial " << trial;
      for (ValueId id = 0; id < ws->interner().size(); ++id) {
        ASSERT_EQ(loaded->ws.interner().value(id), ws->interner().value(id));
      }
    }
  }
}

}  // namespace
}  // namespace ccfp
