// Differential property tests for FD mining: `MineFds` decides each
// candidate X -> A by comparing the alive-group counts of the cached X and
// X u {A} partitions, and must return exactly the list the per-candidate
// refinement sweep (reference::MineFdsSweep) returns — on random append
// traces over schemes of arity 1-6 (the partitions extend over each
// delta), on empty relations, and on workspaces where the chase merged
// values and killed twins after the partitions were compiled, so their
// groups were repaired in place and some were tombstoned.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "chase/workspace_chase.h"
#include "core/workspace.h"
#include "mine/discovery.h"
#include "reference/mine.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ccfp {
namespace {

/// R of arity 1-6 plus an S that stays empty.
SchemePtr RandomScheme(SplitMix64& rng) {
  std::size_t arity = 1 + rng.Below(6);
  std::vector<std::string> attrs;
  for (std::size_t a = 0; a < arity; ++a) {
    attrs.push_back(std::string(1, static_cast<char>('A' + a)));
  }
  return MakeScheme({{"R", attrs}, {"S", {"X", "Y"}}});
}

/// Every option combination the property covers: max_lhs 0-3, with and
/// without constants and the minimality filter.
std::vector<FdMiningOptions> AllOptions() {
  std::vector<FdMiningOptions> all;
  for (std::size_t max_lhs = 0; max_lhs <= 3; ++max_lhs) {
    for (bool minimal : {true, false}) {
      for (bool constants : {true, false}) {
        FdMiningOptions o;
        o.max_lhs = max_lhs;
        o.minimal_only = minimal;
        o.include_constants = constants;
        all.push_back(o);
      }
    }
  }
  return all;
}

std::string Describe(const FdMiningOptions& o) {
  return StrCat("max_lhs=", o.max_lhs, " minimal=", o.minimal_only,
                " constants=", o.include_constants);
}

/// Mines every relation of `ws` both ways under every option set.
void ExpectMinersAgree(const InternedWorkspace& ws, const std::string& where) {
  for (RelId rel = 0; rel < ws.scheme().size(); ++rel) {
    for (const FdMiningOptions& o : AllOptions()) {
      ASSERT_EQ(MineFds(ws, rel, o), reference::MineFdsSweep(ws, rel, o))
          << where << " rel " << rel << " " << Describe(o);
    }
  }
}

TEST(MineFdsPropertyTest, GroupCountsMatchTheSweepAlongAppendTraces) {
  SplitMix64 rng(20260530);
  for (int trial = 0; trial < 60; ++trial) {
    SchemePtr scheme = RandomScheme(rng);
    std::size_t arity = scheme->relation(0).arity();
    InternedWorkspace ws(scheme);
    ExpectMinersAgree(ws, StrCat("trial ", trial, " empty"));
    // Small per-column domains so FDs hold for a while, then break.
    std::vector<std::uint64_t> domain(arity);
    for (std::uint64_t& d : domain) d = 1 + rng.Below(5);
    std::size_t appends = 1 + rng.Below(8);
    for (std::size_t step = 0; step < appends; ++step) {
      std::size_t rows = 1 + rng.Below(6);
      for (std::size_t i = 0; i < rows; ++i) {
        Tuple t;
        for (std::size_t a = 0; a < arity; ++a) {
          t.push_back(
              Value::Int(static_cast<std::int64_t>(rng.Below(domain[a]))));
        }
        ws.AppendTuple(0, t);
      }
      ExpectMinersAgree(ws, StrCat("trial ", trial, " append ", step));
    }
  }
}

TEST(MineFdsPropertyTest, GroupCountsMatchTheSweepAfterChaseMergesAndKills) {
  SplitMix64 rng(77);
  int merged = 0, killed = 0;
  for (int trial = 0; trial < 80; ++trial) {
    SchemePtr scheme = RandomScheme(rng);
    std::size_t arity = scheme->relation(0).arity();
    if (arity < 2) continue;
    InternedWorkspace ws(scheme);
    // Constants in column 0 and nulls elsewhere: an FD 0 -> a merges the
    // nulls of rows that agree on column 0, collapsing some rows onto
    // twins (kills) and rewriting others.
    std::uint64_t next_null = 1;
    std::size_t rows = 2 + rng.Below(10);
    for (std::size_t i = 0; i < rows; ++i) {
      Tuple t{Value::Int(static_cast<std::int64_t>(rng.Below(3)))};
      for (std::size_t a = 1; a < arity; ++a) {
        t.push_back(rng.Below(3) == 0
                        ? Value::Int(static_cast<std::int64_t>(rng.Below(2)))
                        : Value::Null(next_null++));
      }
      ws.AppendTuple(0, t);
    }
    // Compile every candidate partition first, so the chase repairs them.
    ExpectMinersAgree(ws, StrCat("trial ", trial, " before the chase"));
    std::vector<Fd> fds;
    for (AttrId a = 1; a < arity; ++a) {
      if (rng.Below(2) == 0) fds.push_back(Fd{0, {0}, {a}});
    }
    if (fds.empty()) fds.push_back(Fd{0, {0}, {1}});
    WorkspaceChase chase(&ws, fds, {});
    Result<WorkspaceChaseStats> run = chase.Run(ChaseOptions{});
    ASSERT_TRUE(run.ok()) << run.status();
    if (run->outcome != ChaseOutcome::kFixpoint) continue;  // clashed
    merged += ws.stats().value_merges > 0;
    killed += ws.stats().tuples_killed > 0;
    ExpectMinersAgree(ws, StrCat("trial ", trial, " after the chase"));
  }
  // The trials must actually exercise repaired and tombstoned groups.
  EXPECT_GT(merged, 10);
  EXPECT_GT(killed, 5);
}

}  // namespace
}  // namespace ccfp
