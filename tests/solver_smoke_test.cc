// Perf smoke tests (ctest -L smoke) for the ImplicationSolver façade:
// fragment routing must stay cheap — a batch of queries against each
// fragment's native engine has to finish well under a second. A
// regression here means the façade started paying for engines the
// fragment does not need (e.g. running the chase on pure-FD queries) or
// rebuilding per-query state that should persist across Solve calls.
// The allocation-cliff guards pin that a query over one wide relation
// never makes the bounded search allocate past its estimate.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <gtest/gtest.h>

#include "core/parser.h"
#include "search/bounded.h"
#include "solve/solver.h"
#include "util/strings.h"

namespace ccfp {
namespace {

std::int64_t MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

TEST(SolverSmokeTest, PureFragmentBatchesFinishFast) {
  // One scheme per fragment, 200 queries each.
  constexpr int kQueries = 200;

  // Pure FD: a 64-attribute chain A0 -> A1 -> ... -> A63.
  std::vector<std::string> attrs;
  for (int a = 0; a < 64; ++a) attrs.push_back(StrCat("A", a));
  SchemePtr fd_scheme = MakeScheme({{"R", attrs}});
  std::vector<Dependency> fd_sigma;
  for (AttrId a = 0; a + 1 < 64; ++a) {
    fd_sigma.push_back(Dependency(Fd{0, {a}, {static_cast<AttrId>(a + 1)}}));
  }
  // Pure IND: a 64-relation chain R0[A,B] <= R1[A,B] <= ...
  std::vector<std::pair<std::string, std::vector<std::string>>> rels;
  for (int r = 0; r < 64; ++r) {
    rels.emplace_back(StrCat("R", r), std::vector<std::string>{"A", "B"});
  }
  SchemePtr ind_scheme = MakeScheme(rels);
  std::vector<Dependency> ind_sigma;
  for (RelId r = 0; r + 1 < 64; ++r) {
    ind_sigma.push_back(Dependency(
        Ind{r, {0, 1}, static_cast<RelId>(r + 1), {0, 1}}));
  }

  auto start = std::chrono::steady_clock::now();
  ImplicationSolver fd_solver(fd_scheme, fd_sigma);
  for (int q = 0; q < kQueries; ++q) {
    Fd target{0, {static_cast<AttrId>(q % 32)},
              {static_cast<AttrId>(32 + q % 32)}};
    Verdict v = fd_solver.Solve(Dependency(target)).value();
    ASSERT_NE(v.outcome, ImplicationVerdict::kUnknown);
    ASSERT_EQ(v.fragment, ImplicationFragment::kPureFd);
  }
  std::int64_t fd_ms = MsSince(start);

  start = std::chrono::steady_clock::now();
  ImplicationSolver ind_solver(ind_scheme, ind_sigma);
  for (int q = 0; q < kQueries; ++q) {
    Ind target{static_cast<RelId>(q % 32), {0, 1},
               static_cast<RelId>(32 + q % 32), {0, 1}};
    Verdict v = ind_solver.Solve(Dependency(target)).value();
    ASSERT_NE(v.outcome, ImplicationVerdict::kUnknown);
    ASSERT_EQ(v.fragment, ImplicationFragment::kPureInd);
  }
  std::int64_t ind_ms = MsSince(start);

  EXPECT_LT(fd_ms, 1000) << "pure-FD routing regressed";
  EXPECT_LT(ind_ms, 1000) << "pure-IND routing regressed";
}

TEST(SolverSmokeTest, MixedPipelineBatchFinishesFast) {
  // The Proposition 4.1 shape: derivable in the first stage, so the
  // pipeline must never reach the chase or the search.
  SchemePtr scheme = MakeScheme({{"R", {"X", "Y"}}, {"S", {"T", "U"}}});
  std::vector<Dependency> sigma = {
      Dependency(Ind{0, {0, 1}, 1, {0, 1}}),
      Dependency(Fd{1, {0}, {1}}),
  };
  ImplicationSolver solver(scheme, sigma);
  auto start = std::chrono::steady_clock::now();
  for (int q = 0; q < 200; ++q) {
    Verdict v = solver.Solve(Dependency(Fd{0, {0}, {1}})).value();
    ASSERT_TRUE(v.implied());
    ASSERT_EQ(v.stages.size(), 1u) << "pipeline ran past the derivation";
  }
  std::int64_t ms = MsSince(start);
  EXPECT_LT(ms, 1000) << "mixed-derivable pipeline regressed";
}

TEST(SolverSmokeTest, RefutationSearchReusesCompiledTables) {
  // An EMVD hypothesis routes to the refutation-only path, so every query
  // runs a bounded search. 50 queries over one scheme share the solver's
  // BoundedSearchWorkspace (compiled key tables) and must stay well under
  // a second.
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  std::vector<Dependency> sigma = {
      Dependency(Emvd{0, {0}, {1}, {2}}),
  };
  ImplicationSolver solver(scheme, sigma);
  auto start = std::chrono::steady_clock::now();
  for (int q = 0; q < 50; ++q) {
    // The EMVD does not imply R: A -> B; a two-tuple counterexample
    // exists within the default search shape, so this is decisive.
    Verdict v = solver.Solve(Dependency(Fd{0, {0}, {1}})).value();
    ASSERT_EQ(v.outcome, ImplicationVerdict::kNotImplied);
    ASSERT_EQ(v.fragment, ImplicationFragment::kUnsupported);
  }
  std::int64_t ms = MsSince(start);
  EXPECT_LT(ms, 1000) << "refutation path regressed";
}

TEST(SolverSmokeTest, RepeatedDivergentSeedsAreChasedOnce) {
  // The perfbench mixed template at 1/16 of the default budget: six
  // kUnknown targets with six distinct canonical seeds, each chased to the
  // share's tuple ceiling. The solver memoizes those runs, so eight more
  // rounds of the same targets replay them and must cost less in total
  // than the first round did (without the memo they cost ~8x as much). A
  // ratio, not a millisecond bound, so it holds under the sanitizers.
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}},
                                 {"S", {"D", "E", "F"}},
                                 {"T", {"G", "H", "I", "J"}},
                                 {"U", {"K", "L", "M"}}});
  std::vector<Dependency> sigma = ParseDependencies(*scheme,
                                                    "R: A -> B\n"
                                                    "R[B, C] <= R[C, A]\n"
                                                    "S: D -> E\n"
                                                    "R[A, B] <= S[D, E]\n"
                                                    "S[E, F] <= R[A, C]\n"
                                                    "T: G -> H\n"
                                                    "T[G, H] <= U[K, L]\n"
                                                    "U: K -> M\n"
                                                    "T[I, J] <= U[L, M]\n"
                                                    "U: L, M -> K\n")
                                      .value();
  std::vector<Dependency> targets;
  for (const char* text :
       {"S: E -> F", "R[C, B] <= R[B, C]", "S[E, F] <= R[C, B]",
        "R: B -> C", "S: D -> F", "R: C -> B"}) {
    targets.push_back(ParseDependency(*scheme, text).value());
  }
  Budget budget;
  budget.steps /= 16;
  budget.tuples /= 16;
  ImplicationSolver solver(scheme, sigma);
  auto round = [&] {
    auto start = std::chrono::steady_clock::now();
    for (const Dependency& target : targets) {
      Verdict v = solver.Solve(target, budget).value();
      EXPECT_TRUE(v.unknown()) << v.ToString(*scheme);
    }
    return std::chrono::steady_clock::now() - start;
  };
  auto first = round();
  std::chrono::steady_clock::duration later{};
  for (int r = 0; r < 8; ++r) later += round();
  EXPECT_LT(later, first) << "repeated divergent seeds are chased again";
  EXPECT_EQ(solver.chase_memo_stats().chase_runs, 6u);
  EXPECT_EQ(solver.chase_memo_stats().chase_replays, 48u);
}

// --- The bounded search's allocation cliff --------------------------------
// One relation R(A0..An-1), sigma {A0 -> A1, R[A0, A1] <= R[A1, A2]},
// target An-1 -> A0. The cyclic IND makes the chase diverge, so the
// bounded search decides. Each counter is priced by its own column set's
// key space, so n = 14 and 16 fit at the 2x2 rung 0; past
// 2^20-code tuple spaces (n >= 21) the search declines rung 0 and never
// allocates.

struct WideQuery {
  SchemePtr scheme;
  std::vector<Dependency> sigma;
  Dependency target;
};

WideQuery MakeWideQuery(std::size_t n) {
  std::vector<std::string> attrs;
  for (std::size_t a = 0; a < n; ++a) attrs.push_back(StrCat("A", a));
  return WideQuery{MakeScheme({{"R", attrs}}),
                   {Dependency(Fd{0, {0}, {1}}),
                    Dependency(Ind{0, {0, 1}, 0, {1, 2}})},
                   Dependency(Fd{0, {static_cast<AttrId>(n - 1)}, {0}})};
}

/// Checks rung 0's estimate before anything is solved, so a pricing
/// regression fails here instead of allocating.
void ExpectRungZeroEstimate(const WideQuery& q, bool feasible) {
  BoundedSearchEstimate estimate = EstimateBoundedSearch(
      *q.scheme, q.sigma, q.target, BoundedSearchOptions());
  ASSERT_EQ(estimate.id_space_feasible, feasible)
      << estimate.table_entries << " table entries";
  if (feasible) {
    ASSERT_LT(estimate.table_bytes, std::uint64_t{64} << 20);
  }
}

/// Solves `q`; returns what went wrong, or "" when rung 0 refuted on the
/// id-space engine (`expect_refuted`), or when any verdict came back and
/// a kUnknown shows rung 0's skip note.
std::string SolveWide(const WideQuery& q, const Budget& budget,
                      bool expect_refuted) {
  Result<Verdict> v = SolveImplication(q.scheme, q.sigma, q.target, budget);
  if (!v.ok()) return v.status().ToString();
  auto rung0 = std::find_if(v->stages.begin(), v->stages.end(),
                            [](const StageReport& r) {
                              return r.stage == "search";
                            });
  if (rung0 == v->stages.end()) {
    return "no search stage\n" + v->ToString(*q.scheme);
  }
  if (expect_refuted) {
    if (v->outcome != ImplicationVerdict::kNotImplied ||
        v->engine != "bounded-search (id-space)" ||
        rung0->verdict != ImplicationVerdict::kNotImplied) {
      return "rung 0 did not refute on the id-space engine\n" +
             v->ToString(*q.scheme);
    }
  } else if (v->outcome == ImplicationVerdict::kUnknown &&
             rung0->note.rfind("skipped: compiled tables", 0) != 0) {
    return "kUnknown without a rung-0 skip note\n" + v->ToString(*q.scheme);
  }
  return "";
}

/// Runs SolveWide in a child limited to 1 GiB of address space, so an
/// unbounded allocation is a failed child, not memory pressure on the
/// host. Sanitizer shadow memory needs the address space, so sanitized
/// builds solve in-process without the limit.
void SolveWideGuarded(const WideQuery& q, const Budget& budget,
                      bool expect_refuted) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  EXPECT_EQ(SolveWide(q, budget, expect_refuted), "");
#else
  EXPECT_EXIT(
      {
        rlimit limit;
        getrlimit(RLIMIT_AS, &limit);
        limit.rlim_cur = std::min<rlim_t>(limit.rlim_max, rlim_t{1} << 30);
        setrlimit(RLIMIT_AS, &limit);
        std::string failure = SolveWide(q, budget, expect_refuted);
        std::fputs(failure.c_str(), stderr);
        std::exit(failure.empty() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
#endif
}

TEST(SolverSmokeTest, WideRelationsRefuteOnTheIdSpaceEngineAtRungZero) {
  for (std::size_t n : {14, 16}) {
    SCOPED_TRACE(StrCat("arity ", n));
    WideQuery q = MakeWideQuery(n);
    ExpectRungZeroEstimate(q, /*feasible=*/true);
    SolveWideGuarded(q, Budget(), /*expect_refuted=*/true);
  }
}

TEST(SolverSmokeTest, WiderRelationsDeclineRungZeroInsteadOfAllocating) {
  // A small step budget only keeps the divergent chase short: steps are
  // counted per candidate, after the tables exist, so only the estimate
  // bounds what the search allocates.
  Budget budget;
  budget.steps = 2000;
  for (std::size_t n : {21, 24}) {
    SCOPED_TRACE(StrCat("arity ", n));
    WideQuery q = MakeWideQuery(n);
    ExpectRungZeroEstimate(q, /*feasible=*/false);
    SolveWideGuarded(q, budget, /*expect_refuted=*/false);
  }
}

}  // namespace
}  // namespace ccfp
