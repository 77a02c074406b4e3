// Perf smoke tests (ctest -L smoke) for the ImplicationSolver façade:
// fragment routing must stay cheap — a batch of queries against each
// fragment's native engine has to finish well under a second. A
// regression here means the façade started paying for engines the
// fragment does not need (e.g. running the chase on pure-FD queries) or
// rebuilding per-query state that should persist across Solve calls.
#include <chrono>
#include <gtest/gtest.h>

#include "core/parser.h"
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

}  // namespace
}  // namespace ccfp
