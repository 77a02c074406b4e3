// The weak-acyclicity test over the IND position graph
// (chase/termination.h): which seeds chase to a fixpoint for sure, and
// which special-edge cycle stands in the way when one may not.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chase/termination.h"
#include "core/parser.h"

namespace ccfp {
namespace {

std::vector<Ind> Inds(const DatabaseScheme& scheme, const std::string& text) {
  std::vector<Ind> inds;
  std::vector<Dependency> deps = ParseDependencies(scheme, text).value();
  for (const Dependency& dep : deps) {
    if (dep.is_ind()) inds.push_back(dep.ind());
  }
  return inds;
}

RelId Rel(const DatabaseScheme& scheme, const std::string& name) {
  return scheme.FindRelation(name).value();
}

/// The mixed solve template: an R/S half whose IND R[B, C] <= R[C, A]
/// feeds itself, and a T/U half whose INDs point only from T into U.
struct MixedTemplate {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}},
                                 {"S", {"D", "E", "F"}},
                                 {"T", {"G", "H", "I", "J"}},
                                 {"U", {"K", "L", "M"}}});
  std::vector<Ind> inds = Inds(*scheme,
                               "R: A -> B\n"
                               "R[B, C] <= R[C, A]\n"
                               "S: D -> E\n"
                               "R[A, B] <= S[D, E]\n"
                               "S[E, F] <= R[A, C]\n"
                               "T: G -> H\n"
                               "T[G, H] <= U[K, L]\n"
                               "U: K -> M\n"
                               "T[I, J] <= U[L, M]\n"
                               "U: L, M -> K\n");
};

TEST(TerminationTest, RecursiveHalfOfTheMixedTemplateFails) {
  MixedTemplate m;
  // R[B, C] <= R[C, A] invents R.B from R.B's own value: a special
  // self-loop, the first cycle found.
  std::optional<SpecialEdgeCycle> from_r =
      FindSpecialEdgeCycle(*m.scheme, m.inds, Rel(*m.scheme, "R"));
  ASSERT_TRUE(from_r.has_value());
  EXPECT_EQ(from_r->ToString(*m.scheme), "R.B => R.B");
  ASSERT_EQ(from_r->edges.size(), 1u);
  EXPECT_TRUE(from_r->edges[0].special);
  // S reaches R through S[E, F] <= R[A, C], so its chase inherits the
  // cycle.
  std::optional<SpecialEdgeCycle> from_s =
      FindSpecialEdgeCycle(*m.scheme, m.inds, Rel(*m.scheme, "S"));
  ASSERT_TRUE(from_s.has_value());
  EXPECT_EQ(from_s->ToString(*m.scheme), "R.B => R.B");
}

TEST(TerminationTest, TerminatingHalfOfTheMixedTemplatePasses) {
  MixedTemplate m;
  EXPECT_FALSE(
      FindSpecialEdgeCycle(*m.scheme, m.inds, Rel(*m.scheme, "T")).has_value());
  EXPECT_FALSE(
      FindSpecialEdgeCycle(*m.scheme, m.inds, Rel(*m.scheme, "U")).has_value());
}

TEST(TerminationTest, PureFdSigmaPasses) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  EXPECT_FALSE(FindSpecialEdgeCycle(*scheme, Inds(*scheme, "R: A -> B\n"
                                                           "R: B -> C\n"),
                                    0)
                   .has_value());
}

TEST(TerminationTest, CycleOutsideTheSeedsReachPasses) {
  // R's INDs cycle through a special edge; T only reaches U, and nothing
  // leads from T or U back into R.
  SchemePtr scheme = MakeScheme(
      {{"R", {"A", "B"}}, {"T", {"G", "H"}}, {"U", {"K", "L"}}});
  std::vector<Ind> inds = Inds(*scheme,
                               "R[A] <= R[B]\n"
                               "T[G] <= U[K]\n");
  EXPECT_FALSE(
      FindSpecialEdgeCycle(*scheme, inds, Rel(*scheme, "T")).has_value());
  EXPECT_FALSE(
      FindSpecialEdgeCycle(*scheme, inds, Rel(*scheme, "U")).has_value());
  std::optional<SpecialEdgeCycle> from_r =
      FindSpecialEdgeCycle(*scheme, inds, Rel(*scheme, "R"));
  ASSERT_TRUE(from_r.has_value());
  EXPECT_EQ(from_r->ToString(*scheme), "R.A => R.A");
}

TEST(TerminationTest, CycleThroughTwoRelationsNamesEveryEdge) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
  std::vector<Ind> inds = Inds(*scheme,
                               "R[A] <= S[C]\n"
                               "S[D] <= R[A]\n");
  std::optional<SpecialEdgeCycle> cycle =
      FindSpecialEdgeCycle(*scheme, inds, Rel(*scheme, "R"));
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->ToString(*scheme), "R.A => S.D -> R.A");
  ASSERT_EQ(cycle->edges.size(), 2u);
  EXPECT_TRUE(cycle->edges[0].special);
  EXPECT_FALSE(cycle->edges[1].special);
  // Without the way back the INDs are weakly acyclic.
  EXPECT_FALSE(FindSpecialEdgeCycle(*scheme, Inds(*scheme, "R[A] <= S[C]\n"),
                                    Rel(*scheme, "R"))
                   .has_value());
}

}  // namespace
}  // namespace ccfp
