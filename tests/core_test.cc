#include <gtest/gtest.h>

#include "core/database.h"
#include "core/dependency.h"
#include "core/intern.h"
#include "core/relation.h"
#include "core/schema.h"
#include "core/snapshot.h"
#include "core/tuple.h"
#include "core/value.h"
#include "core/workspace.h"

namespace ccfp {
namespace {

// --- ValueInterner: fresh nulls ----------------------------------------

TEST(InternerTest, FreshNullIsFoundByItsLabelAcrossFreezeAndFork) {
  ValueInterner in;
  ValueId c = in.Intern(Value::Int(7));
  // The chase's shape: reserve one label per position, intern only the
  // unconstrained one (the middle label here).
  std::uint64_t first = in.ReserveNullLabels(3);
  ValueId n = in.Intern(Value::Null(first + 1));
  EXPECT_EQ(in.ascending_nulls(), 1u);
  EXPECT_EQ(in.Intern(Value::Null(first + 1)), n);
  EXPECT_EQ(in.Intern(Value::Int(7)), c);
  EXPECT_EQ(in.size(), 2u);
  EXPECT_FALSE(in.InternNew(Value::Null(first + 1)));

  in.Freeze();
  EXPECT_EQ(in.Intern(Value::Null(first + 1)), n);
  EXPECT_FALSE(in.InternNew(Value::Null(first + 1)));

  ValueInterner fork = in;  // a frozen interner's copy shares the base
  ValueId m = fork.Intern(Value::Null(fork.ReserveNullLabels(1)));
  EXPECT_GT(fork.null_label(m), first + 2);
  EXPECT_EQ(fork.Intern(Value::Null(first + 1)), n);
  EXPECT_EQ(fork.Intern(Value::Null(fork.null_label(m))), m);
  EXPECT_FALSE(fork.InternNew(Value::Null(first + 1)));
  EXPECT_FALSE(fork.InternNew(fork.value(m)));
  EXPECT_EQ(fork.size(), 3u);

  // A reserved label nobody interned is a new value, below the ascending
  // top: it goes to the hash map and is found there afterwards.
  ValueId skipped = fork.Intern(Value::Null(first));
  EXPECT_EQ(skipped, 3u);
  EXPECT_EQ(fork.Intern(Value::Null(first)), skipped);
  EXPECT_FALSE(fork.InternNew(Value::Null(first)));
  EXPECT_EQ(fork.ascending_nulls(), 2u);
  // The base never saw the fork's values.
  EXPECT_EQ(in.size(), 2u);
}

TEST(InternerTest, WorkspaceFreshNullSurvivesForkAndSnapshot) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}});
  InternedWorkspace ws(scheme);
  ValueId a = ws.Intern(Value::Int(1));
  ValueId n = ws.InternFreshNull();
  std::uint64_t label = ws.interner().null_label(n);
  ASSERT_TRUE(ws.Append(0, {a, n}));
  EXPECT_EQ(ws.Intern(Value::Null(label)), n);

  ws.SealSharedBase();
  InternedWorkspace fork = ws.Fork();
  EXPECT_EQ(fork.Intern(Value::Null(label)), n);
  ValueId n2 = fork.InternFreshNull();
  std::uint64_t label2 = fork.interner().null_label(n2);
  EXPECT_GT(label2, label);
  ASSERT_TRUE(fork.Append(0, {n2, n}));

  Result<RestoredWorkspace> restored =
      DeserializeWorkspace(scheme, SerializeWorkspace(fork));
  ASSERT_TRUE(restored.ok()) << restored.status();
  InternedWorkspace& back = restored->ws;
  EXPECT_EQ(back.Intern(Value::Null(label)), n);
  EXPECT_EQ(back.Intern(Value::Null(label2)), n2);
  EXPECT_EQ(back.interner().size(), fork.interner().size());
  // The restore re-interns in id order, so it rebuilds the same layout
  // and charges the same bytes.
  EXPECT_EQ(back.interner().ascending_nulls(),
            fork.interner().ascending_nulls());
  EXPECT_EQ(back.MemoryUsage().interner, fork.MemoryUsage().interner);
  EXPECT_GT(back.interner().null_label(back.InternFreshNull()), label2);
}

// --- Value ------------------------------------------------------------

TEST(ValueTest, Kinds) {
  EXPECT_TRUE(Value::Int(3).is_int());
  EXPECT_TRUE(Value::Str("x").is_str());
  EXPECT_TRUE(Value::Null(7).is_null());
  EXPECT_EQ(Value::Int(3).as_int(), 3);
  EXPECT_EQ(Value::Str("x").as_str(), "x");
  EXPECT_EQ(Value::Null(7).null_id(), 7u);
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  EXPECT_NE(Value::Int(1), Value::Int(2));
  EXPECT_NE(Value::Int(1), Value::Str("1"));
  EXPECT_NE(Value::Null(1), Value::Int(1));
  EXPECT_LT(Value::Null(0), Value::Int(-5));  // kind-major order
  EXPECT_LT(Value::Int(5), Value::Str(""));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(42).Hash(), Value::Int(42).Hash());
  EXPECT_EQ(Value::Str("ab").Hash(), Value::Str("ab").Hash());
  EXPECT_NE(Value::Int(42).Hash(), Value::Null(42).Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int(-3).ToString(), "-3");
  EXPECT_EQ(Value::Str("hi").ToString(), "\"hi\"");
  EXPECT_EQ(Value::Null(3).ToString(), "_n3");
}

// --- Schema -----------------------------------------------------------

TEST(SchemaTest, BuilderBuildsAndIndexes) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C"}}});
  EXPECT_EQ(scheme->size(), 2u);
  EXPECT_EQ(scheme->relation(0).name(), "R");
  EXPECT_EQ(scheme->relation(0).arity(), 2u);
  EXPECT_EQ(scheme->FindRelation("S").value(), 1u);
  EXPECT_EQ(scheme->relation(0).FindAttr("B").value(), 1u);
  EXPECT_TRUE(scheme->relation(0).HasAttr("A"));
  EXPECT_FALSE(scheme->relation(0).HasAttr("C"));
}

TEST(SchemaTest, BuilderRejectsDuplicateRelation) {
  DatabaseSchemeBuilder builder;
  builder.AddRelation("R", {"A"}).AddRelation("R", {"B"});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(SchemaTest, BuilderRejectsDuplicateAttr) {
  DatabaseSchemeBuilder builder;
  builder.AddRelation("R", {"A", "A"});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(SchemaTest, BuilderRejectsEmptyNames) {
  {
    DatabaseSchemeBuilder builder;
    builder.AddRelation("", {"A"});
    EXPECT_FALSE(builder.Build().ok());
  }
  {
    DatabaseSchemeBuilder builder;
    builder.AddRelation("R", {""});
    EXPECT_FALSE(builder.Build().ok());
  }
}

TEST(SchemaTest, FindRelationErrors) {
  SchemePtr scheme = MakeScheme({{"R", {"A"}}});
  Result<RelId> missing = scheme->FindRelation("T");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, ToStringShowsSequences) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}});
  EXPECT_EQ(scheme->relation(0).ToString(), "R[A, B]");
}

// --- Tuple / Relation -----------------------------------------------------

TEST(TupleTest, ProjectTuple) {
  Tuple t = TupleOfInts({10, 20, 30});
  Tuple p = ProjectTuple(t, {2, 0});
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], Value::Int(30));
  EXPECT_EQ(p[1], Value::Int(10));
}

TEST(RelationTest, InsertDeduplicates) {
  Relation r(2);
  EXPECT_TRUE(r.Insert(TupleOfInts({1, 2})));
  EXPECT_FALSE(r.Insert(TupleOfInts({1, 2})));
  EXPECT_TRUE(r.Insert(TupleOfInts({1, 3})));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(TupleOfInts({1, 2})));
  EXPECT_FALSE(r.Contains(TupleOfInts({2, 1})));
}

TEST(RelationTest, ProjectDeduplicates) {
  Relation r(2);
  r.Insert(TupleOfInts({1, 2}));
  r.Insert(TupleOfInts({1, 3}));
  std::vector<Tuple> proj = r.Project({0});
  ASSERT_EQ(proj.size(), 1u);
  EXPECT_EQ(proj[0], TupleOfInts({1}));
  EXPECT_EQ(r.CountDistinct({0}), 1u);
  EXPECT_EQ(r.CountDistinct({1}), 2u);
}

TEST(RelationTest, MapValuesRemapsAndDeduplicates) {
  Relation r(1);
  r.Insert({Value::Null(1)});
  r.Insert({Value::Null(2)});
  r.MapValues([](const Value& v) {
    return v.is_null() ? Value::Int(9) : v;
  });
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains({Value::Int(9)}));
}

TEST(RelationTest, EqualityIsSetEquality) {
  Relation a(1), b(1);
  a.Insert(TupleOfInts({1}));
  a.Insert(TupleOfInts({2}));
  b.Insert(TupleOfInts({2}));
  b.Insert(TupleOfInts({1}));
  EXPECT_TRUE(a == b);
  b.Insert(TupleOfInts({3}));
  EXPECT_FALSE(a == b);
}

// --- Database ---------------------------------------------------------

TEST(DatabaseTest, InsertByName) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}});
  Database db(scheme);
  EXPECT_TRUE(db.InsertByName("R", TupleOfInts({1, 2})).ok());
  EXPECT_FALSE(db.InsertByName("T", TupleOfInts({1, 2})).ok());
  EXPECT_FALSE(db.InsertByName("R", TupleOfInts({1})).ok());
  EXPECT_EQ(db.TotalTuples(), 1u);
}

// --- Dependencies -----------------------------------------------------

class DependencyTest : public ::testing::Test {
 protected:
  SchemePtr scheme_ = MakeScheme({{"R", {"A", "B", "C"}}, {"S", {"D", "E"}}});
};

TEST_F(DependencyTest, MakeAndPrint) {
  Fd fd = MakeFd(*scheme_, "R", {"A", "B"}, {"C"});
  EXPECT_EQ(Dependency(fd).ToString(*scheme_), "R: A, B -> C");

  Ind ind = MakeInd(*scheme_, "R", {"A", "B"}, "S", {"D", "E"});
  EXPECT_EQ(Dependency(ind).ToString(*scheme_), "R[A, B] <= S[D, E]");

  Rd rd = MakeRd(*scheme_, "R", {"A"}, {"B"});
  EXPECT_EQ(Dependency(rd).ToString(*scheme_), "R[A = B]");

  Emvd emvd = MakeEmvd(*scheme_, "R", {"A"}, {"B"}, {"C"});
  EXPECT_EQ(Dependency(emvd).ToString(*scheme_), "R: A ->> B | C");

  Mvd mvd = MakeMvd(*scheme_, "R", {"A"}, {"B"});
  EXPECT_EQ(Dependency(mvd).ToString(*scheme_), "R: A ->> B");
}

TEST_F(DependencyTest, EmptyLhsFdPrints) {
  Fd fd = MakeFd(*scheme_, "R", {}, {"A"});
  EXPECT_EQ(Dependency(fd).ToString(*scheme_), "R:  -> A");
}

TEST_F(DependencyTest, ValidateRejectsRepeatedAttrs) {
  Fd fd{0, {0, 0}, {1}};
  EXPECT_FALSE(Validate(*scheme_, fd).ok());
  Ind ind{0, {0, 0}, 1, {0, 1}};
  EXPECT_FALSE(Validate(*scheme_, ind).ok());
}

TEST_F(DependencyTest, ValidateRejectsWidthMismatch) {
  Ind ind{0, {0, 1}, 1, {0}};
  EXPECT_FALSE(Validate(*scheme_, ind).ok());
  Rd rd{0, {0, 1}, {2}};
  EXPECT_FALSE(Validate(*scheme_, rd).ok());
}

TEST_F(DependencyTest, ValidateRejectsBadIds) {
  Fd fd{5, {0}, {1}};
  EXPECT_FALSE(Validate(*scheme_, fd).ok());
  Fd fd2{1, {0}, {7}};
  EXPECT_FALSE(Validate(*scheme_, fd2).ok());
}

TEST_F(DependencyTest, ValidateRejectsZeroWidthInd) {
  Ind ind{0, {}, 1, {}};
  EXPECT_FALSE(Validate(*scheme_, ind).ok());
}

TEST_F(DependencyTest, ValidateRejectsOverlappingEmvdYZ) {
  Emvd e{0, {0}, {1}, {1}};
  EXPECT_FALSE(Validate(*scheme_, e).ok());
}

TEST_F(DependencyTest, Triviality) {
  EXPECT_TRUE(IsTrivial(MakeFd(*scheme_, "R", {"A", "B"}, {"A"})));
  EXPECT_FALSE(IsTrivial(MakeFd(*scheme_, "R", {"A"}, {"B"})));
  EXPECT_TRUE(IsTrivial(MakeInd(*scheme_, "R", {"A", "B"}, "R", {"A", "B"})));
  EXPECT_FALSE(IsTrivial(MakeInd(*scheme_, "R", {"A", "B"}, "R", {"B", "A"})));
  EXPECT_FALSE(IsTrivial(MakeInd(*scheme_, "R", {"A"}, "S", {"D"})));
  EXPECT_TRUE(IsTrivial(MakeRd(*scheme_, "R", {"A"}, {"A"})));
  EXPECT_FALSE(IsTrivial(MakeRd(*scheme_, "R", {"A"}, {"B"})));
  EXPECT_TRUE(IsTrivial(MakeEmvd(*scheme_, "R", {"A", "B"}, {"B"}, {"C"})));
  EXPECT_FALSE(IsTrivial(MakeEmvd(*scheme_, "R", {"A"}, {"B"}, {"C"})));
  // MVD with X u Y covering everything is trivial.
  EXPECT_TRUE(IsTrivial(*scheme_, Dependency(MakeMvd(*scheme_, "R",
                                                     {"A", "B"}, {"C"}))));
  EXPECT_FALSE(IsTrivial(*scheme_, Dependency(MakeMvd(*scheme_, "R", {"A"},
                                                      {"B"}))));
}

TEST_F(DependencyTest, OrderingAndHashing) {
  Dependency a = Dependency(MakeFd(*scheme_, "R", {"A"}, {"B"}));
  Dependency b = Dependency(MakeFd(*scheme_, "R", {"A"}, {"C"}));
  Dependency c = Dependency(MakeInd(*scheme_, "R", {"A"}, "S", {"D"}));
  EXPECT_NE(a, b);
  EXPECT_LT(a, c);  // FDs order before INDs (kind-major)
  EXPECT_EQ(a.Hash(), Dependency(MakeFd(*scheme_, "R", {"A"}, {"B"})).Hash());
}

TEST_F(DependencyTest, SequenceSensitivity) {
  // INDs are sequences: R[A,B] <= S[D,E] differs from R[B,A] <= S[D,E].
  Dependency x = Dependency(MakeInd(*scheme_, "R", {"A", "B"}, "S",
                                    {"D", "E"}));
  Dependency y = Dependency(MakeInd(*scheme_, "R", {"B", "A"}, "S",
                                    {"D", "E"}));
  EXPECT_NE(x, y);
}

}  // namespace
}  // namespace ccfp
