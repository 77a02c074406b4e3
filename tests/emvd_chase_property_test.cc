// Differential property test for the EMVD chase engines: the id-space
// workspace engine (default since PR 3) against the legacy heap-Value
// engine on randomized Sagiv–Walecka-style instances. The engines must
// agree on everything observable — fixpoint verdicts, tuples added, the
// databases themselves (same tuples, same null labels, same order), and
// the exact point at which a matched budget trips ResourceExhausted.
#include <gtest/gtest.h>

#include "chase/emvd_chase.h"
#include "constructions/sagiv_walecka.h"
#include "core/satisfies.h"
#include "reference/emvd_chase.h"
#include "util/rng.h"

namespace ccfp {
namespace {

/// A random EMVD over one relation of `arity`: X, Y, Z disjoint, Y and Z
/// nonempty (trivial EMVDs never fire and only dilute the trial).
Emvd RandomEmvd(SplitMix64& rng, std::size_t arity) {
  while (true) {
    Emvd e;
    e.rel = 0;
    for (AttrId a = 0; a < arity; ++a) {
      switch (rng.Below(4)) {
        case 0:
          e.x.push_back(a);
          break;
        case 1:
          e.y.push_back(a);
          break;
        case 2:
          e.z.push_back(a);
          break;
        default:
          break;  // attribute constrained by neither side
      }
    }
    if (!e.y.empty() && !e.z.empty()) return e;
  }
}

Database RandomDatabase(SplitMix64& rng, const SchemePtr& scheme,
                        std::size_t max_tuples, std::size_t domain) {
  Database db(scheme);
  std::size_t arity = scheme->relation(0).arity();
  std::size_t n = 1 + rng.Below(max_tuples);
  for (std::size_t i = 0; i < n; ++i) {
    Tuple t;
    t.reserve(arity);
    for (std::size_t a = 0; a < arity; ++a) {
      // Mix constants and labeled nulls, as chase inputs do.
      if (rng.Chance(1, 4)) {
        t.push_back(Value::Null(1 + rng.Below(6)));
      } else {
        t.push_back(Value::Int(static_cast<std::int64_t>(rng.Below(domain))));
      }
    }
    db.Insert(0, std::move(t));
  }
  return db;
}

void ExpectSameOutcome(const Database& seed, const std::vector<Emvd>& sigma,
                       const EmvdChaseOptions& options, const char* context) {
  Database legacy_db = seed;
  Database ws_db = seed;
  Result<std::uint64_t> legacy =
      reference::LegacyEmvdChaseFixpoint(legacy_db, sigma, options);
  Result<std::uint64_t> ws = EmvdChaseFixpoint(ws_db, sigma, options);

  ASSERT_EQ(legacy.ok(), ws.ok()) << context << "\nlegacy: "
                                  << legacy.status().ToString()
                                  << "\nworkspace: " << ws.status().ToString();
  if (legacy.ok()) {
    EXPECT_EQ(*legacy, *ws) << context;
  } else {
    EXPECT_EQ(legacy.status().code(), ws.status().code()) << context;
    EXPECT_EQ(legacy.status().code(), StatusCode::kResourceExhausted)
        << context;
  }
  // Same database either way — on ResourceExhausted both hold the same
  // partial chase, so matched budgets trip at the same tuple.
  EXPECT_TRUE(legacy_db == ws_db)
      << context << "\nlegacy:\n" << legacy_db.ToString() << "\nworkspace:\n"
      << ws_db.ToString();
}

TEST(EmvdChasePropertyTest, RandomInstancesAgree) {
  SplitMix64 rng(20260730);
  for (int trial = 0; trial < 120; ++trial) {
    std::size_t arity = 3 + rng.Below(3);
    std::vector<std::string> attrs;
    for (std::size_t a = 0; a < arity; ++a) {
      attrs.push_back("A" + std::to_string(a));
    }
    SchemePtr scheme = MakeScheme({{"R", attrs}});
    std::vector<Emvd> sigma;
    std::size_t deps = 1 + rng.Below(3);
    for (std::size_t i = 0; i < deps; ++i) {
      sigma.push_back(RandomEmvd(rng, arity));
    }
    Database seed = RandomDatabase(rng, scheme, 6, 3);

    EmvdChaseOptions options;
    options.max_tuples = 512;
    options.max_rounds = 16;
    ExpectSameOutcome(seed, sigma, options,
                      ("random trial " + std::to_string(trial)).c_str());
  }
}

TEST(EmvdChasePropertyTest, TightBudgetsTripAtTheSameBoundary) {
  // Sweep shrinking budgets over instances that blow up (Sagiv–Walecka
  // cycles): wherever the ResourceExhausted boundary falls, it must fall
  // identically for both engines, and the partial databases must match.
  SplitMix64 rng(715);
  for (std::size_t k : {1u, 2u, 3u}) {
    SagivWaleckaConstruction c = MakeSagivWalecka(k);
    Database seed(c.scheme);
    std::size_t arity = c.scheme->relation(0).arity();
    std::uint64_t next_null = 1;
    Tuple t1(arity), t2(arity);
    for (AttrId a = 0; a < arity; ++a) {
      t1[a] = Value::Null(next_null++);
      t2[a] = (a == 0) ? t1[a] : Value::Null(next_null++);
    }
    seed.Insert(0, std::move(t1));
    seed.Insert(0, std::move(t2));

    for (std::uint64_t max_tuples : {4u, 9u, 17u, 64u, 333u}) {
      for (std::uint64_t max_rounds : {1u, 2u, 5u}) {
        EmvdChaseOptions options;
        options.max_tuples = max_tuples;
        options.max_rounds = max_rounds;
        ExpectSameOutcome(
            seed, c.sigma, options,
            ("SW k=" + std::to_string(k) + " tuples=" +
             std::to_string(max_tuples) + " rounds=" +
             std::to_string(max_rounds))
                .c_str());
      }
    }
  }
}

TEST(EmvdChasePropertyTest, ImpliesAgreesAcrossEngines) {
  for (std::size_t k : {1u, 2u, 3u}) {
    SagivWaleckaConstruction c = MakeSagivWalecka(k);
    EmvdChaseOptions options;
    options.max_tuples = 1024;
    options.max_rounds = 10;
    Result<bool> legacy = reference::LegacyEmvdChaseImplies(
        c.scheme, c.sigma, c.target, options);
    Result<bool> ws = EmvdChaseImplies(c.scheme, c.sigma, c.target, options);
    ASSERT_EQ(legacy.ok(), ws.ok()) << "k = " << k;
    if (legacy.ok()) {
      EXPECT_EQ(*legacy, *ws) << "k = " << k;
    } else {
      EXPECT_EQ(legacy.status().code(), ws.status().code()) << "k = " << k;
    }
  }
}

TEST(EmvdChasePropertyTest, FixpointSatisfiesSigma) {
  // Not a differential check: whenever the workspace engine reports a
  // fixpoint, the chased database must actually satisfy every EMVD (the
  // point of chasing), and re-running must add nothing.
  SplitMix64 rng(99);
  int fixpoints = 0;
  for (int trial = 0; trial < 60; ++trial) {
    std::size_t arity = 3 + rng.Below(2);
    std::vector<std::string> attrs;
    for (std::size_t a = 0; a < arity; ++a) {
      attrs.push_back("A" + std::to_string(a));
    }
    SchemePtr scheme = MakeScheme({{"R", attrs}});
    std::vector<Emvd> sigma = {RandomEmvd(rng, arity),
                               RandomEmvd(rng, arity)};
    Database db = RandomDatabase(rng, scheme, 5, 2);
    EmvdChaseOptions options;
    options.max_tuples = 4096;
    options.max_rounds = 32;
    Result<std::uint64_t> added = EmvdChaseFixpoint(db, sigma, options);
    if (!added.ok()) continue;
    ++fixpoints;
    for (const Emvd& e : sigma) {
      EXPECT_TRUE(Satisfies(db, e)) << Dependency(e).ToString(*scheme);
    }
    Result<std::uint64_t> again = EmvdChaseFixpoint(db, sigma, options);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, 0u);
  }
  EXPECT_GE(fixpoints, 30);  // the harness must mostly exercise real work
}

}  // namespace
}  // namespace ccfp
