// E14: the EMVD chase — each candidate pair costs two partition group ids
// read off the persistent InternedWorkspace, packed into one word.
// BENCH_emvd_chase.json records one entry per workload: a grid fixpoint
// and the budgeted Sagiv-Walecka family.
#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"
#include "bench/reporter.h"
#include "chase/emvd_chase.h"
#include "constructions/sagiv_walecka.h"
#include "util/check.h"

namespace ccfp {
namespace {

/// R[X, Y, Z] with X ->> Y | Z and `groups` X-groups of `side` distinct
/// Y/Z values each: the fixpoint is the full side x side grid per group.
Database MakeGridSeed(const SchemePtr& scheme, int groups, int side) {
  Database db(scheme);
  for (int g = 0; g < groups; ++g) {
    for (int i = 0; i < side; ++i) {
      db.Insert(0, {Value::Int(g), Value::Int(i), Value::Int(i)});
    }
  }
  return db;
}

Database MakeSagivWaleckaSeed(const SagivWaleckaConstruction& c) {
  Database db(c.scheme);
  std::size_t arity = c.scheme->relation(0).arity();
  std::uint64_t next_null = 1;
  Tuple t1(arity), t2(arity);
  for (AttrId a = 0; a < arity; ++a) {
    t1[a] = Value::Null(next_null++);
    t2[a] = (a == 0) ? t1[a] : Value::Null(next_null++);
  }
  db.Insert(0, std::move(t1));
  db.Insert(0, std::move(t2));
  return db;
}

void BM_GridFixpoint(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  SchemePtr scheme = MakeScheme({{"R", {"X", "Y", "Z"}}});
  std::vector<Emvd> sigma = {MakeEmvd(*scheme, "R", {"X"}, {"Y"}, {"Z"})};
  EmvdChaseOptions options;
  options.max_tuples = 1u << 16;
  std::uint64_t added = 0;
  for (auto _ : state) {
    Database db = MakeGridSeed(scheme, 2, side);
    Result<std::uint64_t> result = EmvdChaseFixpoint(db, sigma, options);
    if (result.ok()) added = *result;
    benchmark::DoNotOptimize(result);
  }
  state.counters["side"] = side;
  state.counters["added"] = static_cast<double>(added);
}

BENCHMARK(BM_GridFixpoint)->RangeMultiplier(2)->Range(16, 64);

void BM_SagivWaleckaBudgeted(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  SagivWaleckaConstruction c = MakeSagivWalecka(k);
  EmvdChaseOptions options;
  options.max_tuples = 2048;
  options.max_rounds = 8;
  std::uint64_t tuples = 0;
  for (auto _ : state) {
    Database db = MakeSagivWaleckaSeed(c);
    Result<std::uint64_t> result = EmvdChaseFixpoint(db, c.sigma, options);
    tuples = db.TotalTuples();
    benchmark::DoNotOptimize(result);
  }
  state.counters["k"] = static_cast<double>(k);
  state.counters["tuples"] = static_cast<double>(tuples);
}

BENCHMARK(BM_SagivWaleckaBudgeted)->DenseRange(2, 3);

/// One entry per recorded workload; steps = tuples the chase
/// materialized.
void EmitJsonReport(bool smoke) {
  BenchReporter reporter("emvd_chase");
  SchemePtr grid_scheme = MakeScheme({{"R", {"X", "Y", "Z"}}});
  std::vector<Emvd> grid_sigma = {
      MakeEmvd(*grid_scheme, "R", {"X"}, {"Y"}, {"Z"})};
  SagivWaleckaConstruction sw = MakeSagivWalecka(3);

  struct Workload {
    std::string name;
    std::uint64_t n;
    Database seed;
    const std::vector<Emvd>* sigma;
    EmvdChaseOptions options;
  };
  std::vector<Workload> workloads;
  {
    Workload w{"grid_fixpoint", 48, MakeGridSeed(grid_scheme, 2, 48),
               &grid_sigma, {}};
    w.options.max_tuples = 1u << 16;
    workloads.push_back(std::move(w));
  }
  {
    Workload w{"sagiv_walecka_budgeted", 3, MakeSagivWaleckaSeed(sw),
               &sw.sigma, {}};
    w.options.max_tuples = 4096;
    w.options.max_rounds = 8;
    workloads.push_back(std::move(w));
  }

  // Smoke keeps only the budgeted workload; the grid fixpoint is the slow one.
  if (smoke) workloads.erase(workloads.begin());
  for (Workload& w : workloads) {
    std::uint64_t tuples = 0;
    WallNs wall = MeasureWallNs(smoke ? 1 : 5, [&] {
      Database db = w.seed;
      Result<std::uint64_t> result =
          EmvdChaseFixpoint(db, *w.sigma, w.options);
      CCFP_CHECK(result.ok() ||
                 result.status().code() == StatusCode::kResourceExhausted);
      tuples = db.TotalTuples();
    });
    reporter.Add(w.name, w.n, wall, tuples);
    std::fprintf(stderr, "%s (%llu tuples): %.2f ms\n", w.name.c_str(),
                 static_cast<unsigned long long>(tuples), wall.median / 1e6);
  }
  reporter.WriteFile();
}

}  // namespace
}  // namespace ccfp

int main(int argc, char** argv) {
  return ccfp::RunBenchMain(argc, argv,
                            [](bool smoke) { ccfp::EmitJsonReport(smoke); });
}
