// E14 (PR 3): the EMVD chase engines head to head — the legacy heap-Value
// engine copies and hashes two projected tuples per candidate pair; the
// workspace engine reads two partition group ids off the persistent
// InternedWorkspace and packs them into one word. BENCH_emvd_chase.json
// records a legacy/workspace entry pair per workload.
#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"
#include "bench/reporter.h"
#include "chase/emvd_chase.h"
#include "constructions/sagiv_walecka.h"
#include "reference/emvd_chase.h"
#include "util/check.h"
#include "util/strings.h"

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
  const bool workspace = state.range(1) != 0;
  SchemePtr scheme = MakeScheme({{"R", {"X", "Y", "Z"}}});
  std::vector<Emvd> sigma = {MakeEmvd(*scheme, "R", {"X"}, {"Y"}, {"Z"})};
  EmvdChaseOptions options;
  options.max_tuples = 1u << 16;
  std::uint64_t added = 0;
  for (auto _ : state) {
    Database db = MakeGridSeed(scheme, 2, side);
    Result<std::uint64_t> result =
        workspace ? EmvdChaseFixpoint(db, sigma, options)
                  : reference::LegacyEmvdChaseFixpoint(db, sigma, options);
    if (result.ok()) added = *result;
    benchmark::DoNotOptimize(result);
  }
  state.counters["side"] = side;
  state.counters["workspace"] = workspace ? 1 : 0;
  state.counters["added"] = static_cast<double>(added);
}

BENCHMARK(BM_GridFixpoint)
    ->ArgsProduct({{16, 32, 64}, {0, 1}});

void BM_SagivWaleckaBudgeted(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const bool workspace = state.range(1) != 0;
  SagivWaleckaConstruction c = MakeSagivWalecka(k);
  EmvdChaseOptions options;
  options.max_tuples = 2048;
  options.max_rounds = 8;
  std::uint64_t tuples = 0;
  for (auto _ : state) {
    Database db = MakeSagivWaleckaSeed(c);
    Result<std::uint64_t> result =
        workspace ? EmvdChaseFixpoint(db, c.sigma, options)
                  : reference::LegacyEmvdChaseFixpoint(db, c.sigma, options);
    tuples = db.TotalTuples();
    benchmark::DoNotOptimize(result);
  }
  state.counters["k"] = static_cast<double>(k);
  state.counters["workspace"] = workspace ? 1 : 0;
  state.counters["tuples"] = static_cast<double>(tuples);
}

BENCHMARK(BM_SagivWaleckaBudgeted)->ArgsProduct({{2, 3}, {0, 1}});

/// One legacy/workspace pair per recorded workload; steps = tuples the
/// chase materialized (the work both engines must do).
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
    std::uint64_t wall[2] = {0, 0};
    std::uint64_t tuples[2] = {0, 0};
    for (int engine = 0; engine < 2; ++engine) {
      wall[engine] = MedianWallNs(smoke ? 1 : 5, [&] {
        Database db = w.seed;
        Result<std::uint64_t> result =
            engine == 1
                ? EmvdChaseFixpoint(db, *w.sigma, w.options)
                : reference::LegacyEmvdChaseFixpoint(db, *w.sigma, w.options);
        CCFP_CHECK(result.ok() ||
                   result.status().code() == StatusCode::kResourceExhausted);
        tuples[engine] = db.TotalTuples();
      });
    }
    CCFP_CHECK(tuples[0] == tuples[1]);
    reporter.Add(StrCat(w.name, "_legacy"), w.n, wall[0], tuples[0]);
    reporter.Add(StrCat(w.name, "_workspace"), w.n, wall[1], tuples[1]);
    std::fprintf(stderr,
                 "%s (%llu tuples): legacy %.2f ms, workspace %.2f ms, "
                 "speedup %.2fx\n",
                 w.name.c_str(),
                 static_cast<unsigned long long>(tuples[0]), wall[0] / 1e6,
                 wall[1] / 1e6,
                 static_cast<double>(wall[0]) /
                     static_cast<double>(wall[1] == 0 ? 1 : wall[1]));
  }
  reporter.WriteFile();
}

}  // namespace
}  // namespace ccfp

int main(int argc, char** argv) {
  return ccfp::RunBenchMain(argc, argv,
                            [](bool smoke) { ccfp::EmitJsonReport(smoke); });
}
