// E4: the Theorem 3.3 PSPACE-hardness reduction — reduction size and
// end-to-end decision cost as the tape length n grows, cross-checked
// against direct configuration-space search.
#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"
#include "bench/reporter.h"
#include "ind/implication.h"
#include "lba/lba.h"
#include "lba/reduction.h"
#include "util/check.h"

namespace ccfp {
namespace {

LbaMachine MakeEvenAsMachine(std::uint32_t* a_out) {
  LbaMachine machine;
  std::uint32_t s0 = machine.AddState("s0");
  std::uint32_t s1 = machine.AddState("s1");
  std::uint32_t r = machine.AddState("r");
  std::uint32_t h = machine.AddState("h");
  machine.SetStartState(s0);
  machine.SetHaltState(h);
  std::uint32_t a = machine.AddTapeSymbol("a");
  std::uint32_t blank = machine.blank();
  machine.AddTransition(s0, a, s1, blank, HeadMove::kRight);
  machine.AddTransition(s1, a, s0, blank, HeadMove::kRight);
  machine.AddTransition(s1, a, r, blank, HeadMove::kLeft);
  machine.AddTransition(r, blank, r, blank, HeadMove::kLeft);
  machine.AddTransition(r, blank, h, blank, HeadMove::kStay);
  *a_out = a;
  return machine;
}

void BM_BuildReduction(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::uint32_t a = 0;
  LbaMachine machine = MakeEvenAsMachine(&a);
  std::vector<std::uint32_t> input(n, a);
  std::size_t attrs = 0, inds = 0;
  for (auto _ : state) {
    Result<LbaToIndReduction> red = BuildLbaToIndReduction(machine, input);
    if (red.ok()) {
      attrs = red->scheme->relation(0).arity();
      inds = red->sigma.size();
    }
    benchmark::DoNotOptimize(red);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["attrs"] = static_cast<double>(attrs);
  state.counters["inds"] = static_cast<double>(inds);
}

BENCHMARK(BM_BuildReduction)->DenseRange(2, 10, 2);

void BM_DecideReducedInstance(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::uint32_t a = 0;
  LbaMachine machine = MakeEvenAsMachine(&a);
  std::vector<std::uint32_t> input(n, a);
  Result<LbaToIndReduction> red = BuildLbaToIndReduction(machine, input);
  if (!red.ok()) {
    state.SkipWithError("reduction failed");
    return;
  }
  IndImplication engine(red->scheme, red->sigma);
  bool implied = false;
  for (auto _ : state) {
    Result<IndDecision> decision = engine.Decide(red->target);
    if (decision.ok()) implied = decision->implied;
    benchmark::DoNotOptimize(decision);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["accepts"] = implied ? 1 : 0;  // accepts iff n even
}

BENCHMARK(BM_DecideReducedInstance)->DenseRange(2, 9);

void BM_DirectLbaSearch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::uint32_t a = 0;
  LbaMachine machine = MakeEvenAsMachine(&a);
  std::vector<std::uint32_t> input(n, a);
  bool accepts = false;
  for (auto _ : state) {
    Result<LbaRunResult> result = LbaAccepts(machine, input);
    if (result.ok()) accepts = result->accepts;
    benchmark::DoNotOptimize(result);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["accepts"] = accepts ? 1 : 0;
}

BENCHMARK(BM_DirectLbaSearch)->DenseRange(2, 9);

/// Build + decide + direct-search costs for one tape length (steps = INDs
/// in the reduction — the instance size the PSPACE-hardness argument
/// charges for).
void EmitJsonReport(bool smoke) {
  BenchReporter reporter("lba_reduction");
  const std::size_t n = 6;
  std::uint32_t a = 0;
  LbaMachine machine = MakeEvenAsMachine(&a);
  std::vector<std::uint32_t> input(n, a);
  std::uint64_t inds = 0;
  WallNs build_wall = MeasureWallNs(smoke ? 1 : 5, [&] {
    Result<LbaToIndReduction> red = BuildLbaToIndReduction(machine, input);
    CCFP_CHECK(red.ok());
    inds = red->sigma.size();
  });
  Result<LbaToIndReduction> red = BuildLbaToIndReduction(machine, input);
  CCFP_CHECK(red.ok());
  IndImplication engine(red->scheme, red->sigma);
  WallNs decide_wall = MeasureWallNs(smoke ? 1 : 5, [&] {
    Result<IndDecision> decision = engine.Decide(red->target);
    CCFP_CHECK(decision.ok() && decision->implied);  // n = 6 is even
  });
  WallNs direct_wall = MeasureWallNs(smoke ? 1 : 5, [&] {
    Result<LbaRunResult> result = LbaAccepts(machine, input);
    CCFP_CHECK(result.ok() && result->accepts);
  });
  reporter.Add("build_reduction", n, build_wall, inds);
  reporter.Add("decide_reduced", n, decide_wall, inds);
  reporter.Add("direct_lba_search", n, direct_wall, inds);
  reporter.WriteFile();
  std::fprintf(stderr, "BENCH_lba_reduction.json written\n");
}

}  // namespace
}  // namespace ccfp

int main(int argc, char** argv) {
  return ccfp::RunBenchMain(argc, argv,
                            [](bool smoke) { ccfp::EmitJsonReport(smoke); });
}
