// The three workloads. Each runs in two modes:
//
//   * untraced (--trace 0): callers drive SolverService in a closed loop,
//     every op's output is checked, and the end-to-end metrics come out;
//   * traced (--trace 1): the first half of the time repeats the untraced
//     loop (the reference for overhead and attribution), the second half
//     replays the same op streams through the layers' public entry points
//     in the order the service and solver route them, each call inside a
//     span (trace.h), and the per-layer metrics come out.
#ifndef PERFBENCH_RUNNERS_H_
#define PERFBENCH_RUNNERS_H_

#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "service/shared_core.h"
#include "trace.h"

namespace perfbench {

/// The service's core registry, rebuilt for the traced replay: one
/// SolverCore per SolverCore::Identity, built inside a core_build span.
/// `salt` keeps apart registries of different services (the |= and |=fin
/// services of exact_solve).
class ReplayCores {
 public:
  std::shared_ptr<const ccfp::SolverCore> Acquire(
      ThreadTrace& tr, const ccfp::SchemePtr& scheme,
      std::vector<ccfp::Dependency> sigma, const ccfp::Database* warm,
      std::uint64_t salt = 0) {
    std::uint64_t id = ccfp::SolverCore::Identity(*scheme, sigma, warm) ^ salt;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cores_.find(id);
    if (it != cores_.end()) return it->second;
    ScopedSpan span(tr, Layer::kCoreBuild);
    auto core = ccfp::SolverCore::Build(scheme, std::move(sigma), warm);
    if (!core.ok()) std::exit(2);
    cores_.emplace(id, *core);
    return *core;
  }

 private:
  std::mutex mu_;
  std::map<std::uint64_t, std::shared_ptr<const ccfp::SolverCore>> cores_;
};

/// Caller threads of a workload (closed loop, one op in flight each). Two
/// callers leave the host's other two cores to the service's pool workers
/// and to the output checks between ops; four callers on four cores made
/// every run-to-run spread about twice as wide.
inline constexpr std::size_t kCallers = 2;
/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 41;

RunResult RunSolveWorkload(const Args& args, bool mixed,
                           const std::string& spans_path);
RunResult RunChurnWorkload(const Args& args, const std::string& spans_path);

/// Replays a fixed exact_solve op prefix on one caller through the traced
/// layers: a warm-up pass, then plain passes alternating with passes that
/// have `delay` injected into one layer's span wrapper. Fills each layer's
/// median self ms per op over the plain and over the delayed passes, and
/// that layer's calls per op.
struct AttributionSample {
  std::array<double, kLayerCount> base_ms{};
  std::array<double, kLayerCount> delayed_ms{};
  double calls_per_op = 0;
};
AttributionSample MeasureAttribution(std::uint64_t seed, InjectedDelay delay,
                                     std::size_t ops);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNERS_H_
