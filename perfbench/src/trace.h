// Spans for the traced run. Every call the replay makes into a library
// layer is wrapped in a ScopedSpan from this file — the library itself
// carries no tracing. A span records its layer, start, end, and the op it
// belongs to (all spans of one op share the op id); a layer's self time is
// its span's duration minus the time its child spans cover.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  kOp = 0,          ///< the root span of one op; its self time is glue
  kServiceOpen,     ///< session open (core lookup, fork, engine provision)
  kCoreBuild,       ///< SolverCore::Build
  kParser,          ///< core/parser.h
  kFdClosure,       ///< fd/closure.h
  kIndDecide,       ///< ind/implication.h (Corollary 3.2 BFS + proof)
  kIndRuleStar,     ///< chase/ind_chase.h Rule (*) counterexample
  kUnary,           ///< interact/unary_finite.h (both engines)
  kDerivation,      ///< interact/derivation.h
  kChase,           ///< chase/workspace_chase.h, and the Armstrong oracle
  kSearch,          ///< search/portfolio.h
  kVerify,          ///< verify/witness_cache.h probes and admissions
  kWorkspaceAppend, ///< core/workspace.h AppendDatabase
  kSnapshotSave,    ///< core/snapshot.h chain save
  kSnapshotLoad,    ///< core/snapshot.h chain load
  kMine,            ///< mine/discovery.h
  kArmstrong,       ///< armstrong/builder.h session Extend / materialize
  kCount
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

const char* LayerName(Layer layer);

struct Span {
  Layer layer;
  std::uint32_t thread;
  std::uint64_t op;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// Per-caller span recorder (one per thread; never shared).
class ThreadTrace {
 public:
  explicit ThreadTrace(std::uint32_t thread) : thread_(thread) {}

  /// Self milliseconds and call counts per layer, summed over the run.
  std::array<double, kLayerCount> self_ms{};
  std::array<std::uint64_t, kLayerCount> calls{};
  /// Spans kept in memory (capped), written out when the run ends.
  std::vector<Span> spans;

  void set_op(std::uint64_t op) { op_ = op; }

  /// Self milliseconds summed over every layer but the op spans: the
  /// traced layer time so far.
  double LayerMs() const {
    double sum = 0;
    for (std::size_t l = 1; l < kLayerCount; ++l) sum += self_ms[l];
    return sum;
  }

 private:
  friend class ScopedSpan;
  struct Frame {
    Layer layer;
    Clock::time_point start;
    double child_ms;
  };
  std::uint32_t thread_;
  std::uint64_t op_ = 0;
  std::vector<Frame> stack_;
};

/// The attribution self-test's hook: a fixed pause added inside every span
/// of `layer` (never inside the library). Off unless set.
struct InjectedDelay {
  Layer layer = Layer::kCount;
  double ms = 0;
};
void SetInjectedDelay(InjectedDelay delay);

class ScopedSpan {
 public:
  ScopedSpan(ThreadTrace& trace, Layer layer);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace& trace_;
};

/// Writes the spans of every caller as Chrome trace-event JSON.
void WriteSpans(const std::string& path, const std::vector<ThreadTrace>& traces);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
