#include "trace.h"

#include <atomic>
#include <cstdio>

namespace perfbench {
namespace {

constexpr std::size_t kMaxSpansPerThread = 10000;

std::atomic<int> g_delay_layer{static_cast<int>(Layer::kCount)};
std::atomic<double> g_delay_ms{0};

const Clock::time_point kEpoch = Clock::now();

std::int64_t Ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kEpoch)
      .count();
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kServiceOpen: return "service.open";
    case Layer::kCoreBuild: return "service.core_build";
    case Layer::kParser: return "core.parser";
    case Layer::kFdClosure: return "fd.closure";
    case Layer::kIndDecide: return "ind.decide";
    case Layer::kIndRuleStar: return "ind.rule_star";
    case Layer::kUnary: return "interact.unary";
    case Layer::kDerivation: return "interact.derivation";
    case Layer::kChase: return "chase";
    case Layer::kSearch: return "search.portfolio";
    case Layer::kVerify: return "verify.counterexample";
    case Layer::kWorkspaceAppend: return "core.workspace.append";
    case Layer::kSnapshotSave: return "core.snapshot.save";
    case Layer::kSnapshotLoad: return "core.snapshot.load";
    case Layer::kMine: return "mine";
    case Layer::kArmstrong: return "armstrong.extend";
    case Layer::kCount: break;
  }
  return "?";
}

void SetInjectedDelay(InjectedDelay delay) {
  g_delay_ms.store(delay.ms);
  g_delay_layer.store(static_cast<int>(delay.layer));
}

ScopedSpan::ScopedSpan(ThreadTrace& trace, Layer layer) : trace_(trace) {
  trace_.stack_.push_back({layer, Clock::now(), 0.0});
  if (g_delay_layer.load(std::memory_order_relaxed) ==
      static_cast<int>(layer)) {
    Delay(g_delay_ms.load(std::memory_order_relaxed));
  }
}

ScopedSpan::~ScopedSpan() {
  Clock::time_point end = Clock::now();
  ThreadTrace::Frame frame = trace_.stack_.back();
  trace_.stack_.pop_back();
  double total = MsBetween(frame.start, end);
  std::size_t index = static_cast<std::size_t>(frame.layer);
  trace_.self_ms[index] += total - frame.child_ms;
  ++trace_.calls[index];
  if (!trace_.stack_.empty()) trace_.stack_.back().child_ms += total;
  if (trace_.spans.size() < kMaxSpansPerThread) {
    trace_.spans.push_back(
        {frame.layer, trace_.thread_, trace_.op_, Ns(frame.start), Ns(end)});
  }
}

void WriteSpans(const std::string& path,
                const std::vector<ThreadTrace>& traces) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (const ThreadTrace& t : traces) {
    for (const Span& s : t.spans) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu}}",
                   first ? "" : ",\n", LayerName(s.layer), s.thread,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.op));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  std::fclose(f);
}

}  // namespace perfbench
