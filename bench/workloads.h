#ifndef CCFP_BENCH_WORKLOADS_H_
#define CCFP_BENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chase/chase.h"
#include "core/database.h"
#include "util/strings.h"

namespace ccfp {

/// The deep-IND-cascade workload shared by bench_chase and the chase perf
/// smoke test, so the guard and the bench always measure the same shape.
///
/// R_0 -> R_1 -> ... -> R_levels with the INDs declared in *reverse*
/// order: a restart-loop engine advances one level per outer pass (and so
/// pays O(levels^2 * width) total work) while the delta-driven engine
/// pays O(levels * width). FDs A -> B on every level keep the equality
/// machinery engaged.
struct CascadeInstance {
  SchemePtr scheme;
  std::vector<Fd> fds;
  std::vector<Ind> inds;
};

inline CascadeInstance MakeDeepCascade(std::size_t levels) {
  std::vector<std::pair<std::string, std::vector<std::string>>> rels;
  for (std::size_t i = 0; i <= levels; ++i) {
    rels.emplace_back(StrCat("R", i),
                      std::vector<std::string>{"A", "B", "C"});
  }
  CascadeInstance instance;
  instance.scheme = MakeScheme(rels);
  for (std::size_t i = 0; i <= levels; ++i) {
    instance.fds.push_back(
        MakeFd(*instance.scheme, StrCat("R", i), {"A"}, {"B"}));
  }
  for (std::size_t i = levels; i >= 1; --i) {
    instance.inds.push_back(MakeInd(*instance.scheme, StrCat("R", i - 1),
                                    {"A", "B"}, StrCat("R", i), {"A", "B"}));
  }
  return instance;
}

/// `width` distinct all-null tuples in R_0, plus one pair sharing its
/// A-null so the FD layer actually merges something. After the chase, R_0
/// holds width + 2 tuples (the pair still differs on C) and every deeper
/// level holds the width + 1 distinct [A, B] projections.
inline Database CascadeSeed(const CascadeInstance& instance,
                            std::size_t width) {
  Database db(instance.scheme);
  std::uint64_t next_null = 1;
  for (std::size_t i = 0; i < width; ++i) {
    Tuple t;
    for (int a = 0; a < 3; ++a) t.push_back(Value::Null(next_null++));
    db.Insert(0, std::move(t));
  }
  Value shared = Value::Null(next_null++);
  db.Insert(0,
            {shared, Value::Null(next_null++), Value::Null(next_null++)});
  db.Insert(0,
            {shared, Value::Null(next_null++), Value::Null(next_null++)});
  return db;
}

/// The session_churn mining shape, shared by bench_service and the fork
/// smoke test: R(A, B, C, D) with A a key, A -> B and C -> D; S(E, F) with
/// E -> F and S[E] <= R[B]. The dependencies, and so the partitions a core
/// premines over the warm data, do not depend on `scale`, which multiplies
/// R's 1,200 warm rows (S keeps 400 draws, about 97 distinct rows).
inline SchemePtr ChurnScheme() {
  return MakeScheme({{"R", {"A", "B", "C", "D"}}, {"S", {"E", "F"}}});
}

/// A fixed LCG, so the churn data is the same on every host.
class ChurnRng {
 public:
  std::int64_t Below(std::uint64_t n) {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::int64_t>((state_ >> 33) % n);
  }

 private:
  std::uint64_t state_ = 12345;
};

inline Database ChurnWarmData(const SchemePtr& scheme, std::int64_t scale) {
  Database warm(scheme);
  ChurnRng rng;
  for (std::int64_t i = 0; i < 1200 * scale; ++i) {
    std::int64_t c = rng.Below(50);
    warm.Insert(0, {Value::Int(i), Value::Int(i % 97), Value::Int(c),
                    Value::Int((c * 3) % 41)});
  }
  for (std::int64_t i = 0; i < 400; ++i) {
    std::int64_t e = rng.Below(97);
    warm.Insert(1, {Value::Int(e), Value::Int(e % 13)});
  }
  return warm;
}

/// `count` append deltas as a mining session receives them, in the text
/// syntax of core/parser.h: each 12 R rows (keys past the 1x warm data, so
/// they are new) and one S row, 13 lines.
inline std::vector<std::string> ChurnDeltaTexts(std::size_t count) {
  std::vector<std::string> texts;
  ChurnRng rng;
  for (std::size_t d = 0; d < count; ++d) {
    std::string text;
    for (std::size_t i = 0; i < 12; ++i) {
      std::int64_t a = static_cast<std::int64_t>(1200 + 12 * d + i);
      std::int64_t c = rng.Below(50);
      text += StrCat("R(", a, ", ", a % 97, ", ", c, ", ", (c * 3) % 41,
                     ")\n");
    }
    std::int64_t e = rng.Below(97);
    text += StrCat("S(", e, ", ", e % 13, ")\n");
    texts.push_back(std::move(text));
  }
  return texts;
}

}  // namespace ccfp

#endif  // CCFP_BENCH_WORKLOADS_H_
