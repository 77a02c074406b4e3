// Seeded input generators. Every input reaches the library as text parsed
// by core/parser.h; only the schemes are built in code (the parser has no
// scheme syntax).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/schema.h"
#include "util/rng.h"

namespace perfbench {

/// One solve session's inputs: a scheme, sigma as text, the semantics the
/// session's service decides, and the target texts its stream draws from,
/// grouped into pools the stream generator picks by.
struct SolveFamily {
  std::string kind;  ///< "mixed", "pure-fd", "pure-ind", "unary"
  ccfp::SchemePtr scheme;
  std::string sigma_text;
  bool finite = false;  ///< ImplicationSemantics::kFinite
  std::vector<std::string> targets;
  /// Indices into `targets`. mixed: {fast, divergent-unknown,
  /// divergent-refutable}; exact families: one pool.
  std::vector<std::vector<std::size_t>> pools;
};

/// One op of a solve stream: the caller's session and the target text.
struct SolveOp {
  std::size_t session;  ///< index into SolveCorpus::callers[c]
  std::size_t target;   ///< index into that family's targets
};

struct SolveCorpus {
  std::vector<SolveFamily> families;
  /// Per caller: family indices of its sessions (one session each).
  std::vector<std::vector<std::size_t>> callers;
  bool mixed = false;
  std::uint64_t seed = 0;
  /// Seeded start of the round-robin walk over the divergent pools.
  std::uint64_t offset = 0;

  /// The k-th op of caller `c`'s stream; `rng` is the caller's stream state
  /// (seeded by StreamRng) and must be advanced in op order.
  SolveOp Next(std::size_t c, std::uint64_t k, ccfp::SplitMix64& rng) const;
  ccfp::SplitMix64 StreamRng(std::size_t c) const {
    return ccfp::SplitMix64(seed * 1000003ull + 7919ull * (c + 1));
  }
};

SolveCorpus MakeMixedCorpus(std::uint64_t seed, std::size_t callers);
SolveCorpus MakeExactCorpus(std::uint64_t seed, std::size_t callers);

/// The session_churn inputs.
struct ChurnCorpus {
  /// Mining: one warm database shared by every mining session, and the
  /// append deltas a cycle draws from (all as "R(v, ...)" text).
  ccfp::SchemePtr mine_scheme;
  std::string warm_text;
  std::vector<std::string> delta_texts;
  /// Armstrong: sigma variants (FDs + INDs as text) and the universe a
  /// session's Extend rounds grow through.
  ccfp::SchemePtr arm_scheme;
  std::vector<std::string> arm_sigma_texts;
  std::vector<std::string> universe_texts;
};

ChurnCorpus MakeChurnCorpus(std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
