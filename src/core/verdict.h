#ifndef CCFP_CORE_VERDICT_H_
#define CCFP_CORE_VERDICT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/budget.h"

namespace ccfp {

/// Three-valued verdict for an implication query. FD+IND implication is
/// undecidable in general, so engines may have to answer "unknown". The
/// whole stack — oracles, ChaseImplies, the solver façade — shares this
/// one vocabulary.
enum class ImplicationVerdict : std::uint8_t {
  kImplied,
  kNotImplied,
  kUnknown,
};

const char* ImplicationVerdictToString(ImplicationVerdict verdict);

/// One stage of a multi-engine implication attempt: which engine ran (or
/// why it was skipped), what it concluded, and what it consumed. The
/// ImplicationSolver's Verdict carries one of these per stage so a
/// kUnknown is never a shrug — it names exactly which engines were tried
/// and how much of the budget each burned.
struct StageReport {
  std::string stage;   ///< e.g. "classify", "derivation", "chase", "search"
  std::string engine;  ///< engine that ran; empty if the stage was skipped
  ImplicationVerdict verdict = ImplicationVerdict::kUnknown;
  std::string note;    ///< status message, skip reason, or evidence note
  BudgetUse used;      ///< budget consumed by this stage

  /// "chase [workspace-chase]: unknown (budget exhausted; steps=42 ...)".
  std::string ToString() const;
};

}  // namespace ccfp

#endif  // CCFP_CORE_VERDICT_H_
