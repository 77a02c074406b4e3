#include "service/shared_core.h"

#include <string>
#include <utility>

#include "core/snapshot.h"
#include "util/strings.h"

namespace ccfp {

namespace {

/// Canonical rendering of a core's inputs — what Identity hashes. Sigma
/// order matters deliberately: the solver's stage pipeline and the
/// witness cache verify sigma in order, so differently-ordered sigmas are
/// different (if logically equal) substrates.
std::string IdentityString(const DatabaseScheme& scheme,
                           const std::vector<Dependency>& sigma,
                           const Database* warm) {
  std::string s = scheme.ToString();
  s += '\n';
  for (const Dependency& dep : sigma) {
    s += dep.ToString(scheme);
    s += '\n';
  }
  if (warm != nullptr) {
    s += warm->ToString();
  }
  return s;
}

}  // namespace

SolverCore::SolverCore(SchemePtr scheme, std::vector<Dependency> sigma)
    : scheme_(scheme),
      sigma_(std::move(sigma)),
      fingerprint_(SchemeFingerprint(*scheme)),
      base_(scheme) {}

std::uint64_t SolverCore::Identity(const DatabaseScheme& scheme,
                                   const std::vector<Dependency>& sigma,
                                   const Database* warm) {
  return Fnv1a64(IdentityString(scheme, sigma, warm));
}

Result<std::shared_ptr<const SolverCore>> SolverCore::Build(
    SchemePtr scheme, std::vector<Dependency> sigma, const Database* warm) {
  for (const Dependency& dep : sigma) {
    CCFP_RETURN_NOT_OK(Validate(*scheme, dep));
  }
  // make_shared needs a public constructor; the core is handed out const,
  // so a private-ctor new is the simpler seam.
  std::shared_ptr<SolverCore> core(
      new SolverCore(std::move(scheme), std::move(sigma)));
  core->identity_ = Identity(*core->scheme_, core->sigma_, warm);
  if (warm != nullptr) {
    core->base_.AppendDatabase(*warm);
  }
  // Compile the partitions sigma verification touches (and warm the
  // verdicts themselves — Satisfies caches by partition, so every session
  // fork inherits compiled groups, not just interned values).
  for (const Dependency& dep : core->sigma_) {
    core->base_.Satisfies(dep);
  }
  if (warm != nullptr) {
    // One sweep per fragment compiles every candidate projection the
    // miners enumerate; forked sessions re-mining the warm data build
    // zero partitions.
    for (RelId rel = 0; rel < core->scheme_->size(); ++rel) {
      (void)MineFds(core->base_, rel);
    }
    (void)MineInds(core->base_);
    (void)MineRds(core->base_);
  }
  core->base_.SealSharedBase();
  core->base_stats_ = core->base_.stats();
  return std::shared_ptr<const SolverCore>(std::move(core));
}

}  // namespace ccfp
