#include "service/shared_core.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <utility>

#include "core/flat_table.h"
#include "core/snapshot.h"
#include "util/strings.h"

namespace ccfp {

namespace {

/// A word-at-a-time hash, fed one field at a time: every field is one or
/// more 64-bit words, and each word is one multiply-xorshift step (the
/// HashIds step of core/flat_table.h), so a step is a bijection of its
/// word. A string is its length, then its bytes eight to a word, the last
/// word zero-padded (the length tells the padding apart).
class IdentityHash {
 public:
  void U64(std::uint64_t v) {
    h_ = (h_ ^ v) * 0xBF58476D1CE4E5B9ULL;
    h_ ^= h_ >> 31;
  }
  void Str(std::string_view s) {
    U64(s.size());
    for (std::size_t i = 0; i < s.size(); i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, s.data() + i, std::min<std::size_t>(8, s.size() - i));
      U64(word);
    }
  }
  std::uint64_t value() const { return MixHash(h_); }

 private:
  std::uint64_t h_ = 0x9E3779B97F4A7C15ULL;
};

}  // namespace

SolverCore::SolverCore(SchemePtr scheme, std::vector<Dependency> sigma)
    : scheme_(scheme),
      sigma_(std::move(sigma)),
      fingerprint_(SchemeFingerprint(*scheme)),
      base_(scheme) {}

/// A canonical byte stream of a core's inputs, hashed as it is produced:
/// the scheme's text, sigma's texts in order (sigma order matters
/// deliberately: the solver's stage pipeline and the witness cache verify
/// sigma in order, so differently-ordered sigmas are different, if
/// logically equal, substrates), then each warm relation's tuple count
/// and every value as its kind plus its int64 payload (ints, null
/// labels) or its length-prefixed bytes (strings). Every variable-length
/// field carries its length, so no two distinct inputs share a stream;
/// the per-relation counts also tell an empty warm Database from none.
std::uint64_t SolverCore::Identity(const DatabaseScheme& scheme,
                                   const std::vector<Dependency>& sigma,
                                   const Database* warm) {
  IdentityHash h;
  h.Str(scheme.ToString());
  h.U64(sigma.size());
  for (const Dependency& dep : sigma) h.Str(dep.ToString(scheme));
  if (warm == nullptr) return h.value();
  for (RelId rel = 0; rel < scheme.size(); ++rel) {
    const std::vector<Tuple>& tuples = warm->relation(rel).tuples();
    h.U64(tuples.size());
    for (const Tuple& t : tuples) {
      for (const Value& v : t) {
        h.U64(static_cast<std::uint64_t>(v.kind()));
        if (v.is_str()) {
          h.Str(v.as_str());
        } else {
          h.U64(v.is_null() ? v.null_id()
                            : static_cast<std::uint64_t>(v.as_int()));
        }
      }
    }
  }
  return h.value();
}

Result<std::shared_ptr<const SolverCore>> SolverCore::Build(
    SchemePtr scheme, std::vector<Dependency> sigma, const Database* warm) {
  // Validate before Identity, which renders every sigma member.
  for (const Dependency& dep : sigma) {
    CCFP_RETURN_NOT_OK(Validate(*scheme, dep));
  }
  std::uint64_t identity = Identity(*scheme, sigma, warm);
  return Build(identity, std::move(scheme), std::move(sigma), warm);
}

Result<std::shared_ptr<const SolverCore>> SolverCore::Build(
    std::uint64_t identity, SchemePtr scheme, std::vector<Dependency> sigma,
    const Database* warm) {
  // make_shared needs a public constructor; the core is handed out const,
  // so a private-ctor new is the simpler seam.
  std::shared_ptr<SolverCore> core(
      new SolverCore(std::move(scheme), std::move(sigma)));
  core->identity_ = identity;
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
