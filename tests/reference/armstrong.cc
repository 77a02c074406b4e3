#include "reference/armstrong.h"

#include <algorithm>

#include "chase/workspace_chase.h"
#include "core/satisfies.h"
#include "util/strings.h"

namespace ccfp::reference {

namespace {

// Appends a pair of tuples to `db.relation(fd.rel)` that agree (share a
// null) exactly on fd.lhs and are generic elsewhere — a seed violating `fd`
// unless the chase proves otherwise.
void SeedFdViolation(Database& db, const Fd& fd, std::uint64_t& next_null) {
  std::size_t arity = db.scheme().relation(fd.rel).arity();
  Tuple t1(arity), t2(arity);
  for (AttrId a = 0; a < arity; ++a) {
    bool shared =
        std::find(fd.lhs.begin(), fd.lhs.end(), a) != fd.lhs.end();
    t1[a] = Value::Null(next_null++);
    t2[a] = shared ? t1[a] : Value::Null(next_null++);
  }
  db.Insert(fd.rel, std::move(t1));
  db.Insert(fd.rel, std::move(t2));
}

// Appends one generic tuple to `rel` (a seed against INDs/RDs that must be
// violated, and against "empty relation satisfies everything" artifacts).
void SeedGenericTuple(Database& db, RelId rel, std::uint64_t& next_null) {
  std::size_t arity = db.scheme().relation(rel).arity();
  Tuple t(arity);
  for (AttrId a = 0; a < arity; ++a) t[a] = Value::Null(next_null++);
  db.Insert(rel, std::move(t));
}

/// Re-chase the heap seed database from scratch each round (one full
/// re-intern per round).
Result<ArmstrongReport> BuildLegacy(
    const SchemePtr& scheme, const std::vector<Fd>& fds,
    const std::vector<Ind>& inds, const std::vector<Dependency>& universe,
    std::vector<Dependency> expected,
    const std::vector<Dependency>& must_fail,
    const ArmstrongBuildOptions& options) {
  Database seed(scheme);
  std::uint64_t next_null = 1;
  for (RelId rel = 0; rel < scheme->size(); ++rel) {
    SeedGenericTuple(seed, rel, next_null);
    SeedGenericTuple(seed, rel, next_null);
  }
  for (const Dependency& tau : must_fail) {
    if (tau.is_fd()) SeedFdViolation(seed, tau.fd(), next_null);
  }

  for (int round = 0; round <= options.max_repair_rounds; ++round) {
    InternedWorkspace ws(scheme);
    ws.AppendDatabase(seed);
    WorkspaceChase chase(&ws, fds, inds);
    CCFP_ASSIGN_OR_RETURN(WorkspaceChaseStats chased,
                          chase.Run(options.chase));
    if (chased.outcome == ChaseOutcome::kFailed) {
      return Status::Internal(
          "chase failed on an all-null Armstrong seed (constant clash)");
    }

    bool repaired = false;
    for (const Dependency& tau : must_fail) {
      if (!ws.Satisfies(tau)) continue;
      // Accidentally satisfied non-consequence: add a targeted seed.
      repaired = true;
      if (tau.is_fd()) {
        SeedFdViolation(seed, tau.fd(), next_null);
      } else if (tau.is_ind()) {
        SeedGenericTuple(seed, tau.ind().lhs_rel, next_null);
      } else if (tau.is_rd()) {
        SeedGenericTuple(seed, tau.rd().rel, next_null);
      } else {
        return Status::Unimplemented(
            StrCat("cannot repair dependency kind of ",
                   tau.ToString(*scheme)));
      }
    }

    if (!repaired) {
      // Exactness check (consequences must hold at the fixpoint; the loop
      // above ensured non-consequences fail).
      std::optional<std::string> mismatch =
          ObeysExactly(ws, universe, expected);
      if (mismatch.has_value()) {
        return Status::Internal(
            StrCat("Armstrong verification failed: ", *mismatch));
      }
      ArmstrongReport report(ws.Materialize());
      report.expected = std::move(expected);
      report.repair_rounds = round;
      return report;
    }
  }
  return Status::Internal(
      StrCat("Armstrong repair did not converge in ",
             options.max_repair_rounds, " rounds"));
}

}  // namespace

Result<ArmstrongReport> BuildArmstrongDatabaseLegacy(
    SchemePtr scheme, const std::vector<Fd>& fds,
    const std::vector<Ind>& inds, const std::vector<Dependency>& universe,
    const ImplicationOracle& oracle, const ArmstrongBuildOptions& options) {
  // 1. Expected consequence set.
  std::vector<Dependency> sigma_deps;
  for (const Fd& fd : fds) sigma_deps.push_back(Dependency(fd));
  for (const Ind& ind : inds) sigma_deps.push_back(Dependency(ind));

  std::vector<Dependency> expected;
  std::vector<Dependency> must_fail;
  for (const Dependency& tau : universe) {
    ImplicationVerdict verdict = oracle.Implies(sigma_deps, tau);
    if (verdict == ImplicationVerdict::kUnknown) {
      return Status::FailedPrecondition(
          StrCat("oracle '", oracle.name(), "' cannot decide ",
                 tau.ToString(*scheme)));
    }
    if (verdict == ImplicationVerdict::kImplied) {
      expected.push_back(tau);
    } else {
      must_fail.push_back(tau);
    }
  }
  // 2-3. Seed, then chase / verify / repair to exactness.
  return BuildLegacy(scheme, fds, inds, universe, std::move(expected),
                     must_fail, options);
}

}  // namespace ccfp::reference
