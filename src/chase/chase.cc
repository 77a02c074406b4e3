#include "chase/chase.h"

#include <algorithm>

#include "chase/workspace_chase.h"
#include "util/check.h"

namespace ccfp {

Chase::Chase(SchemePtr scheme, std::vector<Fd> fds, std::vector<Ind> inds)
    : scheme_(std::move(scheme)), fds_(std::move(fds)),
      inds_(std::move(inds)) {
  for (const Fd& fd : fds_) {
    Status st = Validate(*scheme_, fd);
    CCFP_CHECK_MSG(st.ok(), st.ToString().c_str());
  }
  for (const Ind& ind : inds_) {
    Status st = Validate(*scheme_, ind);
    CCFP_CHECK_MSG(st.ok(), st.ToString().c_str());
  }
}

Result<ChaseResult> Chase::Run(Database initial,
                               const ChaseOptions& options) const {
  InternedWorkspace ws(scheme_);
  ws.AppendDatabase(initial);
  WorkspaceChase chaser(&ws, fds_, inds_);
  CCFP_ASSIGN_OR_RETURN(WorkspaceChaseStats stats, chaser.Run(options));
  ChaseResult result(ws.Materialize());
  result.outcome = stats.outcome;
  result.fd_merges = stats.fd_merges;
  result.ind_tuples = stats.ind_tuples;
  result.steps = stats.steps;
  return result;
}

Result<Database> MakeCanonicalSeed(SchemePtr scheme,
                                   const Dependency& target) {
  CCFP_RETURN_NOT_OK(Validate(*scheme, target));
  Database seed(scheme);
  std::uint64_t next_null = 1;

  switch (target.kind()) {
    case DependencyKind::kFd: {
      // Two tuples sharing nulls exactly on the FD's left-hand side.
      const Fd& fd = target.fd();
      std::size_t arity = scheme->relation(fd.rel).arity();
      Tuple t1(arity), t2(arity);
      for (AttrId a = 0; a < arity; ++a) {
        bool shared = std::find(fd.lhs.begin(), fd.lhs.end(), a) !=
                      fd.lhs.end();
        t1[a] = Value::Null(next_null++);
        t2[a] = shared ? t1[a] : Value::Null(next_null++);
      }
      seed.Insert(fd.rel, std::move(t1));
      seed.Insert(fd.rel, std::move(t2));
      break;
    }
    case DependencyKind::kInd: {
      const Ind& ind = target.ind();
      std::size_t arity = scheme->relation(ind.lhs_rel).arity();
      Tuple t(arity);
      for (AttrId a = 0; a < arity; ++a) t[a] = Value::Null(next_null++);
      seed.Insert(ind.lhs_rel, std::move(t));
      break;
    }
    case DependencyKind::kRd: {
      const Rd& rd = target.rd();
      std::size_t arity = scheme->relation(rd.rel).arity();
      Tuple t(arity);
      for (AttrId a = 0; a < arity; ++a) t[a] = Value::Null(next_null++);
      seed.Insert(rd.rel, std::move(t));
      break;
    }
    default:
      return Status::Unimplemented(
          "ChaseImplies supports FD, IND, and RD targets");
  }
  return seed;
}

Result<ChaseImplication> ChaseImplies(SchemePtr scheme,
                                      const std::vector<Fd>& fds,
                                      const std::vector<Ind>& inds,
                                      const Dependency& target,
                                      const Budget& budget) {
  CCFP_ASSIGN_OR_RETURN(Database seed, MakeCanonicalSeed(scheme, target));
  InternedWorkspace ws(scheme);
  ws.AppendDatabase(seed);
  WorkspaceChase chase(&ws, fds, inds);
  Result<WorkspaceChaseStats> run = chase.Run(ChaseOptions::FromBudget(budget));
  // last_run() is filled on both return paths, so an exhausted chase
  // reports what it actually consumed.
  ChaseImplication out;
  out.fd_merges = chase.last_run().fd_merges;
  out.ind_tuples = chase.last_run().ind_tuples;
  out.steps = chase.last_run().steps;
  out.used.steps = out.steps;
  out.used.tuples = out.ind_tuples;
  if (!run.ok()) {
    // Budget exhaustion is the kUnknown verdict, not an error.
    if (run.status().code() != StatusCode::kResourceExhausted) {
      return run.status();
    }
    out.exhausted = run.status();
    // The engine tests the tuple ceiling only right after an IND append,
    // so a seed already above it has not tripped it; after the last append
    // alive tuples only fall (merges kill duplicates), so ending above the
    // ceiling means that append tripped it.
    out.counter_capped = out.steps > budget.steps ||
                         (out.ind_tuples > 0 &&
                          ws.TotalAliveTuples() > budget.tuples);
    return out;
  }
  if (run->outcome == ChaseOutcome::kFailed) {
    // Cannot happen from an all-null seed: there are no constants to clash.
    return Status::Internal("chase failed from an all-null seed");
  }
  // The fixpoint is a universal model of (Sigma, seed): the target holds in
  // it iff Sigma implies the target.
  if (ws.Satisfies(target)) {
    out.verdict = ImplicationVerdict::kImplied;
    return out;
  }
  // The fixpoint refutes the target; re-check it against sigma in
  // id-space before handing it out as evidence (a fixpoint violating its
  // own sigma would be an engine bug, not a counterexample).
  for (const Fd& fd : fds) {
    if (!ws.Satisfies(fd)) {
      return Status::Internal("chase fixpoint violates a sigma FD");
    }
  }
  for (const Ind& ind : inds) {
    if (!ws.Satisfies(ind)) {
      return Status::Internal("chase fixpoint violates a sigma IND");
    }
  }
  out.verdict = ImplicationVerdict::kNotImplied;
  out.counterexample = ws.Materialize();
  return out;
}

}  // namespace ccfp
